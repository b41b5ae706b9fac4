package core

import (
	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/job"
)

// CampaignStats grades campaign-level recovery for one modality: beyond
// per-job labels, did the measurement framework reconstruct the *groups* —
// the sweeps and workflow instances — that users actually ran? Operators
// need campaign counts ("how many parameter studies ran last quarter"),
// which per-job accuracy alone does not give.
type CampaignStats struct {
	Modality job.Modality
	// TrueCampaigns is the number of distinct generator campaigns whose
	// jobs appear in the records.
	TrueCampaigns int
	// MeasuredCampaigns is the number of distinct campaign groups the
	// classifier produced (tagged or inferred).
	MeasuredCampaigns int
	// RecoveredCampaigns counts true campaigns for which at least half the
	// member jobs landed in a single measured campaign (majority match).
	RecoveredCampaigns int
	// Fragmentation is the mean number of measured groups a true
	// campaign's jobs were split across (1.0 = perfect grouping).
	Fragmentation float64
}

// CampaignReport computes campaign-recovery statistics for ensemble and
// workflow modalities from classified records. Ground truth comes from the
// records' generator labels, used only for grading.
func CampaignReport(c *accounting.Central, results []Result) []CampaignStats {
	syms := c.Syms()
	type key struct {
		mod job.Modality
		id  job.Sym
	}
	// true campaign → measured campaign → member count
	members := make(map[key]map[group]int)
	measuredSet := make(map[job.Modality]map[group]bool)
	for i, r := range c.Jobs() {
		truthMod := job.Modality(syms.Str(r.TruthModality))
		if truthMod != job.ModEnsemble && truthMod != job.ModWorkflow {
			continue
		}
		if r.TruthCampaign == job.SymNone {
			continue
		}
		k := key{truthMod, r.TruthCampaign}
		if members[k] == nil {
			members[k] = make(map[group]int)
		}
		g := results[i].group()
		members[k][g]++ // the zero group holds unmeasured members
		if g != (group{}) {
			if measuredSet[truthMod] == nil {
				measuredSet[truthMod] = make(map[group]bool)
			}
			measuredSet[truthMod][g] = true
		}
	}
	var out []CampaignStats
	for _, mod := range []job.Modality{job.ModEnsemble, job.ModWorkflow} {
		st := CampaignStats{Modality: mod}
		fragSum := 0.0
		for k, groups := range members {
			if k.mod != mod {
				continue
			}
			st.TrueCampaigns++
			total, best, distinct := 0, 0, 0
			for id, n := range groups {
				total += n
				if id == (group{}) {
					continue
				}
				distinct++
				if n > best {
					best = n
				}
			}
			if distinct == 0 {
				distinct = 1 // fully unmeasured: one (empty) group
			}
			fragSum += float64(distinct)
			if best*2 >= total {
				st.RecoveredCampaigns++
			}
		}
		st.MeasuredCampaigns = len(measuredSet[mod])
		if st.TrueCampaigns > 0 {
			st.Fragmentation = fragSum / float64(st.TrueCampaigns)
		}
		out = append(out, st)
	}
	return out
}
