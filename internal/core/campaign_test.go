package core

import (
	"testing"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/job"
)

func TestCampaignReportTaggedPerfect(t *testing.T) {
	// Two tagged ensembles: each fully recovered as one group.
	var jobs []accounting.JobRecord
	id := int64(0)
	for c := 0; c < 2; c++ {
		for m := 0; m < 4; m++ {
			id++
			camp := []string{"ens-A", "ens-B"}[c]
			jobs = append(jobs, rec(id, func(r *accounting.JobRecord) {
				r.EnsembleID = sym(camp)
				r.TruthModality = sym(string(job.ModEnsemble))
				r.TruthCampaign = sym(camp)
			}))
		}
	}
	c := central(t, jobs, nil, nil)
	stats := CampaignReport(c, classify(t, c))
	var ens CampaignStats
	for _, s := range stats {
		if s.Modality == job.ModEnsemble {
			ens = s
		}
	}
	if ens.TrueCampaigns != 2 || ens.MeasuredCampaigns != 2 || ens.RecoveredCampaigns != 2 {
		t.Errorf("ensemble stats = %+v", ens)
	}
	if ens.Fragmentation != 1 {
		t.Errorf("fragmentation = %v, want 1", ens.Fragmentation)
	}
}

func TestCampaignReportInferredBurst(t *testing.T) {
	// One untagged sweep of 6 identical burst jobs: inference should
	// recover it as one campaign.
	var jobs []accounting.JobRecord
	for i := 0; i < 6; i++ {
		i := i
		jobs = append(jobs, rec(int64(i+1), func(r *accounting.JobRecord) {
			r.Name = sym("sweep")
			r.Cores = 4
			r.SubmitTime = float64(i) * 30
			r.TruthModality = sym(string(job.ModEnsemble))
			r.TruthCampaign = sym("true-ens-1")
		}))
	}
	c := central(t, jobs, nil, nil)
	stats := CampaignReport(c, classify(t, c))
	for _, s := range stats {
		if s.Modality != job.ModEnsemble {
			continue
		}
		if s.TrueCampaigns != 1 || s.RecoveredCampaigns != 1 {
			t.Errorf("inferred recovery failed: %+v", s)
		}
	}
}

func TestCampaignReportUnrecovered(t *testing.T) {
	// An untagged workflow whose stages are hours apart: not recovered.
	var jobs []accounting.JobRecord
	tm := 0.0
	for i := 0; i < 3; i++ {
		i := i
		jobs = append(jobs, rec(int64(i+1), func(r *accounting.JobRecord) {
			r.Name = sym("stage")
			r.SubmitTime = tm
			r.StartTime = tm + 10
			r.EndTime = tm + 600
			r.TruthModality = sym(string(job.ModWorkflow))
			r.TruthCampaign = sym("wf-lost")
		}))
		tm += 20000 // hours of slack: no chain signature
	}
	c := central(t, jobs, nil, nil)
	stats := CampaignReport(c, classify(t, c))
	for _, s := range stats {
		if s.Modality != job.ModWorkflow {
			continue
		}
		if s.TrueCampaigns != 1 || s.RecoveredCampaigns != 0 {
			t.Errorf("lost workflow graded wrong: %+v", s)
		}
	}
}
