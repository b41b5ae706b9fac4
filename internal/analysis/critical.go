// Critical-path extraction through workflow and ensemble campaigns. The
// accounting stream does not record explicit task dependencies, so the
// path is inferred from temporal precedence: job B can depend on job A
// only when A finished before B was submitted (the workflow engine submits
// a task when its parents complete). The longest such chain of
// submit→end intervals is the campaign's critical path; comparing it with
// makespan and sum-of-work separates "slow because serial" from "slow
// because the queue was".
package analysis

import (
	"github.com/tgsim/tgmod/internal/job"
	"sort"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/report"
)

// CampaignPath summarizes one multi-job campaign.
type CampaignPath struct {
	Campaign string
	Kind     string // dominant truth modality of the members ("mixed" when split)
	Jobs     int

	MakespanSeconds     float64 // first submit → last end
	CriticalPathSeconds float64 // longest precedence chain of submit→end intervals
	SumWorkSeconds      float64 // Σ wall time
	ChainJobs           int     // jobs on the critical path

	// Parallelism is sum-of-work over makespan: the campaign's average
	// concurrency. 1.0 means fully serial.
	Parallelism float64
}

// CPShare returns critical path over makespan: 1.0 means the campaign is
// dependency-bound end to end; lower values mean scheduling gaps (queue
// wait between chain links counts inside the chain, idle gaps between
// independent jobs do not).
func (p CampaignPath) CPShare() float64 {
	if p.MakespanSeconds == 0 {
		return 0
	}
	return p.CriticalPathSeconds / p.MakespanSeconds
}

// campaignKey groups a record into its campaign: ground-truth campaign
// when labeled, else the instrumented workflow/ensemble tags, so partially
// instrumented traces still group what they can.
func campaignKey(r *accounting.JobRecord) job.Sym {
	switch {
	case r.TruthCampaign != job.SymNone:
		return r.TruthCampaign
	case r.WorkflowID != job.SymNone:
		return r.WorkflowID
	default:
		return r.EnsembleID
	}
}

// CriticalPaths extracts one CampaignPath per campaign with at least two
// member jobs, sorted by descending makespan (ties by campaign ID). syms
// is the table the records index.
func CriticalPaths(recs []*accounting.JobRecord, syms *job.Symbols) []CampaignPath {
	groups := make(map[job.Sym][]*accounting.JobRecord)
	for _, r := range recs {
		if key := campaignKey(r); key != job.SymNone {
			groups[key] = append(groups[key], r)
		}
	}
	var out []CampaignPath
	for key, members := range groups {
		if len(members) < 2 {
			continue
		}
		out = append(out, pathOf(syms.Str(key), members, syms))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MakespanSeconds != out[j].MakespanSeconds {
			return out[i].MakespanSeconds > out[j].MakespanSeconds
		}
		return out[i].Campaign < out[j].Campaign
	})
	return out
}

// pathOf computes the critical path of one campaign with an O(n²) DP over
// members sorted by end time: chain(j) = span(j) + max{chain(i) : i ended
// by j's submission}. Campaigns are tens of jobs, so quadratic is fine.
func pathOf(key string, members []*accounting.JobRecord, syms *job.Symbols) CampaignPath {
	sort.Slice(members, func(a, b int) bool {
		if members[a].EndTime != members[b].EndTime {
			return members[a].EndTime < members[b].EndTime
		}
		return members[a].JobID < members[b].JobID
	})
	p := CampaignPath{Campaign: key, Jobs: len(members)}

	firstSubmit, lastEnd := members[0].SubmitTime, members[0].EndTime
	kinds := make(map[string]int)
	for _, m := range members {
		if m.SubmitTime < firstSubmit {
			firstSubmit = m.SubmitTime
		}
		if m.EndTime > lastEnd {
			lastEnd = m.EndTime
		}
		p.SumWorkSeconds += m.WallSeconds
		kinds[syms.Str(m.TruthModality)]++
	}
	p.MakespanSeconds = lastEnd - firstSubmit

	p.Kind = "mixed"
	for k, n := range kinds {
		if n == len(members) {
			p.Kind = k
		}
	}

	// chain[i]: longest submit→end chain ending at members[i]; jobs[i]: its
	// length in jobs.
	chain := make([]float64, len(members))
	jobs := make([]int, len(members))
	for i, m := range members {
		span := m.EndTime - m.SubmitTime
		chain[i], jobs[i] = span, 1
		for j := 0; j < i; j++ {
			if members[j].EndTime <= m.SubmitTime && chain[j]+span > chain[i] {
				chain[i] = chain[j] + span
				jobs[i] = jobs[j] + 1
			}
		}
		if chain[i] > p.CriticalPathSeconds {
			p.CriticalPathSeconds = chain[i]
			p.ChainJobs = jobs[i]
		}
	}

	if p.MakespanSeconds > 0 {
		p.Parallelism = p.SumWorkSeconds / p.MakespanSeconds
	}
	return p
}

// kindSummary aggregates CampaignPaths of one kind.
type kindSummary struct {
	kind      string
	campaigns int
	jobs      int
	makespan  float64
	cpShare   float64
	par       float64
}

// CriticalPathTable renders per-kind summaries followed by the topN
// longest campaigns individually.
func CriticalPathTable(paths []CampaignPath, topN int) *report.Table {
	t := report.NewTable("Campaign critical paths",
		"campaign", "kind", "jobs", "makespan s", "critical path s", "cp share", "chain jobs", "sum work s", "parallelism")

	byKind := make(map[string]*kindSummary)
	var kinds []string
	for _, p := range paths {
		s := byKind[p.Kind]
		if s == nil {
			s = &kindSummary{kind: p.Kind}
			byKind[p.Kind] = s
			kinds = append(kinds, p.Kind)
		}
		s.campaigns++
		s.jobs += p.Jobs
		s.makespan += p.MakespanSeconds
		s.cpShare += p.CPShare()
		s.par += p.Parallelism
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		s := byKind[k]
		n := float64(s.campaigns)
		t.AddRowf("ALL ("+report.GroupInt(int64(s.campaigns))+" campaigns)", k, s.jobs,
			s.makespan/n, "", report.Percent(s.cpShare/n), "", "", s.par/n)
	}
	for i, p := range paths {
		if i >= topN {
			break
		}
		t.AddRowf(p.Campaign, p.Kind, p.Jobs, p.MakespanSeconds,
			p.CriticalPathSeconds, report.Percent(p.CPShare()), p.ChainJobs,
			p.SumWorkSeconds, p.Parallelism)
	}
	return t
}
