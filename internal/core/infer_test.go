package core

import (
	"fmt"
	"testing"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/job"
)

// Boundary cases of the two inference rules, at the default thresholds:
// EnsembleMinJobs 5, EnsembleWindow 3600 s, ChainMinLinks 3, ChainSlack 300 s.

// sweep returns n untagged jobs of one (user, name, cores) group, IDs from
// id0, submitted gap seconds apart from t0.
func sweep(id0 int64, user, name string, cores, n int, t0, gap float64) []accounting.JobRecord {
	var out []accounting.JobRecord
	for i := 0; i < n; i++ {
		submit := t0 + float64(i)*gap
		out = append(out, rec(id0+int64(i), func(r *accounting.JobRecord) {
			r.User, r.Name, r.Cores = sym(user), sym(name), cores
			r.SubmitTime, r.StartTime, r.EndTime = submit, submit+10, submit+510
		}))
	}
	return out
}

// chain returns len(gaps)+1 untagged jobs of one user, each 600 s long and
// named apart so ensemble inference cannot claim them; job k+1 is submitted
// gaps[k] seconds after job k ends.
func chain(id0 int64, user string, t0 float64, gaps ...float64) []accounting.JobRecord {
	var out []accounting.JobRecord
	submit := t0
	for i := 0; i <= len(gaps); i++ {
		s, k := submit, i
		out = append(out, rec(id0+int64(i), func(r *accounting.JobRecord) {
			r.User, r.Name = sym(user), sym(fmt.Sprintf("stage-%d", k))
			r.SubmitTime, r.StartTime, r.EndTime = s, s, s+600
		}))
		if i < len(gaps) {
			submit = s + 600 + gaps[i]
		}
	}
	return out
}

func TestEnsembleGapEqualToWindowStaysInBurst(t *testing.T) {
	res := classify(t, central(t, sweep(1, "u1", "sweep", 4, 5, 0, 3600), nil, nil))
	for i, r := range res {
		if r.Rule.Modality() != job.ModEnsemble || r.CampaignID(testSyms) != "inf-ens-00001" {
			t.Errorf("job %d: %q in %q, want ensemble inf-ens-00001", i+1, r.Rule.Modality(), r.CampaignID(testSyms))
		}
	}
	// One second more splits the group into bursts too small to count.
	res = classify(t, central(t, sweep(1, "u1", "sweep", 4, 5, 0, 3601), nil, nil))
	for i, r := range res {
		if r.Rule.Modality() == job.ModEnsemble {
			t.Errorf("job %d 3601 s from its neighbours inferred as ensemble", i+1)
		}
	}
}

func TestEnsembleNeedsMinJobs(t *testing.T) {
	res := classify(t, central(t, sweep(1, "u1", "sweep", 4, 4, 0, 60), nil, nil))
	for i, r := range res {
		if r.Rule.Modality() == job.ModEnsemble {
			t.Errorf("job %d of a 4-job group inferred as ensemble", i+1)
		}
	}
}

func TestChainGapBoundaries(t *testing.T) {
	jobs := chain(1, "linked", 0, 0, 300)                // gaps of exactly 0 and ChainSlack
	jobs = append(jobs, chain(10, "late", 0, 301, 0)...) // one second too late
	jobs = append(jobs, chain(20, "early", 0, -1, 0)...) // submitted before the predecessor ended
	res := classify(t, central(t, jobs, nil, nil))
	for i, r := range res {
		linked := i < 3
		if got := r.Rule.Modality() == job.ModWorkflow; got != linked {
			t.Errorf("job %d: workflow=%v, want %v", r.JobID, got, linked)
		}
		if linked && r.CampaignID(testSyms) != "inf-wf-00001" {
			t.Errorf("job %d in %q, want inf-wf-00001", r.JobID, r.CampaignID(testSyms))
		}
	}
}

func TestEnsembleGroupsNumberedInCoreOrder(t *testing.T) {
	// The 8-core group is submitted first and has the lower job IDs, but
	// groups of one user and name are numbered by core count.
	jobs := sweep(1, "u1", "sweep", 8, 5, 0, 60)
	jobs = append(jobs, sweep(100, "u1", "sweep", 4, 5, 86400, 60)...)
	res := classify(t, central(t, jobs, nil, nil))
	for i, r := range res {
		want := "inf-ens-00002"
		if i >= 5 {
			want = "inf-ens-00001"
		}
		if r.CampaignID(testSyms) != want {
			t.Errorf("job %d (%d cores) in %q, want %q", r.JobID, jobs[i].Cores, r.CampaignID(testSyms), want)
		}
	}
}

func TestInferredIDsFollowStringOrder(t *testing.T) {
	// A table that meets "zed" before "amy": campaign numbering must follow
	// the names, not the Syms.
	syms := job.NewSymbols()
	zed, amy := syms.Intern("zed"), syms.Intern("amy")
	mk := func(id int64, user job.Sym, name string, submit float64) accounting.JobRecord {
		return accounting.JobRecord{JobID: id, User: user, Name: syms.Intern(name), Cores: 4,
			SubmitTime: submit, StartTime: submit, EndTime: submit + 600, NUs: 1}
	}
	var jobs []accounting.JobRecord
	for i := 0; i < 5; i++ { // a burst each
		jobs = append(jobs, mk(int64(1+i), zed, "sweep", float64(i)*60))
		jobs = append(jobs, mk(int64(11+i), amy, "sweep", 1e6+float64(i)*60))
	}
	for i := 0; i < 3; i++ { // a chain each
		jobs = append(jobs, mk(int64(21+i), zed, fmt.Sprintf("stage-%d", i), 2e6+float64(i)*660))
		jobs = append(jobs, mk(int64(31+i), amy, fmt.Sprintf("stage-%d", i), 3e6+float64(i)*660))
	}
	c := accounting.NewCentral(syms)
	if err := c.Ingest(&accounting.Packet{Site: "s", Seq: 1, Jobs: jobs, Syms: syms}); err != nil {
		t.Fatal(err)
	}
	want := map[job.Sym][2]string{
		amy: {"inf-ens-00001", "inf-wf-00001"},
		zed: {"inf-ens-00002", "inf-wf-00002"},
	}
	for i, r := range NewClassifier(Config{LargestCores: 1024}).Classify(c) {
		w := want[jobs[i].User][0]
		if r.JobID > 20 {
			w = want[jobs[i].User][1]
		}
		if r.Rule.Source() != SourceInference || r.CampaignID(syms) != w {
			t.Errorf("job %d of %s: %s in %q, want %q", r.JobID, syms.Str(jobs[i].User),
				r.Rule, r.CampaignID(syms), w)
		}
	}
}
