package analysis

import (
	"math"
	"testing"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/obs"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/users"
	"github.com/tgsim/tgmod/internal/workload"
)

// crossValConfig is a one-week scenario at reduced rates with enough
// urgent traffic to exercise preemption requeues.
func crossValConfig(seed uint64) scenario.Config {
	cfg := scenario.DefaultConfig(seed)
	cfg.Horizon = 7 * des.Day
	cfg.DrainTime = 3 * des.Day
	cfg.Users = users.Config{Projects: 40, UsersPerProjMu: 0.7, UsersPerProjSd: 0.6, ActivityAlpha: 1.5}
	cfg.Generators = []workload.Generator{
		&workload.BatchGen{JobsPerDay: 120, CapabilityFrac: 0.02, MedianRuntime: 3600},
		&workload.EnsembleGen{CampaignsPerDay: 4, JobsPerCampaign: 10, TagCoverage: 0.5, MedianRuntime: 900},
		&workload.WorkflowGen{CampaignsPerDay: 3, TaggedFrac: 0.5, Workers: 4, MedianTask: 600},
		&workload.GatewayGen{Gateway: "nanohub", RequestsPerDay: 80, EndUsers: 300, MedianRuntime: 300},
		&workload.UrgentGen{EventsPerWeek: 6, MedianRuntime: 1800},
		&workload.InteractiveGen{SessionsPerDay: 12, MedianSession: 1200},
		&workload.DataCentricGen{JobsPerDay: 8, MedianInputGB: 20, MedianRuntime: 1800},
	}
	return cfg
}

// TestWaitDecompositionMatchesAccounting is the layer's ground-truth
// anchor: waits reconstructed from the event stream must agree with the
// accounting database — an entirely independent pipeline — to the
// millisecond, per job and in per-modality sums.
func TestWaitDecompositionMatchesAccounting(t *testing.T) {
	const tolerance = 1e-3 // one millisecond of virtual time

	cfg := crossValConfig(41)
	buf := obs.NewBuffer()
	cfg.Observers = []scenario.Observer{scenario.RecordSpans(buf)}
	res, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := Reconstruct(buf.Events())
	if err != nil {
		t.Fatal(err)
	}

	recs := res.Central.Jobs()
	if len(recs) < 500 {
		t.Fatalf("only %d accounting records; scenario too thin to validate", len(recs))
	}

	type sums struct{ analysis, accounting float64 }
	byMod := make(map[string]*sums)
	validated, preempted := 0, 0
	for _, r := range recs {
		tl := ts.Job(r.JobID)
		if tl == nil {
			t.Fatalf("job %d has an accounting record but no timeline", r.JobID)
		}
		if !tl.Complete() {
			t.Fatalf("job %d finished in accounting but its timeline is incomplete", r.JobID)
		}
		// The final start and end must match the record exactly for every
		// finished job, preempted or not.
		if d := math.Abs(float64(tl.LastStart()) - r.StartTime); d > tolerance {
			t.Fatalf("job %d: reconstructed last start %v vs record %v (Δ %v)",
				r.JobID, float64(tl.LastStart()), r.StartTime, d)
		}
		if d := math.Abs(float64(tl.End()) - r.EndTime); d > tolerance {
			t.Fatalf("job %d: reconstructed end %v vs record %v (Δ %v)",
				r.JobID, float64(tl.End()), r.EndTime, d)
		}
		if r.Preemptions > 0 {
			// Accounting's wait is last-start − submit; the timeline splits
			// that across requeues, so the whole-path identity is checked
			// instead: first-wait + requeues + lost runs = last-start − submit.
			preempted++
			path := float64(tl.FirstWait() + tl.RequeueWait() + tl.LostRun())
			if d := math.Abs(path - (r.StartTime - r.SubmitTime)); d > tolerance {
				t.Fatalf("job %d: pre-run path %v vs accounting %v (Δ %v)",
					r.JobID, path, r.StartTime-r.SubmitTime, d)
			}
			continue
		}
		validated++
		mod := res.Central.Syms().Str(r.TruthModality)
		if mod == "" {
			mod = string(job.ModUnknown)
		}
		s := byMod[mod]
		if s == nil {
			s = &sums{}
			byMod[mod] = s
		}
		s.analysis += float64(tl.FirstWait())
		s.accounting += r.WaitSeconds()
	}
	if validated == 0 {
		t.Fatal("no unpreempted jobs to validate")
	}
	if preempted == 0 {
		t.Log("warning: no preempted jobs in this seed; requeue path unexercised")
	}
	for mod, s := range byMod {
		if d := math.Abs(s.analysis - s.accounting); d > tolerance {
			t.Errorf("modality %s: analysis wait sum %v vs accounting %v (Δ %v)",
				mod, s.analysis, s.accounting, d)
		}
	}

	// Decomposition internal identity over everything aggregated.
	for _, d := range Decompose(ts) {
		sum := d.WaitSeconds + d.RequeueWaitSeconds + d.LostRunSeconds + d.RunSeconds
		if diff := math.Abs(sum - d.EndToEndSeconds); diff > tolerance {
			t.Errorf("modality %s: components %v != end-to-end %v", d.Modality, sum, d.EndToEndSeconds)
		}
	}

	// Every timeline that completed must have an accounting record too.
	complete := 0
	for _, tl := range ts.Jobs {
		if tl.Complete() {
			complete++
		}
	}
	if complete != len(recs) {
		t.Errorf("%d complete timelines vs %d accounting records", complete, len(recs))
	}
}
