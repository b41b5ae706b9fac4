package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/regress"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/telemetry"
	"github.com/tgsim/tgmod/internal/users"
	"github.com/tgsim/tgmod/internal/workload"
)

// testBuild returns a Build function producing a small, fast scenario.
// Every call constructs fresh generators — generators are stateful, so a
// shared slice across concurrent replications would be a data race (and
// the -race run of this test is what proves the fleet holds the rule).
func testBuild(seed uint64) scenario.Config {
	return scenario.New(seed,
		scenario.WithHorizon(2*des.Day),
		scenario.WithDrain(1*des.Day),
		scenario.WithUsers(users.Config{
			Projects: 20, UsersPerProjMu: 0.7, UsersPerProjSd: 0.6, ActivityAlpha: 1.5,
		}),
		scenario.WithGenerators(
			&workload.BatchGen{JobsPerDay: 60, CapabilityFrac: 0.02, MedianRuntime: 3600},
			&workload.EnsembleGen{CampaignsPerDay: 2, JobsPerCampaign: 8, TagCoverage: 0.5, MedianRuntime: 900},
			&workload.GatewayGen{Gateway: "nanohub", RequestsPerDay: 40, EndUsers: 120, MedianRuntime: 300},
			&workload.MetaschedGen{JobsPerDay: 8, CoAllocFrac: 0.05, MedianRuntime: 1800},
		),
	)
}

func runFleet(t *testing.T, parallel int) *Result {
	t.Helper()
	res, err := Run(Spec{
		Reps:        4,
		Parallel:    parallel,
		BaseSeed:    42,
		Build:       testBuild,
		KeepResults: true,
	})
	if err != nil {
		t.Fatalf("fleet (parallel=%d): %v", parallel, err)
	}
	if got := res.Succeeded(); got != 4 {
		t.Fatalf("fleet (parallel=%d): %d/4 reps succeeded", parallel, got)
	}
	return res
}

func exposition(t *testing.T, res *Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Merged.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFleetDeterminism is the PR's core guarantee: a 4-rep fleet run on 4
// workers and the same fleet run sequentially must be indistinguishable —
// byte-identical merged expositions, and an empty regression diff for
// every replication's run dir. Run under -race this also proves the
// replications share no mutable state.
func TestFleetDeterminism(t *testing.T) {
	seq := runFleet(t, 1)
	par := runFleet(t, 4)

	if seq.Workers != 1 || par.Workers != 4 {
		t.Fatalf("workers = %d/%d, want 1/4", seq.Workers, par.Workers)
	}

	seqOM, parOM := exposition(t, seq), exposition(t, par)
	if seqOM != parOM {
		t.Errorf("merged expositions differ between sequential and parallel fleets:\nseq %d bytes, par %d bytes", len(seqOM), len(parOM))
	}
	if !strings.Contains(seqOM, "tg_jobs_finished") {
		t.Errorf("merged exposition is missing expected series; got:\n%.400s", seqOM)
	}

	dir := t.TempDir()
	for i := 0; i < 4; i++ {
		sr, pr := &seq.Reps[i], &par.Reps[i]
		if sr.Seed != pr.Seed {
			t.Fatalf("rep %d: seed %d vs %d", i, sr.Seed, pr.Seed)
		}
		sd := filepath.Join(dir, fmt.Sprintf("seq-%d", i))
		pd := filepath.Join(dir, fmt.Sprintf("par-%d", i))
		if err := regress.WriteRunDir(sd, sr.Registry, nil, sr.Result.Central, nil); err != nil {
			t.Fatal(err)
		}
		if err := regress.WriteRunDir(pd, pr.Registry, nil, pr.Result.Central, nil); err != nil {
			t.Fatal(err)
		}
		sRun, err := regress.LoadRunDir(sd)
		if err != nil {
			t.Fatal(err)
		}
		pRun, err := regress.LoadRunDir(pd)
		if err != nil {
			t.Fatal(err)
		}
		sSeries, err := sRun.Series()
		if err != nil {
			t.Fatal(err)
		}
		pSeries, err := pRun.Series()
		if err != nil {
			t.Fatal(err)
		}
		if d := regress.Diff(sSeries, pSeries, regress.Tolerance{}); !d.Empty() {
			var b bytes.Buffer
			d.WriteText(&b)
			t.Errorf("rep %d (seed %d): sequential vs parallel run dirs differ:\n%s", i, sr.Seed, b.String())
		}
	}

	// The per-rep scalars must agree too.
	for i := 0; i < 4; i++ {
		if seq.Reps[i].Events != par.Reps[i].Events {
			t.Errorf("rep %d: events %d vs %d", i, seq.Reps[i].Events, par.Reps[i].Events)
		}
		if seq.Reps[i].Finished != par.Reps[i].Finished {
			t.Errorf("rep %d: finished %d vs %d", i, seq.Reps[i].Finished, par.Reps[i].Finished)
		}
	}
}

// TestFleetSeedsDiffer guards against accidentally running the same seed
// N times: distinct seeds must produce distinct trajectories.
func TestFleetSeedsDiffer(t *testing.T) {
	res := runFleet(t, 2)
	same := true
	for i := 1; i < len(res.Reps); i++ {
		if res.Reps[i].Events != res.Reps[0].Events || res.Reps[i].Finished != res.Reps[0].Finished {
			same = false
		}
	}
	if same {
		t.Error("all replications produced identical event/job counts; seeds are not being varied")
	}
}

// TestFleetBacklogFailure: a replication whose kernel trips the pending
// limit must fail cleanly with des.ErrEventBacklog, without poisoning the
// rest of the fleet.
func TestFleetBacklogFailure(t *testing.T) {
	res, err := Run(Spec{
		Reps:     2,
		Parallel: 2,
		BaseSeed: 7,
		Build: func(seed uint64) scenario.Config {
			cfg := testBuild(seed)
			if seed == 7 { // first rep only: absurdly small FEL bound
				cfg.EventLimit = 8
			}
			return cfg
		},
	})
	if err == nil {
		t.Fatal("expected fleet error from backlogged replication")
	}
	if !errors.Is(err, des.ErrEventBacklog) {
		t.Fatalf("error does not unwrap to ErrEventBacklog: %v", err)
	}
	if res == nil {
		t.Fatal("partial result should still be returned")
	}
	if res.Reps[0].Err == nil || res.Reps[1].Err != nil {
		t.Fatalf("rep errors: [0]=%v [1]=%v; want only rep 0 failed", res.Reps[0].Err, res.Reps[1].Err)
	}
	if res.Succeeded() != 1 {
		t.Fatalf("Succeeded() = %d, want 1", res.Succeeded())
	}
}

// TestFleetPoisonedSeedReporting: a failed replication must surface in the
// merged summary table as its own row — seed and error visible — while the
// healthy reps still produce statistics, instead of the fleet aborting.
func TestFleetPoisonedSeedReporting(t *testing.T) {
	res, err := Run(Spec{
		Reps:     3,
		Parallel: 3,
		BaseSeed: 7,
		Build: func(seed uint64) scenario.Config {
			cfg := testBuild(seed)
			if seed == 8 { // poison the middle rep
				cfg.EventLimit = 8
			}
			return cfg
		},
	})
	if !errors.Is(err, des.ErrEventBacklog) {
		t.Fatalf("fleet error = %v, want ErrEventBacklog", err)
	}
	if res.Succeeded() != 2 {
		t.Fatalf("Succeeded() = %d, want 2", res.Succeeded())
	}
	sum := res.SummaryTable().String()
	if !strings.Contains(sum, "2 / 3") {
		t.Errorf("summary missing success ratio:\n%s", sum)
	}
	if !strings.Contains(sum, "rep 1 (seed 8)") || !strings.Contains(sum, "FAILED:") {
		t.Errorf("summary table does not report the poisoned seed:\n%s", sum)
	}
	if strings.Contains(sum, "rep 0 (seed 7)") || strings.Contains(sum, "rep 2 (seed 9)") {
		t.Errorf("summary table flags healthy reps as failed:\n%s", sum)
	}
	// The modality table still carries statistics from the healthy reps.
	if mod := res.ModalityTable().String(); !strings.Contains(mod, "±") {
		t.Errorf("modality table lost its CIs with one failed rep:\n%s", mod)
	}
}

// TestFleetInspect: Spec.Inspect extracts per-rep values from the full
// result without KeepResults retaining it.
func TestFleetInspect(t *testing.T) {
	res, err := Run(Spec{
		Reps:     2,
		Parallel: 2,
		BaseSeed: 42,
		Build:    testBuild,
		Inspect: func(seed uint64, r *scenario.Result) any {
			return r.Finished
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Reps {
		rep := &res.Reps[i]
		if rep.Result != nil {
			t.Errorf("rep %d retained its Result without KeepResults", i)
		}
		got, ok := rep.Custom.(int)
		if !ok || got != rep.Finished {
			t.Errorf("rep %d Custom = %v, want Finished=%d", i, rep.Custom, rep.Finished)
		}
	}
}

// TestFleetDone: Spec.Done runs once for each replication, succeeded,
// failed or panicked, before its worker takes the next one.
func TestFleetDone(t *testing.T) {
	var calls []string
	res, err := Run(Spec{
		Reps:     3,
		Parallel: 1,
		BaseSeed: 7,
		Build: func(seed uint64) scenario.Config {
			cfg := testBuild(seed)
			if seed == 8 { // rep 1 fails
				cfg.EventLimit = 8
			}
			return cfg
		},
		Observe: func(rep int, seed uint64, reg *telemetry.Registry) []scenario.Observer {
			calls = append(calls, fmt.Sprintf("observe %d", rep))
			if rep == 2 {
				return []scenario.Observer{scenario.ObserverFunc(func(*scenario.Attachment) { panic("rep 2") })}
			}
			return nil
		},
		Done: func(rep int) { calls = append(calls, fmt.Sprintf("done %d", rep)) },
	})
	if err == nil || res.Reps[0].Err != nil || res.Reps[1].Err == nil || res.Reps[2].Err == nil {
		t.Fatalf("fleet error %v; want reps 1 and 2 failed, rep 0 ok", err)
	}
	want := "observe 0,done 0,observe 1,done 1,observe 2,done 2"
	if got := strings.Join(calls, ","); got != want {
		t.Errorf("calls = %s, want %s", got, want)
	}
}

// TestFleetSpecValidation covers the defaults and the required Build.
func TestFleetSpecValidation(t *testing.T) {
	if _, err := Run(Spec{Reps: 1}); err == nil {
		t.Error("Run without Build should fail")
	}
	res, err := Run(Spec{Reps: 0, Parallel: 99, BaseSeed: 5, Build: testBuild})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reps) != 1 || res.Workers != 1 {
		t.Errorf("reps=%d workers=%d, want 1/1 (workers capped at reps)", len(res.Reps), res.Workers)
	}
}

func TestStatSummarize(t *testing.T) {
	s := Summarize([]float64{10, 12, 14, 16})
	if s.N != 4 || s.Mean != 13 {
		t.Fatalf("N=%d Mean=%g, want 4/13", s.N, s.Mean)
	}
	// stddev = sqrt(20/3) ≈ 2.582; t(3) = 3.182 → CI ≈ 3.182*2.582/2 ≈ 4.108
	if s.CI95 < 4.0 || s.CI95 > 4.2 {
		t.Errorf("CI95 = %g, want ≈4.11", s.CI95)
	}
	one := Summarize([]float64{5})
	if one.CI95 != 0 || one.Mean != 5 {
		t.Errorf("single sample: Mean=%g CI95=%g, want 5/0", one.Mean, one.CI95)
	}
}

func TestFleetTables(t *testing.T) {
	res := runFleet(t, 2)
	sum := res.SummaryTable().String()
	if !strings.Contains(sum, "replications ok") || !strings.Contains(sum, "4 / 4") {
		t.Errorf("summary table missing fleet status:\n%s", sum)
	}
	mod := res.ModalityTable().String()
	if !strings.Contains(mod, "±") {
		t.Errorf("modality table has no confidence intervals:\n%s", mod)
	}
	mech := res.MechanismTable().String()
	if !strings.Contains(mech, "gateway") {
		t.Errorf("mechanism table missing gateway row:\n%s", mech)
	}
}
