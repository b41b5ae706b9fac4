//go:build !race

package scenario_test

import (
	"runtime"
	"testing"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/experiments"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/obs"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/slo"
	"github.com/tgsim/tgmod/internal/stream"
	"github.com/tgsim/tgmod/internal/telemetry"
	"github.com/tgsim/tgmod/internal/workload"
)

// TestQuickRunAllocBudget is the tier-1 allocation budget of quick seed 7
// (14,210 events, 5,129 jobs): heap bytes and allocations per finished job
// for a bare run, a run with the stream tap, a run whose packets are then
// ingested into a fresh database, classified and reported, and a run with
// each other observer attached alone (spans, the hourly sampler, the
// telemetry registry, the SLO evaluator), which prices it. Allocation
// counts repeat to within map-growth noise, so each ceiling sits a little
// above the measured value: a change that allocates more per job must
// raise its ceiling on purpose. The race build allocates more, and leaves
// the test out.
func TestQuickRunAllocBudget(t *testing.T) {
	fed, err := scenario.TG9()
	if err != nil {
		t.Fatal(err)
	}
	largest := 0
	for _, m := range fed.Machines() {
		largest = max(largest, m.BatchCores())
	}
	attach := func(o scenario.Observer) func(*testing.T, scenario.Config) *scenario.Result {
		return func(t *testing.T, cfg scenario.Config) *scenario.Result {
			cfg.Observers = append(cfg.Observers, o)
			return run(t, cfg)
		}
	}
	sloEv, err := slo.New()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		events        uint64  // kernel events: the sampler's ticks add to the run's 14,210
		bytes, allocs float64 // ceilings per finished job
		run           func(t *testing.T, cfg scenario.Config) *scenario.Result
	}{
		{"bare", 14210, 485, 1.85, run},
		{"stream tap", 14210, 565, 2.35, func(t *testing.T, cfg scenario.Config) *scenario.Result {
			proc := stream.New(stream.Config{LargestCores: largest})
			cfg.Observers = append(cfg.Observers, stream.Tap(proc))
			res := run(t, cfg)
			proc.Advance(cfg.Horizon + cfg.DrainTime)
			return res
		}},
		{"ingest classify report", 14210, 548, 1.87, func(t *testing.T, cfg scenario.Config) *scenario.Result {
			var packets []*accounting.Packet
			cfg.Observers = append(cfg.Observers, scenario.TapPackets(func(_ des.Time, p *accounting.Packet) {
				packets = append(packets, p)
			}))
			res := run(t, cfg)
			c := accounting.NewCentral(res.Central.Syms())
			for _, p := range packets {
				if err := c.Ingest(p); err != nil {
					t.Fatal(err)
				}
			}
			rep := core.BuildReport(c, core.NewClassifier(core.Config{LargestCores: res.LargestCores}).Classify(c))
			if rep.TotalNUs != res.Central.TotalNUs() {
				t.Fatalf("report NUs %v, central %v", rep.TotalNUs, res.Central.TotalNUs())
			}
			return res
		}},
		{"spans", 14210, 2710, 10.90, attach(scenario.RecordSpans(obs.NewBuffer()))},
		{"sampler 1h", 14642, 665, 2.55, attach(scenario.SampleEvery(des.Hour))},
		{"telemetry registry", 14210, 520, 2.05, attach(scenario.LiveTelemetry(telemetry.New()))},
		{"SLO evaluator", 14210, 485, 1.85, attach(scenario.EvaluateSLO(sloEv))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res := tc.run(t, experiments.StandardConfig(7, experiments.Quick))
			runtime.ReadMemStats(&after)
			if ev := res.Kernel.Executed(); ev != tc.events || res.Finished != 5129 || res.Central.Len() != 5129 {
				t.Fatalf("events/jobs = %d/%d, want %d/5129", ev, res.Finished, tc.events)
			}
			jobs := float64(res.Finished)
			b := float64(after.TotalAlloc-before.TotalAlloc) / jobs
			a := float64(after.Mallocs-before.Mallocs) / jobs
			t.Logf("%.1f B/job, %.2f allocs/job", b, a)
			if b > tc.bytes || a > tc.allocs {
				t.Errorf("%.1f B/job and %.2f allocs/job, budget %.0f and %.2f", b, a, tc.bytes, tc.allocs)
			}
		})
	}
}

func run(t *testing.T, cfg scenario.Config) *scenario.Result {
	t.Helper()
	res, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// poolProbe is a generator that makes no work: it keeps the run's job
// pool so a test can read it after the run.
type poolProbe struct{ jobs *job.Pool }

func (*poolProbe) Name() string { return "pool-probe" }

func (p *poolProbe) Start(e *workload.Env) { p.jobs = e.Jobs }

// TestQuickRunJobPool pins job reuse at quick seed 7: every job goes back
// to the run's pool at its terminal event, so the run allocates as many
// job objects as are ever out of the pool at once (69), not one per job
// (5,129).
func TestQuickRunJobPool(t *testing.T) {
	probe := &poolProbe{}
	cfg := experiments.StandardConfig(7, experiments.Quick)
	cfg.Generators = append(cfg.Generators, probe)
	res := run(t, cfg)
	if res.Finished != 5129 {
		t.Fatalf("jobs = %d, want 5129", res.Finished)
	}
	made := probe.jobs.Made()
	t.Logf("%d job objects for %d jobs", made, res.Finished)
	if made > 100 {
		t.Errorf("%d job objects made for %d jobs, want at most 100", made, res.Finished)
	}
}
