// Package fleet runs replication fleets: N same-scenario, different-seed
// replications executed across parallel workers, merged deterministically
// into cross-replication statistics.
//
// One seeded run of the simulator yields point estimates; the modality
// shares, recovered-user counts, and service-quality figures the analysis
// reports are all functions of one pseudorandom draw. A fleet turns them
// into interval estimates — mean, standard deviation, and 95% confidence
// bounds over independent seeds — which is what makes simulator-backed
// claims defensible.
//
// The design exploits the des kernel's isolation guarantee: each
// replication gets its own Kernel, its own simrand streams derived from
// its own seed, and its own private telemetry registry, so replications
// share no mutable state and run on plain goroutines with no locks in the
// simulation path. Determinism is preserved by construction: results are
// collected by replication index and merged in seed order after all
// workers finish, so the merged OpenMetrics exposition and every
// statistic are byte-identical whether the fleet ran on one worker or
// sixteen.
package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// Spec describes a fleet: how many replications, how wide to run them,
// and how to build each replication's scenario.
type Spec struct {
	// Reps is the number of replications; values below 1 are treated as 1.
	Reps int
	// Parallel is the worker count; 0 or less means GOMAXPROCS. Workers
	// never exceed Reps.
	Parallel int
	// BaseSeed seeds the fleet: replication i runs with seed BaseSeed+i.
	// The simulator derives all of a run's streams from its seed by name,
	// so consecutive seeds give independent replications.
	BaseSeed uint64
	// Build constructs the scenario for one replication. It MUST return a
	// config private to that replication — workload generators are
	// stateful, so sharing a Generators slice (or any other mutable
	// pointer) across replications is a data race. Build receives the
	// replication's seed; the fleet also forces cfg.Seed to it, so a Build
	// that ignores the argument still gets per-seed behavior.
	//
	// The fleet attaches its own private telemetry registry to every
	// replication (appended last, so it wins the attachment's
	// last-writer rule); Build should not attach one.
	Build func(seed uint64) scenario.Config
	// Classify configures the modality classifier applied to each
	// replication. A zero LargestCores is filled from the replication's
	// federation.
	Classify core.Config
	// KeepResults retains each replication's full *scenario.Result
	// (kernel, accounting database, schedulers — hundreds of MB at full
	// scale). Off by default: per-rep reports and registries are kept,
	// the heavyweight state is released as soon as a rep is classified.
	KeepResults bool
	// Inspect, when non-nil, runs on each successful replication's full
	// result before the heavyweight state is released; its return value is
	// kept in Rep.Custom. Experiments use it to extract small per-rep
	// scalars (fault stats, goodput) without paying for KeepResults.
	// Inspect runs on the worker goroutine and must not touch shared state.
	Inspect func(seed uint64, res *scenario.Result) any
	// Observe, when non-nil, supplies extra per-replication observers —
	// live progress taps, observatory pushers. It runs on the worker
	// goroutine before the replication starts; the observers it returns
	// are attached before the fleet's own LiveTelemetry registry (which
	// must stay last to win the attachment's last-writer rule). reg is
	// the replication's private registry. Observers must mount only on
	// zero-perturbation seams so fleets stay byte-identical with or
	// without observation.
	Observe func(rep int, seed uint64, reg *telemetry.Registry) []scenario.Observer
	// Done, when non-nil, runs on the worker goroutine once replication
	// rep has ended, whether it succeeded, failed or panicked after its
	// scenario was built, and before the worker takes its next one: the
	// point to finish what Observe started, so a replication's pusher
	// closes with its run rather than with the fleet.
	Done func(rep int)
}

// Rep is the outcome of one replication.
type Rep struct {
	Index int
	Seed  uint64
	// Result is the full simulation result; nil unless Spec.KeepResults.
	Result *scenario.Result
	// Registry is the replication's private telemetry registry.
	Registry *telemetry.Registry
	// Report is the classified per-modality usage report.
	Report *core.Report
	// Mechanisms is the per-submission-mechanism usage breakdown.
	Mechanisms []core.MechanismRow
	// Finished counts jobs that reached a terminal state.
	Finished int
	// Events is the kernel event count; PeakFEL the future-event-list
	// high-water mark; Wall the replication's wall-clock seconds.
	Events  uint64
	PeakFEL int
	Wall    float64
	// Custom holds Spec.Inspect's return value (nil without Inspect).
	Custom any
	// Err is the replication's failure, if any (a panicking replication
	// is captured here too, so one bad seed cannot take down the fleet).
	Err error
}

// Result is a finished fleet.
type Result struct {
	Spec Spec
	// Workers is the resolved parallel width the fleet actually used.
	Workers int
	// Reps holds every replication in seed order.
	Reps []Rep
	// Merged is the seed-order merge of all successful replications'
	// registries; counters and histograms sum, gauges sum (divide by
	// Succeeded() for a mean).
	Merged *telemetry.Registry
	// Wall is the fleet's total wall-clock seconds, launch to merge.
	Wall float64
}

// Run executes the fleet described by spec.
//
// All replications are attempted even when some fail; a non-nil error
// (joining every per-rep failure, matchable with errors.Is — e.g.
// des.ErrEventBacklog) is returned alongside the partial Result.
func Run(spec Spec) (*Result, error) {
	if spec.Build == nil {
		return nil, errors.New("fleet: Spec.Build is required")
	}
	reps := spec.Reps
	if reps < 1 {
		reps = 1
	}
	workers := spec.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > reps {
		workers = reps
	}

	start := time.Now()
	out := make([]Rep, reps)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				runRep(&spec, i, &out[i])
			}
		}()
	}
	for i := 0; i < reps; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()

	// Merge in seed order, on this goroutine, after every worker is done:
	// the float64 additions happen in one fixed sequence regardless of how
	// the reps were scheduled, which is what makes parallel and sequential
	// fleets byte-identical.
	res := &Result{Spec: spec, Workers: workers, Reps: out}
	merged := telemetry.New()
	var errs []error
	for i := range out {
		if out[i].Err != nil {
			errs = append(errs, fmt.Errorf("fleet: rep %d (seed %d): %w", i, out[i].Seed, out[i].Err))
			continue
		}
		merged.Merge(out[i].Registry)
	}
	res.Merged = merged
	res.Wall = time.Since(start).Seconds()
	return res, errors.Join(errs...)
}

// runRep executes replication i into *rep, converting panics to errors so
// a single bad seed reports cleanly instead of crashing the fleet.
func runRep(spec *Spec, i int, rep *Rep) {
	rep.Index = i
	rep.Seed = spec.BaseSeed + uint64(i)
	defer func() {
		if r := recover(); r != nil {
			rep.Err = fmt.Errorf("replication panicked: %v", r)
		}
	}()

	cfg := spec.Build(rep.Seed)
	cfg.Seed = rep.Seed
	reg := telemetry.New()
	if spec.Done != nil {
		defer spec.Done(i)
	}
	if spec.Observe != nil {
		cfg.Observers = append(cfg.Observers, spec.Observe(i, rep.Seed, reg)...)
	}
	cfg.Observers = append(cfg.Observers, scenario.LiveTelemetry(reg))

	start := time.Now()
	res, err := scenario.Run(cfg)
	rep.Wall = time.Since(start).Seconds()
	if err != nil {
		rep.Err = err
		return
	}

	rep.Registry = reg
	rep.Finished = res.Finished
	rep.Events = res.Kernel.Executed()
	rep.PeakFEL = res.Kernel.MaxPending()

	ccfg := spec.Classify
	if ccfg.LargestCores == 0 {
		ccfg.LargestCores = res.LargestCores
	}
	cl := core.NewClassifier(ccfg)
	rep.Report = core.BuildReport(res.Central, cl.Classify(res.Central))
	rep.Mechanisms = core.MechanismReport(res.Central)
	if spec.Inspect != nil {
		rep.Custom = spec.Inspect(rep.Seed, res)
	}
	if spec.KeepResults {
		rep.Result = res
	}
}

// Succeeded returns the number of replications that completed without error.
func (r *Result) Succeeded() int {
	n := 0
	for i := range r.Reps {
		if r.Reps[i].Err == nil {
			n++
		}
	}
	return n
}

// TotalEvents sums kernel events across successful replications.
func (r *Result) TotalEvents() uint64 {
	var n uint64
	for i := range r.Reps {
		if r.Reps[i].Err == nil {
			n += r.Reps[i].Events
		}
	}
	return n
}

// EventsPerSec is the fleet's aggregate throughput: total kernel events
// executed divided by total wall-clock time. With W workers and
// negligible merge cost this approaches W times the single-replication
// rate — the fleet-scaling figure benchtab's FL experiment reports.
func (r *Result) EventsPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.TotalEvents()) / r.Wall
}
