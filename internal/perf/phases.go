// Package perf is the simulator's performance observatory: where does the
// *simulator's own* wall-clock time go?
//
// The package has two legs. Phase attribution (this file) rides the
// kernel's tracer seam and splits the per-event-name cost across kernel
// phases — future-event-list operations, handler execution, accounting
// flush/encode/ingest, and post-run classification. Runtime sampling
// (runtime.go) publishes Go runtime state (heap, GC, goroutines,
// throughput) as the wall-clock-only tg_runtime_* telemetry family, kept in
// a registry separate from the deterministic tg_* families so it can never
// reach exported run artifacts or determinism diffs. Performance across
// commits is measured elsewhere: bench/tgbench compares builds, and the
// root BenchmarkStandardKernel holds the kernel throughput floor.
//
// Everything here is wall-clock measurement of the host process. Nothing
// consumes simulation randomness, schedules kernel events, or mutates
// simulation state, so a profiled run stays byte-identical to a plain run
// with the same seed.
package perf

import (
	"fmt"
	"sort"
	"time"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/report"
)

// Phase identifies one bucket of the simulator's own wall-clock cost.
type Phase int

// The kernel cost phases, in reporting order.
const (
	// PhaseSetup is work outside the event loop proper: future-event-list
	// operations performed before the first event fires (scenario assembly
	// schedules thousands of initial events) or between runs.
	PhaseSetup Phase = iota
	// PhaseFEL is future-event-list cost: heap pops leading into each event
	// (including tracer dispatch on the way) plus every timed heap push or
	// remove a handler performs.
	PhaseFEL
	// PhaseHandler is event-handler execution with FEL operations
	// subtracted — the simulation model's own cost.
	PhaseHandler
	// PhaseAccounting is the accounting pipeline: ledger flush, wire
	// encode, and central ingest, marked as regions by the scenario.
	PhaseAccounting
	// PhaseClassify is post-run modality classification and report
	// assembly, marked as regions by the callers that run them.
	PhaseClassify
	numPhases
)

// String returns the phase's report label.
func (p Phase) String() string {
	switch p {
	case PhaseSetup:
		return "setup"
	case PhaseFEL:
		return "fel"
	case PhaseHandler:
		return "handler"
	case PhaseAccounting:
		return "accounting"
	case PhaseClassify:
		return "classify"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// phaseStat accumulates one event name's split cost.
type phaseStat struct {
	count   uint64
	fel     time.Duration
	handler time.Duration
}

// Profiler is the phase-attribution profiler. It implements des.Tracer,
// des.StepObserver and des.OpProfiler, so the kernel feeds it every event
// boundary plus the timing of its own heap operations, and it reports
// throughput and the FEL high-water mark alongside the phase split. Attach
// it on the tracer seam (scenario.ProfilePhases, or Kernel.AddTracer for a
// bare kernel).
//
// The attribution model: for event i, the window from the previous
// AfterEvent to this Event is FEL/dispatch cost (heap pop plus tracer
// fan-out); the Event→AfterEvent window minus any timed in-handler heap
// operations is handler cost; the in-handler heap operations themselves are
// FEL cost. Summing fel+handler over all events therefore telescopes to
// exactly the first-event→last-event wall span — WallSeconds() — which the
// phase tests assert within tolerance. Heap operations outside any handler
// are Setup and excluded from that identity (they precede the first event).
//
// Like the kernel itself, a Profiler is single-goroutine: it must only be
// touched from the goroutine running the kernel.
type Profiler struct {
	k      *des.Kernel
	phases [numPhases]time.Duration
	byName map[string]*phaseStat

	events    uint64    // completed events
	wallStart time.Time // first event's Event-callback stamp

	evStart    time.Time     // this event's Event-callback stamp
	lastAfter  time.Time     // previous event's AfterEvent stamp
	felPop     time.Duration // pop/dispatch window leading into this event
	handlerFEL time.Duration // timed heap ops inside the current handler
	inHandler  bool
	curStat    *phaseStat
	curName    string
}

// New returns a phase profiler for kernel k. A nil kernel is allowed —
// scenario observers are built before the kernel exists; scenario.Run
// binds it (Bind) during assembly.
func New(k *des.Kernel) *Profiler {
	return &Profiler{k: k, byName: make(map[string]*phaseStat)}
}

// Bind attaches (or replaces) the kernel, for profilers constructed before
// the kernel existed.
func (p *Profiler) Bind(k *des.Kernel) { p.k = k }

// BeforeStep implements des.OpProfiler. The FEL window is measured from the
// previous AfterEvent (so kernel loop overhead lands in PhaseFEL too);
// BeforeStep only seeds the window when no event has completed yet.
func (p *Profiler) BeforeStep() {
	if p.lastAfter.IsZero() {
		p.lastAfter = time.Now()
	}
}

// FELOp implements des.OpProfiler: a timed heap push or remove. Inside a
// handler it is deferred handler-window rent (subtracted in AfterEvent);
// outside any handler it is setup cost.
func (p *Profiler) FELOp(d time.Duration) {
	if p.inHandler {
		p.handlerFEL += d
		return
	}
	p.phases[PhaseSetup] += d
}

// Event implements des.Tracer: close the FEL window, open the handler one.
func (p *Profiler) Event(at des.Time, name string) {
	now := time.Now()
	if p.events == 0 {
		p.wallStart = now
		p.felPop = 0
	} else {
		p.felPop = now.Sub(p.lastAfter)
	}
	p.handlerFEL = 0
	p.inHandler = true
	if p.curStat == nil || p.curName != name {
		st := p.byName[name]
		if st == nil {
			st = &phaseStat{}
			p.byName[name] = st
		}
		p.curStat, p.curName = st, name
	}
	p.evStart = now
}

// AfterEvent implements des.StepObserver: charge the closed windows.
func (p *Profiler) AfterEvent(at des.Time, name string, pending int) {
	now := time.Now()
	p.events++
	h := now.Sub(p.evStart) - p.handlerFEL
	if h < 0 {
		h = 0
	}
	fel := p.felPop + p.handlerFEL
	p.curStat.count++
	p.curStat.handler += h
	p.curStat.fel += fel
	p.phases[PhaseHandler] += h
	p.phases[PhaseFEL] += fel
	p.inHandler = false
	p.lastAfter = now
}

// Events returns the number of profiled events.
func (p *Profiler) Events() uint64 { return p.events }

// WallSeconds returns the wall-clock span from the first profiled event's
// start to the last one's end.
func (p *Profiler) WallSeconds() float64 {
	if p.events == 0 {
		return 0
	}
	return p.lastAfter.Sub(p.wallStart).Seconds()
}

// EventsPerSec returns the wall-clock event throughput.
func (p *Profiler) EventsPerSec() float64 {
	w := p.WallSeconds()
	if w <= 0 {
		return 0
	}
	return float64(p.events) / w
}

// FELHighWater returns the kernel's future-event-list high-water mark, the
// largest number of simultaneously pending events (0 before Bind).
func (p *Profiler) FELHighWater() int {
	if p.k == nil {
		return 0
	}
	return p.k.MaxPending()
}

// Summary returns the one-line profile header.
func (p *Profiler) Summary() string {
	return fmt.Sprintf("kernel: %d events in %.3fs wall (%s events/s), FEL high-water %s",
		p.events, p.WallSeconds(),
		report.FormatFloat(p.EventsPerSec()), report.GroupInt(int64(p.FELHighWater())))
}

// Region opens a wall-clock region charged to ph and returns its closer:
//
//	defer p.Region(perf.PhaseAccounting)()
//
// Nil-safe: on a nil profiler both the call and the closer are no-ops, so
// un-instrumented call sites need no guards.
func (p *Profiler) Region(ph Phase) func() {
	if p == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { p.phases[ph] += time.Since(t0) }
}

// PhaseSeconds returns the accumulated wall seconds charged to ph (0 on a
// nil profiler).
func (p *Profiler) PhaseSeconds(ph Phase) float64 {
	if p == nil || ph < 0 || ph >= numPhases {
		return 0
	}
	return p.phases[ph].Seconds()
}

// LoopSeconds returns the event-loop phase sum (FEL + handler) — the
// quantity that matches WallSeconds() within measurement tolerance.
func (p *Profiler) LoopSeconds() float64 {
	return (p.phases[PhaseFEL] + p.phases[PhaseHandler]).Seconds()
}

// PhaseTable renders the phase totals, with each phase's share of the
// total attributed wall time.
func (p *Profiler) PhaseTable() *report.Table {
	t := report.NewTable("Kernel phase attribution (wall clock)",
		"phase", "wall ms", "share")
	var total time.Duration
	for _, d := range p.phases {
		total += d
	}
	for ph := Phase(0); ph < numPhases; ph++ {
		share := 0.0
		if total > 0 {
			share = float64(p.phases[ph]) / float64(total)
		}
		t.AddRowf(ph.String(), fmt.Sprintf("%.2f", float64(p.phases[ph])/1e6),
			report.Percent(share))
	}
	t.AddRowf("TOTAL", fmt.Sprintf("%.2f", float64(total)/1e6), "")
	return t
}

// BreakdownTable renders the per-event-name handler/FEL split, heaviest
// first, with a trailing TOTAL row.
func (p *Profiler) BreakdownTable() *report.Table {
	t := report.NewTable("Per-event phase breakdown (wall clock)",
		"event", "count", "handler ms", "fel ms", "share")
	names := make([]string, 0, len(p.byName))
	var total time.Duration
	for n, st := range p.byName {
		names = append(names, n)
		total += st.handler + st.fel
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := p.byName[names[i]], p.byName[names[j]]
		wa, wb := a.handler+a.fel, b.handler+b.fel
		if wa != wb {
			return wa > wb
		}
		return names[i] < names[j]
	})
	var events uint64
	for _, n := range names {
		st := p.byName[n]
		events += st.count
		label := n
		if label == "" {
			label = "(anonymous)"
		}
		share := 0.0
		if total > 0 {
			share = float64(st.handler+st.fel) / float64(total)
		}
		t.AddRowf(label, int64(st.count),
			fmt.Sprintf("%.2f", float64(st.handler)/1e6),
			fmt.Sprintf("%.2f", float64(st.fel)/1e6),
			report.Percent(share))
	}
	t.AddRowf("TOTAL", int64(events),
		fmt.Sprintf("%.2f", float64(p.phases[PhaseHandler])/1e6),
		fmt.Sprintf("%.2f", float64(p.phases[PhaseFEL])/1e6), "")
	return t
}
