package sched

import (
	"fmt"
	"sort"

	"github.com/tgsim/tgmod/internal/job"
)

// PolicyEngine is the pluggable policy seam of a Scheduler. The engine owns
// the normal-QOS batch queue — its ordering, its start decisions, its
// backfill window, and any reservation plan it builds on top of the
// availability profile — while the Scheduler core owns everything physical:
// partitions, running jobs, outages, crashes, node losses, advance
// reservations, and accounting.
//
// Engines run inside the simulation kernel and must be deterministic: no
// wall-clock time, no map-iteration order, no randomness outside streams
// derived from the run seed (see DESIGN.md "Scheduling policy engine" for
// the full contract an engine author must honor).
type PolicyEngine interface {
	// Name returns the registry name of the engine ("easy", "gang", ...).
	Name() string
	// Push appends a newly submitted job to the engine's queue.
	Push(j *job.Job)
	// PushFront re-inserts a preempted, crashed, or urgent-overflow job
	// with its accumulated wait intact. Engines may refine the insertion
	// point (a campaign-aware engine groups the job with its peers) but
	// must keep the job ahead of unrelated later arrivals.
	PushFront(j *job.Job)
	// Len returns the number of queued jobs.
	Len() int
	// Queued exposes the queue in the engine's current priority order for
	// read-only planning (the start estimator). Callers must not mutate.
	Queued() []*job.Job
	// Schedule runs one scheduling pass at the current instant: the engine
	// inspects the availability profile (s.passProfile) and starts, via
	// s.startBatch, every queued job that should begin now.
	Schedule(s *Scheduler)
	// JobFinished observes a batch job leaving the machine (completed or
	// walltime-killed) before the post-finish scheduling pass — the
	// accounting seam fair-share usage charging hangs off.
	JobFinished(s *Scheduler, j *job.Job)
	// Disrupted fires when machine availability collapses out from under
	// the engine — a crash, a maintenance window opening, or a node
	// failure. Any engine-held claims on future capacity (gang assembly
	// holds) must be released here, atomically: a surviving partial hold
	// would pin cores for a campaign the disruption already broke up.
	Disrupted(s *Scheduler)
}

// EngineStats are engine-specific lifetime counters, all zero for engines
// that lack the corresponding mechanisms.
type EngineStats struct {
	// Skips counts jobs passed over by a backfilled lower-priority job
	// (priority engine).
	Skips uint64
	// Escalations counts starvation-bound escalations: a job whose skip
	// count crossed the aging limit and received a blocking reservation.
	Escalations uint64
	// GangHolds counts member holds placed while assembling a gang.
	GangHolds uint64
	// GangStarts counts all-or-nothing gang launches (of 2+ members).
	GangStarts uint64
}

// statsReporter is implemented by engines that maintain EngineStats.
type statsReporter interface {
	EngineStats() EngineStats
}

// EngineFactory builds a fresh engine instance.
type EngineFactory func() PolicyEngine

var engineRegistry = map[string]EngineFactory{}

// RegisterEngine adds an engine to the registry under its name. Engines in
// this package register themselves; external packages may add their own
// before building schedulers. Duplicate names panic.
func RegisterEngine(name string, f EngineFactory) {
	if _, dup := engineRegistry[name]; dup {
		panic("sched: duplicate engine " + name)
	}
	engineRegistry[name] = f
}

// NewEngine returns a fresh instance of the named engine.
func NewEngine(name string) (PolicyEngine, error) {
	f, ok := engineRegistry[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown engine %q (have %v)", name, EngineNames())
	}
	return f(), nil
}

// EngineNames returns the registered engine names, sorted.
func EngineNames() []string {
	names := make([]string, 0, len(engineRegistry))
	for n := range engineRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// fifoQueue is the queue base engines embed: a plain FIFO slice with no-op
// accounting and disruption hooks. Embedders override what they refine.
type fifoQueue struct {
	q []*job.Job
}

func (f *fifoQueue) Push(j *job.Job)      { f.q = append(f.q, j) }
func (f *fifoQueue) PushFront(j *job.Job) { f.q = append([]*job.Job{j}, f.q...) }
func (f *fifoQueue) Len() int             { return len(f.q) }
func (f *fifoQueue) Queued() []*job.Job   { return f.q }

func (f *fifoQueue) JobFinished(*Scheduler, *job.Job) {}
func (f *fifoQueue) Disrupted(*Scheduler)             {}
