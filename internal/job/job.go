// Package job defines the shared domain model for work submitted to the
// simulated cyberinfrastructure: batch jobs, their lifecycle states, the
// instrumentation attributes they may carry, and the ground-truth modality
// labels attached by the workload generators.
//
// The package is a leaf in the dependency graph so that schedulers,
// accounting, gateways, workflow engines, and the modality-measurement core
// can all speak about the same Job without import cycles.
package job

import (
	"fmt"

	"github.com/tgsim/tgmod/internal/des"
)

// ID identifies a job uniquely within a simulation run.
type ID int64

// State is the lifecycle state of a job.
type State int

// Job lifecycle states.
const (
	StatePending   State = iota // created, not yet submitted to a machine
	StateQueued                 // waiting in a batch queue
	StateRunning                // executing on allocated cores
	StateCompleted              // finished within its walltime
	StateKilled                 // killed at the walltime limit
	StatePreempted              // preempted by an urgent job, requeued
	StateFailed                 // failed (allocation exhausted, no resources)
)

// String returns the lowercase state name.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateCompleted:
		return "completed"
	case StateKilled:
		return "killed"
	case StatePreempted:
		return "preempted"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateKilled || s == StateFailed
}

// QOS is the quality-of-service class of a job.
type QOS int

// Quality-of-service classes.
const (
	QOSNormal      QOS = iota // standard batch
	QOSUrgent                 // on-demand/urgent computing: may preempt
	QOSInteractive            // interactive or visualization session
)

// String returns the lowercase QOS name.
func (q QOS) String() string {
	switch q {
	case QOSNormal:
		return "normal"
	case QOSUrgent:
		return "urgent"
	case QOSInteractive:
		return "interactive"
	default:
		return fmt.Sprintf("qos(%d)", int(q))
	}
}

// Modality is a usage-modality identifier. The taxonomy (descriptions,
// measurement sources) lives in the core package; the raw identifiers live
// here so workload generators can label ground truth without importing the
// measurement framework.
type Modality string

// The usage-modality taxonomy (DESIGN.md table).
const (
	ModBatchCapability Modality = "batch-capability" // M1: hero-scale single jobs
	ModBatchCapacity   Modality = "batch-capacity"   // M2: small/medium parallel batch
	ModEnsemble        Modality = "ensemble"         // M3: high-throughput / parameter sweep
	ModWorkflow        Modality = "workflow"         // M4: DAG campaigns
	ModGateway         Modality = "gateway"          // M5: science-gateway submissions
	ModUrgent          Modality = "urgent"           // M6: on-demand / urgent computing
	ModInteractive     Modality = "interactive"      // M7: interactive / visualization
	ModDataCentric     Modality = "data-centric"     // M8: data staging/archive dominated
	ModMetascheduled   Modality = "metascheduled"    // M9: broker-routed / co-allocated
	ModUnknown         Modality = "unknown"          // classifier output when undecidable
)

// AllModalities lists every ground-truth modality in canonical order.
var AllModalities = []Modality{
	ModBatchCapability, ModBatchCapacity, ModEnsemble, ModWorkflow,
	ModGateway, ModUrgent, ModInteractive, ModDataCentric, ModMetascheduled,
}

// Attributes is the instrumentation a job carries through the CI. These are
// the measurable signals available to the modality framework; depending on
// deployment coverage, the workload generator may leave fields empty even
// when the ground truth would warrant them (modeling partially deployed
// instrumentation — the paper's "beginning to measure" state). Every field
// is a Sym into the run's Symbols table.
type Attributes struct {
	SubmitVia      Sym // "login", "gram", "gateway", "metasched"
	GatewayID      Sym // community-account gateway identifier
	GatewayUser    Sym // per-request end-user attribute (AAAA model)
	WorkflowID     Sym // workflow-instance tag
	WorkflowEngine Sym // engine name when tagged
	EnsembleID     Sym // parameter-sweep campaign tag
	BrokerJobID    Sym // metascheduler job tag
	CoAllocID      Sym // co-allocation group tag
	ScienceField   Sym // field-of-science code from the allocation
}

// Truth is the generator-assigned ground truth, invisible to classifiers.
type Truth struct {
	Modality   Sym // a pre-seeded modality Sym (SymEnsemble, ...)
	CampaignID Sym // ensemble/workflow campaign this job belongs to, if any
}

// Job is a unit of computational work. Fields are written by the layer that
// owns the corresponding phase of the lifecycle: the generator fills the
// request, the scheduler fills the execution record.
//
// A Job holds no pointers: its strings are Syms into the run's Symbols
// table, interned once when the job is created (or, for placement, when a
// scheduler accepts it), so a job is one 168-byte object the garbage
// collector never scans.
type Job struct {
	ID      ID
	Name    Sym // user-chosen job name (script name); ensembles reuse names
	User    Sym // account the job is charged to (community account for gateways)
	Project Sym // allocation/project charged

	// Placement (set at submission or by the metascheduler).
	Site    Sym
	Machine Sym
	Queue   Sym

	// Request.
	Cores       int
	ReqWalltime des.Time
	QOS         QOS
	InputBytes  int64 // data staged in before the job can start

	// Execution (set by the scheduler).
	RunTime     des.Time // actual execution need; capped at ReqWalltime
	SubmitTime  des.Time
	StartTime   des.Time
	EndTime     des.Time
	State       State
	Preemptions int
	// WastedCoreSeconds accumulates execution lost to unplanned failures:
	// work done beyond the last checkpoint (or the whole run without
	// checkpointing) that must be redone. Zero in fault-free runs.
	WastedCoreSeconds float64

	Attr  Attributes
	Truth Truth
}

// WaitTime returns the queue wait (start - submit); zero until started.
func (j *Job) WaitTime() des.Time {
	if j.StartTime < j.SubmitTime {
		return 0
	}
	return j.StartTime - j.SubmitTime
}

// Elapsed returns the execution duration for finished jobs.
func (j *Job) Elapsed() des.Time {
	if j.EndTime < j.StartTime {
		return 0
	}
	return j.EndTime - j.StartTime
}

// CoreSeconds returns consumed core-seconds for finished jobs.
func (j *Job) CoreSeconds() float64 {
	return float64(j.Elapsed()) * float64(j.Cores)
}

// BoundedSlowdown returns the bounded slowdown metric
// max(1, (wait+run)/max(run, bound)) with the conventional 10-second bound,
// a standard scheduler-quality measure robust to very short jobs.
func (j *Job) BoundedSlowdown() float64 {
	const bound = 10 // seconds
	run := float64(j.Elapsed())
	denom := run
	if denom < bound {
		denom = bound
	}
	s := (float64(j.WaitTime()) + run) / denom
	if s < 1 {
		return 1
	}
	return s
}

// Validate reports an error when the job request is malformed. Schedulers
// call this at submission so generator bugs surface immediately.
func (j *Job) Validate() error {
	switch {
	case j.Cores <= 0:
		return fmt.Errorf("job %d: non-positive cores %d", j.ID, j.Cores)
	case j.ReqWalltime <= 0:
		return fmt.Errorf("job %d: non-positive walltime %v", j.ID, float64(j.ReqWalltime))
	case j.RunTime <= 0:
		return fmt.Errorf("job %d: non-positive runtime %v", j.ID, float64(j.RunTime))
	case j.User == SymNone:
		return fmt.Errorf("job %d: missing user", j.ID)
	case j.Project == SymNone:
		return fmt.Errorf("job %d: missing project", j.ID)
	case j.QOS.Sym() == SymUnknown:
		return fmt.Errorf("job %d: unknown %s", j.ID, j.QOS)
	}
	return nil
}
