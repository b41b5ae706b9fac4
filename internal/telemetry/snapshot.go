// Run snapshots: immutable progress views of a running simulation,
// published by the simulation loop and consumed by the HTTP console and
// the stderr progress line. The publisher sits on the des.Tracer /
// des.StepObserver seam, so it adds zero kernel events and cannot perturb
// event ordering; wall-clock throttling only decides *when* a snapshot is
// taken, never what the simulation does.
package telemetry

import (
	"fmt"
	"strings"
	"time"

	"github.com/tgsim/tgmod/internal/des"
)

// MachineSnap is the per-machine slice of a snapshot.
type MachineSnap struct {
	ID          string  `json:"id"`
	QueueDepth  int     `json:"queue_depth"`
	Running     int     `json:"running"`
	Utilization float64 `json:"utilization"` // instantaneous busy fraction
}

// Snapshot is one immutable view of a running (or finished) simulation.
// Wall-clock fields (EventsPerSec, WallSeconds, ETASeconds) vary run to
// run; everything else is a pure function of deterministic state.
type Snapshot struct {
	SimTime      float64       `json:"sim_time_s"`
	SimTimeHuman string        `json:"sim_time"`
	EndTime      float64       `json:"end_time_s"` // horizon + drain
	Progress     float64       `json:"progress"`   // 0..1 of EndTime
	Events       uint64        `json:"events"`
	Pending      int           `json:"pending_events"`
	JobsFinished int           `json:"jobs_finished"`
	Machines     []MachineSnap `json:"machines"`
	WallSeconds  float64       `json:"wall_seconds"`
	EventsPerSec float64       `json:"events_per_sec"`
	ETASeconds   float64       `json:"eta_seconds"`
	Done         bool          `json:"done"`
	// ObsDropped counts span events the obs buffer overflowed and lost;
	// non-zero means every event-stream consumer below is truncated.
	ObsDropped uint64 `json:"obs_dropped,omitempty"`
	// Stream is the streaming-observatory ingest state (nil when no stream
	// processor is attached).
	Stream *StreamSnap `json:"stream,omitempty"`
	// Runtime is the Go runtime slice (nil unless a perf.RuntimeSampler is
	// attached). Wall-clock-only: it describes the host process, varies run
	// to run, and is never part of exported artifacts or determinism diffs.
	Runtime *RuntimeSnap `json:"runtime,omitempty"`
}

// RuntimeSnap is the Go-runtime slice of a snapshot: host-process state
// (heap, GC, goroutines, throughput) sampled on the snapshot cadence.
// Every field is wall-clock-dependent by nature.
type RuntimeSnap struct {
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64  `json:"heap_sys_bytes"`
	HeapObjects    uint64  `json:"heap_objects"`
	GCCycles       uint32  `json:"gc_cycles"`
	GCPauseMS      float64 `json:"gc_pause_ms"` // cumulative stop-the-world
	Goroutines     int     `json:"goroutines"`
	EventsPerSec   float64 `json:"events_per_sec"`
}

// StreamSnap is the stream-processor slice of a snapshot: how much the
// live ingest pipeline has consumed.
type StreamSnap struct {
	Ingested uint64 `json:"ingested"` // records applied by the pipeline
}

// Line renders the snapshot as a one-line progress report for stderr.
func (s *Snapshot) Line() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%5.1f%%  sim %s", 100*s.Progress, s.SimTimeHuman)
	queued, running := 0, 0
	for _, m := range s.Machines {
		queued += m.QueueDepth
		running += m.Running
	}
	fmt.Fprintf(&b, "  events %s", compactCount(s.Events))
	if s.EventsPerSec > 0 {
		fmt.Fprintf(&b, " (%s/s)", compactCount(uint64(s.EventsPerSec)))
	}
	fmt.Fprintf(&b, "  queued %d  running %d  finished %d", queued, running, s.JobsFinished)
	if s.Done {
		b.WriteString("  done")
	} else if s.ETASeconds > 0 {
		fmt.Fprintf(&b, "  eta %s", (time.Duration(s.ETASeconds * float64(time.Second))).Round(time.Second))
	}
	return b.String()
}

// compactCount renders a count as 1.2k / 3.4M for progress lines.
func compactCount(v uint64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", float64(v)/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", float64(v)/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.1fk", float64(v)/1e3)
	default:
		return fmt.Sprintf("%d", v)
	}
}

// Publisher drives snapshot publication from inside the kernel's event
// loop. It implements des.Tracer (no-op) and des.StepObserver: every
// CheckEvery events it consults the wall clock and, if MinWall has elapsed
// since the last publication, builds a snapshot and hands it to Sink. Both
// Build and Sink run on the simulation goroutine.
type Publisher struct {
	// Build fills the deterministic fields of a snapshot from simulation
	// state; the publisher adds the wall-clock fields.
	Build func(at des.Time, events uint64, pending int) *Snapshot
	// Sink receives every published snapshot.
	Sink func(*Snapshot)
	// CheckEvery is the event-count stride between wall-clock checks
	// (default 4096): the steady-state per-event overhead is one counter
	// increment and one modulo.
	CheckEvery uint64
	// MinWall is the minimum wall time between publications (default 250ms).
	MinWall time.Duration

	n       uint64
	started time.Time
	lastPub time.Time
}

// Event implements des.Tracer.
func (p *Publisher) Event(at des.Time, name string) {}

// AfterEvent implements des.StepObserver.
func (p *Publisher) AfterEvent(at des.Time, name string, pending int) {
	p.n++
	every := p.CheckEvery
	if every == 0 {
		every = 4096
	}
	if p.n%every != 0 {
		return
	}
	now := time.Now()
	if p.started.IsZero() {
		p.started = now.Add(-time.Millisecond) // avoid a zero wall span
	}
	minWall := p.MinWall
	if minWall == 0 {
		minWall = 250 * time.Millisecond
	}
	if now.Sub(p.lastPub) < minWall {
		return
	}
	p.lastPub = now
	p.publish(at, pending, now, false)
}

// Final publishes one last snapshot unconditionally, marked Done. The
// scenario calls it after the run loop completes so consoles and progress
// lines always end on the true final state.
func (p *Publisher) Final(at des.Time, pending int) {
	now := time.Now()
	if p.started.IsZero() {
		p.started = now
	}
	p.publish(at, pending, now, true)
}

func (p *Publisher) publish(at des.Time, pending int, now time.Time, done bool) {
	s := p.Build(at, p.n, pending)
	s.Done = done
	s.WallSeconds = now.Sub(p.started).Seconds()
	if s.WallSeconds > 0 {
		s.EventsPerSec = float64(p.n) / s.WallSeconds
	}
	if !done && s.Progress > 0 && s.Progress < 1 {
		s.ETASeconds = s.WallSeconds * (1 - s.Progress) / s.Progress
	}
	if done {
		s.Progress = 1
	}
	p.Sink(s)
}
