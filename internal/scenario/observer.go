// The observability seam: each Observer contributes to a single Attachment
// during assembly, and Run wires whatever the merged attachment asks for.
package scenario

import (
	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/obs"
	"github.com/tgsim/tgmod/internal/perf"
	"github.com/tgsim/tgmod/internal/slo"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// Attachment is the single mount point observers write into. Run builds
// one empty Attachment per simulation, offers it to every registered
// Observer in order, and then installs exactly what the merged result
// requests. Scalar slots (Spans, SamplePeriod, Phases, Registry, SLO)
// follow a last-writer-wins rule; list slots accumulate in observer order
// and are called in that order.
type Attachment struct {
	// Spans receives job-lifecycle, scheduler-decision, data-transfer,
	// gateway-session, and maintenance spans. Nil disables span tracing.
	Spans *obs.Buffer
	// SamplePeriod, when positive, samples per-machine queue depth and
	// utilization plus federation-wide gauges every period of virtual time.
	SamplePeriod des.Time
	// Phases, when non-nil, is installed as the kernel's phase-attribution
	// profiler (tracer + step observer + op profiler): per-event-name wall
	// time split across FEL/handler phases, with the scenario's accounting
	// flush charged as PhaseAccounting.
	Phases *perf.Profiler
	// Registry, when non-nil, receives live labeled metrics.
	Registry *telemetry.Registry
	// Snapshots receive wall-throttled progress snapshots plus one final
	// snapshot after the run completes.
	Snapshots []func(*telemetry.Snapshot)
	// SLO, when non-nil, scores job starts and rejections against
	// virtual-time service-level objectives.
	SLO *slo.Evaluator
	// Tracers are additional raw kernel tracers; Run attaches them after
	// the profiler and the snapshot publisher.
	Tracers []des.Tracer
	// Packets receive every accounting packet at the moment a site ledger
	// flushes it to the central database — the live ingest seam the
	// streaming observatory rides. Handlers run on the simulation goroutine
	// after the central ingest, in site order, and must treat the packet as
	// immutable.
	Packets []func(at des.Time, p *accounting.Packet)
	// SnapshotExtras decorate every published progress snapshot (in order,
	// after the deterministic fields are built), letting observers surface
	// their own state in /status without a second publication channel.
	SnapshotExtras []func(*telemetry.Snapshot)
}

// Observer contributes observability wiring to a run. Implementations
// mutate the offered Attachment; they must not retain it past the call.
type Observer interface {
	Attach(a *Attachment)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(a *Attachment)

// Attach implements Observer.
func (f ObserverFunc) Attach(a *Attachment) { f(a) }

// RecordSpans returns an Observer that records the run's spans (job
// lifecycles, scheduler decisions, transfers, gateway sessions,
// maintenance windows) into buf.
func RecordSpans(buf *obs.Buffer) Observer {
	return ObserverFunc(func(a *Attachment) { a.Spans = buf })
}

// SampleEvery returns an Observer that samples machine and federation
// gauges every period of virtual time; the series land in Result.Sampler.
func SampleEvery(period des.Time) Observer {
	return ObserverFunc(func(a *Attachment) { a.SamplePeriod = period })
}

// ProfilePhases returns an Observer that installs p as the run's
// phase-attribution profiler (see internal/perf): the kernel feeds it FEL
// operation timings, and the scenario charges its accounting flushes to
// PhaseAccounting. The profiler also lands in Result.Phases. The
// constructor lives here rather than in perf because observers are a
// scenario concept; perf stays import-free of scenario.
func ProfilePhases(p *perf.Profiler) Observer {
	return ObserverFunc(func(a *Attachment) {
		if p != nil {
			a.Phases = p
		}
	})
}

// LiveTelemetry returns an Observer that binds reg as the run's live
// metric registry (tg_* families). Fleet replications use one private
// registry per replication and merge them afterwards.
func LiveTelemetry(reg *telemetry.Registry) Observer {
	return ObserverFunc(func(a *Attachment) { a.Registry = reg })
}

// StreamSnapshots returns an Observer that delivers wall-throttled
// progress snapshots to sink during the run (plus one final snapshot).
func StreamSnapshots(sink func(*telemetry.Snapshot)) Observer {
	return ObserverFunc(func(a *Attachment) {
		if sink != nil {
			a.Snapshots = append(a.Snapshots, sink)
		}
	})
}

// EvaluateSLO returns an Observer that scores the run against ev's
// virtual-time objectives; when a registry is also attached the evaluator
// is bound to it as tg_slo_* families.
func EvaluateSLO(ev *slo.Evaluator) Observer {
	return ObserverFunc(func(a *Attachment) { a.SLO = ev })
}

// TraceKernel returns an Observer that adds tr as a raw kernel tracer,
// called after whatever tracers the run attaches itself.
func TraceKernel(tr des.Tracer) Observer {
	return ObserverFunc(func(a *Attachment) {
		if tr != nil {
			a.Tracers = append(a.Tracers, tr)
		}
	})
}

// TapPackets returns an Observer that receives every accounting packet as
// a site ledger flushes it centrally — the ordered live record stream a
// streaming consumer (internal/stream) ingests during the run.
func TapPackets(fn func(at des.Time, p *accounting.Packet)) Observer {
	return ObserverFunc(func(a *Attachment) {
		if fn != nil {
			a.Packets = append(a.Packets, fn)
		}
	})
}

// DecorateSnapshots returns an Observer that mutates every published
// progress snapshot after its deterministic fields are built, so streaming
// consumers can surface ingest/backpressure state in /status.
func DecorateSnapshots(fn func(*telemetry.Snapshot)) Observer {
	return ObserverFunc(func(a *Attachment) {
		if fn != nil {
			a.SnapshotExtras = append(a.SnapshotExtras, fn)
		}
	})
}

// attachment merges the registered observers, in order, into the single
// view Run wires from.
func (cfg *Config) attachment() Attachment {
	var a Attachment
	for _, o := range cfg.Observers {
		if o != nil {
			o.Attach(&a)
		}
	}
	return a
}
