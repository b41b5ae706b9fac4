// Live-telemetry wiring: multiplexes the existing observability seams
// (scheduler listeners and probes, fabric and gateway hooks, the
// accounting flush, kernel state) into a telemetry.Registry, and builds
// the progress snapshots the run console serves. Everything here is
// conditional on an attached registry / snapshot sink — an unconfigured
// run installs none of it — and nothing here consumes randomness or
// mutates simulation state, which is what keeps instrumented and
// uninstrumented same-seed runs byte-identical.
package scenario

import (
	"github.com/tgsim/tgmod/internal/alloc"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/gateway"
	"github.com/tgsim/tgmod/internal/grid"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/network"
	"github.com/tgsim/tgmod/internal/obs"
	"github.com/tgsim/tgmod/internal/sched"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// telemetryHooks carries the counters that instrumentation points outside
// installTelemetry (the accounting flush) increment. All methods are
// nil-safe so call sites need no registry guards.
type telemetryHooks struct {
	flushes   *telemetry.Counter
	flushJobs *telemetry.Counter
	wireBytes *telemetry.Counter
}

// flushed records one accounting flush of jobs records over wireLen bytes.
func (h *telemetryHooks) flushed(jobs, wireLen int) {
	if h == nil {
		return
	}
	h.flushes.Inc()
	h.flushJobs.Add(float64(jobs))
	h.wireBytes.Add(float64(wireLen))
}

// installTelemetry registers the standard metric families and hooks them
// into the assembled simulation, appending to each seam's handler list and
// to probes, each machine's decision-probe handlers.
func installTelemetry(reg *telemetry.Registry, k *des.Kernel, syms *job.Symbols, fed *grid.Federation,
	scheds map[string]*sched.Scheduler, fabric *network.Fabric,
	gateways map[string]*gateway.Gateway, bank *alloc.Bank,
	finished *int, spans *obs.Buffer, probes map[string][]func(string, *job.Job)) *telemetryHooks {

	// Per-machine gauges read scheduler state on demand at exposition time.
	queueDepth := reg.Gauge("tg_queue_depth", "Jobs waiting in the batch queue.", "machine")
	runningJobs := reg.Gauge("tg_running_jobs", "Jobs currently executing.", "machine")
	utilization := reg.Gauge("tg_utilization", "Instantaneous fraction of batch cores busy.", "machine")

	// Lifecycle counters and queue-wait histograms, fed by the listener seam.
	jobsC := reg.Counter("tg_jobs_total", "Job lifecycle transitions.", "machine", "event")
	waitH := reg.HistogramVec("tg_queue_wait_seconds", "Queue wait from submission to start.", "machine")
	decC := reg.Counter("tg_sched_decisions_total", "Scheduler-internal decisions.", "machine", "kind")
	modJobs := reg.Counter("tg_jobs_by_modality_total", "Finished jobs by ground-truth modality.", "modality")
	modNUs := reg.Counter("tg_nus_by_modality_total", "Charged NUs by ground-truth modality.", "modality")

	// Per-job modality counters are resolved once for the whole run and
	// shared by every machine listener: With() joins and hashes its label
	// values on each call, and EventFinished fires for every job — the
	// hottest telemetry path at scale. The taxonomy is closed, so batching
	// the lookups into one map walk per job is free of missed labels.
	type modalityCounters struct{ jobs, nus *telemetry.Counter }
	modCounters := make(map[job.Sym]modalityCounters, len(job.AllModalities)+1)
	for _, mod := range append(append([]job.Modality(nil), job.AllModalities...), job.ModUnknown) {
		modCounters[syms.Intern(string(mod))] = modalityCounters{
			jobs: modJobs.With(string(mod)),
			nus:  modNUs.With(string(mod)),
		}
	}

	// Policy-engine state: age of the longest-waiting queued job, plus the
	// aging/gang counters engines report through Stats().Engine. Legacy
	// engines report zeros; the series exist either way so dashboards need
	// no per-policy wiring.
	queueAge := reg.Gauge("tg_sched_queue_age_seconds", "Age of the oldest queued job.", "machine")
	skipsG := reg.Gauge("tg_sched_backfill_skips", "Backfill skip charges accumulated by the priority engine.", "machine")
	escalG := reg.Gauge("tg_sched_age_escalations", "Jobs escalated past the max-skip starvation bound.", "machine")
	holdsG := reg.Gauge("tg_sched_gang_holds", "Assembly holds placed by the gang engine.", "machine")
	gangsG := reg.Gauge("tg_sched_gang_starts", "All-or-nothing gang launches.", "machine")

	for _, m := range fed.Machines() {
		m := m
		s := scheds[m.ID]
		cores := float64(m.BatchCores())
		queueDepth.Func(func() float64 { return float64(s.QueueLen()) }, m.ID)
		queueAge.Func(func() float64 { return float64(s.OldestQueuedAge()) }, m.ID)
		skipsG.Func(func() float64 { return float64(s.Stats().Engine.Skips) }, m.ID)
		escalG.Func(func() float64 { return float64(s.Stats().Engine.Escalations) }, m.ID)
		holdsG.Func(func() float64 { return float64(s.Stats().Engine.GangHolds) }, m.ID)
		gangsG.Func(func() float64 { return float64(s.Stats().Engine.GangStarts) }, m.ID)
		runningJobs.Func(func() float64 { return float64(s.RunningCount()) }, m.ID)
		utilization.Func(func() float64 {
			if cores == 0 {
				return 0
			}
			return (cores - float64(s.FreeBatchCores())) / cores
		}, m.ID)

		// Hot-path instruments are resolved once, outside the listener.
		queued := jobsC.With(m.ID, "queued")
		started := jobsC.With(m.ID, "started")
		finishedC := jobsC.With(m.ID, "finished")
		preempted := jobsC.With(m.ID, "preempted")
		rejected := jobsC.With(m.ID, "rejected")
		wait := waitH.With(m.ID)
		s.Subscribe(func(e sched.Event) {
			switch e.Kind {
			case sched.EventQueued:
				queued.Inc()
			case sched.EventStarted:
				started.Inc()
				wait.Observe(float64(e.Job.WaitTime()))
			case sched.EventFinished:
				finishedC.Inc()
				mod := e.Job.Truth.Modality
				if mod == job.SymNone {
					mod = job.SymUnknown
				}
				mc := modCounters[mod]
				mc.jobs.Inc()
				mc.nus.Add(m.NUs(e.Job.CoreSeconds()))
			case sched.EventPreempted, sched.EventKilled:
				// Unplanned kills ride the preempted series: the label set is
				// resolved eagerly for every machine, so a separate "killed"
				// label would change fault-free exposition.
				preempted.Inc()
			case sched.EventRejected:
				rejected.Inc()
			}
		})

		decisions := map[string]*telemetry.Counter{
			sched.ProbeBackfill:      decC.With(m.ID, sched.ProbeBackfill),
			sched.ProbePreemptVictim: decC.With(m.ID, sched.ProbePreemptVictim),
			sched.ProbeReservation:   decC.With(m.ID, sched.ProbeReservation),
			sched.ProbeOutageBegin:   decC.With(m.ID, sched.ProbeOutageBegin),
			sched.ProbeOutageEnd:     decC.With(m.ID, sched.ProbeOutageEnd),
		}
		probes[m.ID] = append(probes[m.ID], func(kind string, j *job.Job) {
			if c := decisions[kind]; c != nil {
				c.Inc()
				return
			}
			// Kinds outside the pre-resolved set (the fault-layer probes:
			// crash, node-fail, and their kills) register their series the
			// first time they fire, so fault-free exposition is unchanged.
			c := decC.With(m.ID, kind)
			decisions[kind] = c
			c.Inc()
		})
	}

	// WAN transfers, via the fabric hooks.
	xferStart := reg.Counter("tg_transfers_started_total", "Transfers accepted by the fabric.").With()
	xferDone := reg.Counter("tg_transfers_completed_total", "Transfers fully delivered.").With()
	xferBytes := reg.Counter("tg_transfer_bytes_total", "Bytes delivered by completed transfers.").With()
	xferDur := reg.HistogramVec("tg_transfer_duration_seconds", "Transfer duration, acceptance to last byte.").With()
	reg.Gauge("tg_active_transfers", "Transfers currently in flight.").Func(func() float64 {
		return float64(fabric.Active())
	})
	fabric.OnStart = append(fabric.OnStart, func(*network.Transfer) { xferStart.Inc() })
	fabric.OnComplete = append(fabric.OnComplete, func(tr *network.Transfer) {
		xferDone.Inc()
		xferBytes.Add(float64(tr.Bytes))
		xferDur.Observe(float64(tr.Duration()))
	})
	// Registered on the first abort, like the fault-layer decision probes,
	// so a run without aborts exposes no aborted family.
	var xferAborted *telemetry.Counter
	fabric.OnAbort = append(fabric.OnAbort, func(*network.Transfer) {
		if xferAborted == nil {
			xferAborted = reg.Counter("tg_transfers_aborted_total", "Transfers killed by a partition.").With()
		}
		xferAborted.Inc()
	})

	// Gateway requests, split by whether the AAAA attribute fired.
	gwReq := reg.Counter("tg_gateway_requests_total", "Gateway submissions.", "gateway", "attributed")
	for _, gw := range gateways {
		gw := gw
		withAttr := gwReq.With(gw.ID, "yes")
		without := gwReq.With(gw.ID, "no")
		gw.OnRequest = append(gw.OnRequest, func(endUser string, j *job.Job, attributed bool) {
			if attributed {
				withAttr.Inc()
			} else {
				without.Inc()
			}
		})
	}

	// Kernel and federation-wide gauges.
	reg.Gauge("tg_kernel_events", "Kernel events executed.").Func(func() float64 {
		return float64(k.Executed())
	})
	reg.Gauge("tg_kernel_pending_events", "Future-event-list size.").Func(func() float64 {
		return float64(k.Pending())
	})
	reg.Gauge("tg_jobs_finished", "Jobs that reached a terminal state.").Func(func() float64 {
		return float64(*finished)
	})
	reg.Gauge("tg_alloc_balance_nus", "Awarded minus charged NUs across all allocations.").Func(func() float64 {
		return bank.TotalAwarded() - bank.TotalUsed()
	})

	if spans != nil {
		reg.Gauge("tg_obs_buffer_events", "Span events retained by the obs buffer.").Func(func() float64 {
			return float64(spans.Len())
		})
	}

	return &telemetryHooks{
		flushes:   reg.Counter("tg_accounting_flushes_total", "Site-ledger flushes into the central database.").With(),
		flushJobs: reg.Counter("tg_accounting_job_records_total", "Job records flushed to the central database.").With(),
		wireBytes: reg.Counter("tg_accounting_wire_bytes_total", "Serialized accounting bytes shipped over the wire.").With(),
	}
}

// snapshotBuilder returns the deterministic half of run snapshots: sim
// time, progress against the run's end time, and the per-machine view,
// then applies extras in order. The publisher fills the wall-clock half.
func snapshotBuilder(fed *grid.Federation, scheds map[string]*sched.Scheduler,
	finished *int, endTime des.Time, extras []func(*telemetry.Snapshot)) func(at des.Time, events uint64, pending int) *telemetry.Snapshot {
	machines := fed.Machines()
	return func(at des.Time, events uint64, pending int) *telemetry.Snapshot {
		s := &telemetry.Snapshot{
			SimTime:      float64(at),
			SimTimeHuman: at.String(),
			EndTime:      float64(endTime),
			Events:       events,
			Pending:      pending,
			JobsFinished: *finished,
			Machines:     make([]telemetry.MachineSnap, 0, len(machines)),
		}
		if endTime > 0 {
			s.Progress = float64(at) / float64(endTime)
			if s.Progress > 1 {
				s.Progress = 1
			}
		}
		for _, m := range machines {
			sc := scheds[m.ID]
			cores := float64(m.BatchCores())
			util := 0.0
			if cores > 0 {
				util = (cores - float64(sc.FreeBatchCores())) / cores
			}
			s.Machines = append(s.Machines, telemetry.MachineSnap{
				ID:          m.ID,
				QueueDepth:  sc.QueueLen(),
				Running:     sc.RunningCount(),
				Utilization: util,
			})
		}
		for _, fn := range extras {
			fn(s)
		}
		return s
	}
}
