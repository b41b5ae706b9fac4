// Observability wiring: hooks the obs layer into the assembled simulation.
// Everything here is conditional on the attached observers — an
// unobserved run installs no listeners, no probes, no ticker, and no
// tracer.
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
	"github.com/tgsim/tgmod/internal/slo"
)

// installJobSpans emits the per-job lifecycle as async spans on the
// machine's track: a "wait" span from queue entry to start, a "run" span
// from start to a terminal state, instants for rejections, and
// scheduler-decision/maintenance instants via the Probe seam.
func installJobSpans(rec obs.Recorder, k *des.Kernel, s *sched.Scheduler, syms *job.Symbols) {
	track := s.M.ID
	s.Subscribe(func(e sched.Event) {
		now := k.Now()
		id := int64(e.Job.ID)
		switch e.Kind {
		case sched.EventQueued:
			obs.Begin(rec, now, "job", "wait", track, id,
				obs.KV{Key: "user", Value: syms.Str(e.Job.User)},
				obs.KV{Key: "cores", Value: e.Job.Cores},
				obs.KV{Key: "qos", Value: e.Job.QOS.String()},
				obs.KV{Key: "mod", Value: syms.Str(e.Job.Truth.Modality)})
		case sched.EventStarted:
			obs.End(rec, now, "job", "wait", track, id)
			obs.Begin(rec, now, "job", "run", track, id,
				obs.KV{Key: "user", Value: syms.Str(e.Job.User)},
				obs.KV{Key: "cores", Value: e.Job.Cores})
		case sched.EventFinished:
			obs.End(rec, now, "job", "run", track, id,
				obs.KV{Key: "state", Value: e.Job.State.String()})
		case sched.EventPreempted:
			// The run span ends preempted; the requeue opens a fresh wait
			// span, matching the scheduler placing the victim back at the
			// queue head.
			obs.End(rec, now, "job", "run", track, id,
				obs.KV{Key: "state", Value: "preempted"})
			obs.Begin(rec, now, "job", "wait", track, id,
				obs.KV{Key: "user", Value: syms.Str(e.Job.User)},
				obs.KV{Key: "cores", Value: e.Job.Cores},
				obs.KV{Key: "mod", Value: syms.Str(e.Job.Truth.Modality)},
				obs.KV{Key: "requeued", Value: true})
		case sched.EventKilled:
			// An unplanned kill only closes the run span: the fault layer
			// routes the victim next, and that re-entry (Requeue here or a
			// failover Submit elsewhere) emits the EventQueued that opens
			// the new wait span — possibly on a different machine's track.
			obs.End(rec, now, "job", "run", track, id,
				obs.KV{Key: "state", Value: "killed"})
		case sched.EventRejected:
			obs.Instant(rec, now, "job", "reject", track,
				obs.KV{Key: "job", Value: id},
				obs.KV{Key: "cores", Value: e.Job.Cores})
		}
	})
	s.Probe = func(kind string, j *job.Job) {
		cat := "sched"
		if j == nil {
			// Machine-level events (maintenance windows) carry no job.
			cat = "maint"
			obs.Instant(rec, k.Now(), cat, kind, track)
			return
		}
		obs.Instant(rec, k.Now(), cat, kind, track,
			obs.KV{Key: "job", Value: int64(j.ID)},
			obs.KV{Key: "cores", Value: j.Cores})
	}
}

// installSLO scores the machine's job starts and rejections against the
// evaluator's objectives. Only first starts are scored — a job's
// Preemptions counter is still zero then — because the user-visible
// promise is about time to first execution; requeues are already punished
// through the wait they added before that first start ever happened, and
// the trace-analysis layer accounts restart costs separately.
func installSLO(ev *slo.Evaluator, k *des.Kernel, s *sched.Scheduler, syms *job.Symbols) {
	s.Subscribe(func(e sched.Event) {
		switch e.Kind {
		case sched.EventStarted:
			if e.Job.Preemptions == 0 {
				now := k.Now()
				ev.ObserveStart(now, job.Modality(syms.Str(e.Job.Truth.Modality)), float64(now-e.Job.SubmitTime))
			}
		case sched.EventRejected:
			ev.ObserveReject(k.Now(), job.Modality(syms.Str(e.Job.Truth.Modality)))
		}
	})
}

// installTransferSpans emits every WAN transfer as an async span on the
// shared "wan" track.
func installTransferSpans(rec obs.Recorder, k *des.Kernel, f *network.Fabric) {
	f.OnStart = func(tr *network.Transfer) {
		// The job id (0 when the transfer is not job-bound) lets the
		// analysis layer attribute staging time to job timelines.
		obs.Begin(rec, k.Now(), "net", "transfer", "wan", tr.ID,
			obs.KV{Key: "src", Value: tr.Src},
			obs.KV{Key: "dst", Value: tr.Dst},
			obs.KV{Key: "bytes", Value: tr.Bytes},
			obs.KV{Key: "job", Value: tr.JobID})
	}
	f.OnComplete = func(tr *network.Transfer) {
		obs.End(rec, k.Now(), "net", "transfer", "wan", tr.ID)
	}
}

// installGatewaySpans emits each gateway request as an instant on the
// gateway's own track.
func installGatewaySpans(rec obs.Recorder, k *des.Kernel, gw *gateway.Gateway) {
	gw.OnRequest = func(endUser string, j *job.Job, attributed bool) {
		obs.Instant(rec, k.Now(), "gateway", "request", gw.ID,
			obs.KV{Key: "user", Value: endUser},
			obs.KV{Key: "job", Value: int64(j.ID)},
			obs.KV{Key: "attributed", Value: attributed})
	}
}

// buildSampler registers the standard virtual-time gauges: per-machine
// queue depth and instantaneous utilization, plus federation-wide activity.
func buildSampler(period des.Time, k *des.Kernel, fed *grid.Federation,
	scheds map[string]*sched.Scheduler, fabric *network.Fabric,
	bank *alloc.Bank, finished *int) *obs.Sampler {
	sm := obs.NewSampler(period)
	for _, m := range fed.Machines() {
		s := scheds[m.ID]
		cores := float64(m.BatchCores())
		sm.Register("queue_depth", m.ID, func() float64 {
			return float64(s.QueueLen())
		})
		sm.Register("utilization", m.ID, func() float64 {
			if cores == 0 {
				return 0
			}
			return (cores - float64(s.FreeBatchCores())) / cores
		})
	}
	sm.Register("federation", "active_transfers", func() float64 {
		return float64(fabric.Active())
	})
	sm.Register("federation", "pending_events", func() float64 {
		return float64(k.Pending())
	})
	sm.Register("federation", "jobs_finished", func() float64 {
		return float64(*finished)
	})
	sm.Register("federation", "alloc_balance_nus", func() float64 {
		return bank.TotalAwarded() - bank.TotalUsed()
	})
	return sm
}
