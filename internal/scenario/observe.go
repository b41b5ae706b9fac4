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
// from start to a terminal state, and instants for rejections. It returns
// the Probe handler that records scheduler-decision/maintenance instants.
func installJobSpans(spans *obs.Buffer, k *des.Kernel, s *sched.Scheduler, syms *job.Symbols) func(kind string, j *job.Job) {
	track := s.M.ID
	s.Subscribe(func(e sched.Event) {
		now := k.Now()
		id := int64(e.Job.ID)
		switch e.Kind {
		case sched.EventQueued:
			spans.Begin(now, "job", "wait", track, id,
				obs.KV{Key: "user", Value: syms.Str(e.Job.User)},
				obs.KV{Key: "cores", Value: e.Job.Cores},
				obs.KV{Key: "qos", Value: e.Job.QOS.String()},
				obs.KV{Key: "mod", Value: syms.Str(e.Job.Truth.Modality)})
		case sched.EventStarted:
			spans.End(now, "job", "wait", track, id)
			spans.Begin(now, "job", "run", track, id,
				obs.KV{Key: "user", Value: syms.Str(e.Job.User)},
				obs.KV{Key: "cores", Value: e.Job.Cores})
		case sched.EventFinished:
			spans.End(now, "job", "run", track, id,
				obs.KV{Key: "state", Value: e.Job.State.String()})
		case sched.EventPreempted:
			// The run span ends preempted; the requeue opens a fresh wait
			// span, matching the scheduler placing the victim back at the
			// queue head.
			spans.End(now, "job", "run", track, id,
				obs.KV{Key: "state", Value: "preempted"})
			spans.Begin(now, "job", "wait", track, id,
				obs.KV{Key: "user", Value: syms.Str(e.Job.User)},
				obs.KV{Key: "cores", Value: e.Job.Cores},
				obs.KV{Key: "mod", Value: syms.Str(e.Job.Truth.Modality)},
				obs.KV{Key: "requeued", Value: true})
		case sched.EventKilled:
			// An unplanned kill only closes the run span: the fault layer
			// routes the victim next, and that re-entry (Requeue here or a
			// failover Submit elsewhere) emits the EventQueued that opens
			// the new wait span — possibly on a different machine's track.
			spans.End(now, "job", "run", track, id,
				obs.KV{Key: "state", Value: "killed"})
		case sched.EventRejected:
			spans.Instant(now, "job", "reject", track,
				obs.KV{Key: "job", Value: id},
				obs.KV{Key: "cores", Value: e.Job.Cores})
		}
	})
	return func(kind string, j *job.Job) {
		if j == nil {
			// Machine-level events (maintenance windows) carry no job.
			spans.Instant(k.Now(), "maint", kind, track)
			return
		}
		spans.Instant(k.Now(), "sched", kind, track,
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
// shared "wan" track. A transfer killed by a partition ends its span with
// state=aborted.
func installTransferSpans(spans *obs.Buffer, k *des.Kernel, f *network.Fabric) {
	f.OnStart = append(f.OnStart, func(tr *network.Transfer) {
		// The job id (0 when the transfer is not job-bound) lets the
		// analysis layer attribute staging time to job timelines.
		spans.Begin(k.Now(), "net", "transfer", "wan", tr.ID,
			obs.KV{Key: "src", Value: tr.Src},
			obs.KV{Key: "dst", Value: tr.Dst},
			obs.KV{Key: "bytes", Value: tr.Bytes},
			obs.KV{Key: "job", Value: tr.JobID})
	})
	f.OnComplete = append(f.OnComplete, func(tr *network.Transfer) {
		spans.End(k.Now(), "net", "transfer", "wan", tr.ID)
	})
	f.OnAbort = append(f.OnAbort, func(tr *network.Transfer) {
		spans.End(k.Now(), "net", "transfer", "wan", tr.ID,
			obs.KV{Key: "state", Value: "aborted"})
	})
}

// installGatewaySpans emits each gateway request as an instant on the
// gateway's own track.
func installGatewaySpans(spans *obs.Buffer, k *des.Kernel, gw *gateway.Gateway) {
	gw.OnRequest = append(gw.OnRequest, func(endUser string, j *job.Job, attributed bool) {
		spans.Instant(k.Now(), "gateway", "request", gw.ID,
			obs.KV{Key: "user", Value: endUser},
			obs.KV{Key: "job", Value: int64(j.ID)},
			obs.KV{Key: "attributed", Value: attributed})
	})
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
