package sched

import (
	"sort"

	"github.com/tgsim/tgmod/internal/job"
)

func init() { RegisterEngine("priority", func() PolicyEngine { return &priorityEngine{} }) }

// DefaultMaxSkips is the starvation bound of the priority engine: after
// being jumped by this many backfilled jobs, a queued job escalates and
// receives a blocking reservation (kube-batch's max-skip aging).
const DefaultMaxSkips = 8

// maxEscalatedPlans bounds how many escalated jobs get committed
// reservations per pass; beyond it the plan horizon is too distant to
// matter and the bookkeeping would grow with the backlog.
const maxEscalatedPlans = 32

// priorityEngine orders the queue by size-derived priority class —
// capability jobs (large core counts) outrank capacity jobs, mirroring how
// TeraGrid sites boosted full-machine runs — and backfills EASY-style
// underneath. Every backfill start charges one "skip" to each job still
// queued ahead of the backfilled one; a job whose skips cross MaxSkips
// escalates: it sorts ahead of its class and receives a committed
// reservation each pass (conservative-style) that backfill cannot delay.
// The skip bound turns EASY's unbounded worst-case wait into a bounded one,
// per the kube-batch backfill/starvation design.
type priorityEngine struct {
	fifoQueue
	// MaxSkips overrides DefaultMaxSkips when positive.
	MaxSkips  int
	skips     map[job.ID]int
	escalated map[job.ID]bool
	stats     EngineStats
}

func (e *priorityEngine) Name() string { return "priority" }

func (e *priorityEngine) EngineStats() EngineStats { return e.stats }

func (e *priorityEngine) maxSkips() int {
	if e.MaxSkips > 0 {
		return e.MaxSkips
	}
	return DefaultMaxSkips
}

// class buckets a job's core request into a priority class: half the
// machine and up is capability (2), an eighth and up is mid-range (1),
// the rest capacity (0). Bigger runs first.
func (e *priorityEngine) class(s *Scheduler, j *job.Job) int {
	switch cores := s.M.BatchCores(); {
	case j.Cores*2 >= cores:
		return 2
	case j.Cores*8 >= cores:
		return 1
	default:
		return 0
	}
}

// sortQueue realizes the priority order: escalated jobs first (oldest
// submit first), then descending class, then submit order, then ID.
func (e *priorityEngine) sortQueue(s *Scheduler) {
	sort.SliceStable(e.q, func(a, b int) bool {
		ja, jb := e.q[a], e.q[b]
		ea, eb := e.escalated[ja.ID], e.escalated[jb.ID]
		if ea != eb {
			return ea
		}
		ca, cb := e.class(s, ja), e.class(s, jb)
		if ca != cb {
			return ca > cb
		}
		if ja.SubmitTime != jb.SubmitTime {
			return ja.SubmitTime < jb.SubmitTime
		}
		return ja.ID < jb.ID
	})
}

// forget drops a started job's aging state.
func (e *priorityEngine) forget(j *job.Job) {
	delete(e.skips, j.ID)
	delete(e.escalated, j.ID)
}

func (e *priorityEngine) Schedule(s *Scheduler) {
	now := s.K.Now()
	e.sortQueue(s)
	p := s.passProfile()
	// Start jobs in priority order while they fit.
	for len(e.q) > 0 {
		head := e.q[0]
		if !s.startableNow(p, head) {
			break
		}
		e.popFront()
		e.forget(head)
		s.startBatch(head, "")
		p.subtract(now, now+head.ReqWalltime, head.Cores)
	}
	if len(e.q) == 0 || s.freeBatch == 0 {
		return
	}
	// Commit reservations for the head and every escalated job, in queue
	// order: those slots are the bound backfill must honor. Reserved jobs
	// are not chargeable for skips — their slot is protected, so backfill
	// passing them is not starvation.
	reserved := make(map[job.ID]bool)
	planned := 0
	for i, j := range e.q {
		if i != 0 && !e.escalated[j.ID] {
			continue
		}
		p.place(now, j.Cores, j.ReqWalltime)
		reserved[j.ID] = true
		planned++
		if planned >= maxEscalatedPlans {
			break
		}
	}
	// Backfill underneath the reservations, charging skips to everything
	// the backfilled job jumped.
	const maxBackfillScan = 256
	i := 1
	scanned := 0
	for i < len(e.q) && scanned < maxBackfillScan {
		scanned++
		cand := e.q[i]
		if cand.Cores > s.freeBatch {
			i++
			continue
		}
		if s.startableNow(p, cand) {
			e.chargeSkips(s, e.q[:i], reserved)
			e.removeAt(i)
			e.forget(cand)
			s.probe(ProbeBackfill, cand)
			s.startBatch(cand, "")
			p.subtract(now, now+cand.ReqWalltime, cand.Cores)
			if s.freeBatch == 0 {
				return
			}
			continue
		}
		i++
	}
}

// chargeSkips ages every job a backfill jumped over; crossing the bound
// escalates the job starting with the next pass.
func (e *priorityEngine) chargeSkips(s *Scheduler, jumped []*job.Job, reserved map[job.ID]bool) {
	if e.skips == nil {
		e.skips = make(map[job.ID]int)
	}
	if e.escalated == nil {
		e.escalated = make(map[job.ID]bool)
	}
	for _, j := range jumped {
		if reserved[j.ID] {
			continue
		}
		e.skips[j.ID]++
		e.stats.Skips++
		if !e.escalated[j.ID] && e.skips[j.ID] >= e.maxSkips() {
			e.escalated[j.ID] = true
			e.stats.Escalations++
			s.probe(ProbeAgeEscalate, j)
		}
	}
}
