package sched

import "github.com/tgsim/tgmod/internal/job"

func init() { RegisterEngine("easy", func() PolicyEngine { return &easyEngine{} }) }

// easyEngine implements aggressive (EASY) backfill: jobs start in order
// while they fit; when the head blocks, it gets the earliest feasible
// reservation and later jobs may jump ahead as long as they cannot delay it.
type easyEngine struct {
	fifoQueue
}

func (e *easyEngine) Name() string { return "easy" }

func (e *easyEngine) Schedule(s *Scheduler) { easyPass(s, &e.q) }

// easyPass is the EASY scheduling pass over queue q, shared by the easy and
// fairshare engines (fairshare is purely an ordering refinement on top).
func easyPass(s *Scheduler, q *[]*job.Job) {
	now := s.K.Now()
	p := s.passProfile()
	// Start jobs in order while they fit.
	for len(*q) > 0 {
		head := (*q)[0]
		if !s.startableNow(p, head) {
			break
		}
		*q = (*q)[1:]
		s.startBatch(head, "")
		p.subtract(now, now+head.ReqWalltime, head.Cores)
	}
	if len(*q) == 0 {
		return
	}
	if s.freeBatch == 0 {
		return // nothing can backfill into zero free cores
	}
	// Reserve the earliest feasible slot for the head job, then backfill
	// any later job that can start now without disturbing that slot. The
	// scan depth is capped as production backfill schedulers do: deep
	// queue positions almost never fit, and bounding the scan keeps
	// reschedule cost flat under heavy backlog.
	const maxBackfillScan = 256
	head := (*q)[0]
	shadow, ok := p.earliestFit(now, head.Cores, head.ReqWalltime)
	if ok {
		p.subtract(shadow, shadow+head.ReqWalltime, head.Cores)
	}
	i := 1
	scanned := 0
	for i < len(*q) && scanned < maxBackfillScan {
		scanned++
		cand := (*q)[i]
		// Cheap rejection before the profile query.
		if cand.Cores > s.freeBatch {
			i++
			continue
		}
		if s.startableNow(p, cand) {
			*q = append((*q)[:i], (*q)[i+1:]...)
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
