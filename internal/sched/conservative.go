package sched

func init() {
	RegisterEngine("conservative", func() PolicyEngine { return &conservativeEngine{} })
}

// conservativeEngine backfills with a reservation for every queued job:
// each job is planned into the profile in FIFO order, so nothing that
// starts now can delay anything queued ahead of it.
type conservativeEngine struct {
	fifoQueue
	// started is Schedule's scratch list of queue indexes to start. The
	// scheduler's rescheduling guard keeps passes from nesting, so one
	// buffer serves every pass.
	started []int
}

func (e *conservativeEngine) Name() string { return "conservative" }

func (e *conservativeEngine) Schedule(s *Scheduler) {
	now := s.K.Now()
	p := s.passProfile()
	// Plan queued jobs in FIFO order; start the ones whose planned start
	// is now. Each plan is committed into the profile so later jobs cannot
	// delay earlier ones. Planning depth is capped: beyond the cap the
	// plan horizon is so distant that a deep job could not start now
	// anyway without jumping earlier jobs, so skipping the bookkeeping
	// preserves behavior while bounding reschedule cost under backlog.
	const maxPlan = 128
	started := e.started[:0]
	pl := planner{p: p, origin: now}
	for idx, j := range e.q {
		if idx >= maxPlan {
			break
		}
		if at, ok := pl.place(j.Cores, j.ReqWalltime); ok && at == now {
			started = append(started, idx)
		}
	}
	e.started = started
	// Remove started jobs from the queue back-to-front to keep indexes valid.
	for i := len(started) - 1; i >= 0; i-- {
		idx := started[i]
		j := e.q[idx]
		e.removeAt(idx)
		s.startBatch(j, "")
	}
}
