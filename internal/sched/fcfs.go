package sched

func init() { RegisterEngine("fcfs", func() PolicyEngine { return &fcfsEngine{} }) }

// fcfsEngine runs the queue in strict first-come first-served order: the
// head either starts or blocks everything behind it.
type fcfsEngine struct {
	fifoQueue
}

func (e *fcfsEngine) Name() string { return "fcfs" }

func (e *fcfsEngine) Schedule(s *Scheduler) {
	p := s.passProfile()
	for len(e.q) > 0 {
		head := e.q[0]
		if !s.startableNow(p, head) {
			return
		}
		e.q = e.q[1:]
		s.startBatch(head, "")
		p.subtract(s.K.Now(), s.K.Now()+head.ReqWalltime, head.Cores)
	}
}
