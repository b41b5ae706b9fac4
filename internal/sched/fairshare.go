package sched

import (
	"sort"

	"github.com/tgsim/tgmod/internal/job"
)

func init() { RegisterEngine("fairshare", func() PolicyEngine { return &fairshareEngine{} }) }

// fairshareEngine runs EASY over the queue re-ordered by decayed per-user
// usage (lightest consumers first; ties by submit order). The priority
// order is realized by permuting the queue, then delegating to the EASY
// pass — the fairness policy is purely an ordering policy. Usage history
// lives on the Scheduler (fsUsage) so tests and callers can tune the
// half-life without reaching into the engine.
type fairshareEngine struct {
	fifoQueue
}

func (e *fairshareEngine) Name() string { return "fairshare" }

func (e *fairshareEngine) Schedule(s *Scheduler) {
	sort.SliceStable(e.q, func(a, b int) bool {
		ua, ub := s.fsDecayed(e.q[a].User), s.fsDecayed(e.q[b].User)
		if ua != ub {
			return ua < ub
		}
		return e.q[a].SubmitTime < e.q[b].SubmitTime
	})
	easyPass(s, &e.fifoQueue)
}

func (e *fairshareEngine) JobFinished(s *Scheduler, j *job.Job) {
	s.fsCharge(j.User, j.CoreSeconds())
}
