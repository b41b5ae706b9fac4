package sched

import (
	"cmp"
	"slices"

	"github.com/tgsim/tgmod/internal/des"
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
	// keys is the pass's sort scratch: one key per queued job, so each
	// user's decayed usage is computed once per job, not per comparison.
	keys []fsKey
}

// fsKey is one queued job's fair-share sort key.
type fsKey struct {
	usage  float64
	submit des.Time
	j      *job.Job
}

func (e *fairshareEngine) Name() string { return "fairshare" }

func (e *fairshareEngine) Schedule(s *Scheduler) {
	keys := e.keys[:0]
	for _, j := range e.q {
		keys = append(keys, fsKey{s.fsDecayed(j.User), j.SubmitTime, j})
	}
	slices.SortStableFunc(keys, func(a, b fsKey) int {
		return cmp.Or(cmp.Compare(a.usage, b.usage), cmp.Compare(a.submit, b.submit))
	})
	for i := range keys {
		e.q[i] = keys[i].j
	}
	e.keys = keys
	easyPass(s, &e.fifoQueue)
}

func (e *fairshareEngine) JobFinished(s *Scheduler, j *job.Job) {
	s.fsCharge(j.User, j.CoreSeconds())
}
