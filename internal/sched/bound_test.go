package sched

import (
	"testing"
	"testing/quick"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/simrand"
)

// randomQueue pushes a random queue onto s's engine: empty, shallow, or
// deeper than the estimator's 1000-job detail depth, so the backlog tail
// is exercised too.
func randomQueue(r *simrand.Stream, s *Scheduler) {
	depth := r.Intn(40)
	switch r.Intn(4) {
	case 0:
		depth = 0
	case 1:
		depth = 1000 + r.Intn(40)
	}
	for i := 0; i < depth; i++ {
		wall := des.Time(1 + r.Intn(400))
		s.engine.Push(mkJob(1+r.Intn(s.M.BatchCores()), wall, wall))
	}
}

// boundHolds reports whether EstimateBound is a lower bound on
// EstimateStart for a few random requests at the scheduler's current
// instant — never later, and never without a value when the estimate has
// one — and whether, once the plan is built, the bound is the estimate.
// Each request first drops the built plan (keeping its pinned origin, so
// the estimate rebuilds the same plan) to bound from the queue-free
// profile.
func boundHolds(t *testing.T, r *simrand.Stream, s *Scheduler) bool {
	for q := 0; q < 6; q++ {
		s.estPlanned = false
		cores := 1 + r.Intn(s.M.BatchCores())
		wall := des.Time(1 + r.Intn(300))
		bound, bok := s.EstimateBound(cores, wall)
		est, eok := s.EstimateStart(cores, wall)
		exact, xok := s.EstimateBound(cores, wall)
		if eok && (!bok || bound > est) || exact != est || xok != eok {
			t.Logf("at %v: %d cores × %v: bound %v (%v), estimate %v (%v), bound after %v (%v)",
				s.K.Now(), cores, wall, bound, bok, est, eok, exact, xok)
			return false
		}
	}
	return true
}

// TestEstimateBoundProperty: on random states (running jobs, reservations,
// node losses, outages, queues under and over the detail depth) the bound
// never exceeds the estimate — with a fresh cache, with a plan cached at
// an earlier instant, and with only the origin pinned at an earlier
// instant by a bound.
func TestEstimateBoundProperty(t *testing.T) {
	f := func(seed uint64, pin uint8) bool {
		r := simrand.New(seed)
		s := randomSchedState(r)
		randomQueue(r, s)
		// Pin the origin now, by an estimate or by a bound alone, or not
		// at all, and read later or at once. The state is frozen, so only
		// a read at the pinned origin's version is meaningful later: no
		// event has run to finish the jobs whose ends pass meanwhile.
		switch pin % 3 {
		case 1:
			s.EstimateStart(1, 1)
		case 2:
			s.EstimateBound(1, 1)
		}
		if pin%3 != 0 {
			s.K.RunUntil(s.K.Now() + des.Time(r.Intn(300)))
		}
		return boundHolds(t, r, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEstimateBoundPinsOrigin: a bound leaves the estimate cache where an
// estimate would have. Two copies of a random state, one estimated and one
// only bounded at the same instant, give identical estimates at a later
// instant with no state change in between — the plan both read is the one
// pinned at the earlier instant.
func TestEstimateBoundPinsOrigin(t *testing.T) {
	f := func(seed uint64) bool {
		build := func() (*Scheduler, *simrand.Stream) {
			r := simrand.New(seed)
			s := randomSchedState(r)
			randomQueue(r, s)
			return s, r
		}
		estimated, r := build()
		bounded, _ := build()
		cores, wall := 1+r.Intn(estimated.M.BatchCores()), des.Time(1+r.Intn(300))
		estimated.EstimateStart(cores, wall)
		bounded.EstimateBound(cores, wall)
		later := estimated.K.Now() + des.Time(1+r.Intn(300))
		estimated.K.RunUntil(later)
		bounded.K.RunUntil(later)
		for q := 0; q < 6; q++ {
			cores, wall := 1+r.Intn(estimated.M.BatchCores()), des.Time(1+r.Intn(300))
			a, aok := estimated.EstimateStart(cores, wall)
			b, bok := bounded.EstimateStart(cores, wall)
			if a != b || aok != bok {
				t.Logf("%d cores × %v at %v: %v (%v) after an estimate, %v (%v) after a bound",
					cores, wall, later, a, aok, b, bok)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
