package sched_test

import (
	"fmt"
	"slices"
	"testing"

	"github.com/tgsim/tgmod/internal/experiments"
	"github.com/tgsim/tgmod/internal/faults"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/sched"
	"github.com/tgsim/tgmod/internal/workload"
)

// lifecycleProbe is a workload generator that makes no work: its Start
// subscribes a listener, built by listen, to every scheduler of the run,
// in machine order.
type lifecycleProbe struct {
	listen func(*sched.Scheduler) sched.Listener
}

func (lifecycleProbe) Name() string { return "lifecycle-probe" }

func (p lifecycleProbe) Start(e *workload.Env) {
	ids := make([]string, 0, len(e.Sched))
	for id := range e.Sched {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		s := e.Sched[id]
		s.Subscribe(p.listen(s))
	}
}

// runState is what the lifecycle listener knows about one job: the
// scheduler it runs on (nil when not running) and whether it finished.
type runState struct {
	on       *sched.Scheduler
	finished bool
}

// TestJobLifecycle checks the scheduler half of "every job reaches exactly
// one terminal state" over quick seed 7, for every engine, with and
// without faults: every start is closed by exactly one finish, preemption
// or kill, or the job is still running when the run ends; no job finishes
// twice; and each scheduler's live pooled run records always equal its
// running count.
func TestJobLifecycle(t *testing.T) {
	for _, engine := range sched.EngineNames() {
		for _, withFaults := range []bool{false, true} {
			name := engine
			if withFaults {
				name += "+faults"
			}
			t.Run(name, func(t *testing.T) {
				// Keyed by ID: a run reuses a job object once the job ends.
				jobs := make(map[job.ID]*runState)
				var errs []string
				fail := func(format string, args ...any) {
					if len(errs) < 10 {
						errs = append(errs, fmt.Sprintf(format, args...))
					}
				}
				starts, closes, kills := 0, 0, 0
				listen := func(s *sched.Scheduler) sched.Listener {
					return func(e sched.Event) {
						if live, n := sched.LiveRecords(s), s.RunningCount(); live != n {
							fail("%s at %v: %d live run records, %d running", s.M.ID, s.K.Now(), live, n)
						}
						st := jobs[e.Job.ID]
						if st == nil {
							st = &runState{}
							jobs[e.Job.ID] = st
						}
						switch e.Kind {
						case sched.EventStarted:
							starts++
							if st.on != nil || st.finished {
								fail("job %d started on %s while running=%v finished=%v", e.Job.ID, s.M.ID, st.on != nil, st.finished)
							}
							st.on = s
						case sched.EventFinished, sched.EventPreempted, sched.EventKilled:
							closes++
							if e.Kind == sched.EventKilled {
								kills++
							}
							if st.on != s {
								fail("job %d %v on %s without a start there", e.Job.ID, e.Kind, s.M.ID)
							}
							if e.Kind == sched.EventFinished && st.finished {
								fail("job %d finished twice", e.Job.ID)
							}
							st.on = nil
							st.finished = st.finished || e.Kind == sched.EventFinished
						}
					}
				}
				cfg := experiments.StandardConfig(7, experiments.Quick)
				cfg.Policy = engine
				if withFaults {
					cfg.Faults = faults.DefaultConfig()
					cfg.CheckpointRestart = true
				}
				cfg.Generators = append(cfg.Generators, lifecycleProbe{listen: listen})
				res, err := scenario.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range errs {
					t.Error(e)
				}
				still := make(map[*sched.Scheduler]int)
				for _, st := range jobs {
					if st.on != nil {
						still[st.on]++
					}
				}
				open := 0
				for id, s := range res.Schedulers {
					if still[s] != s.RunningCount() || sched.LiveRecords(s) != s.RunningCount() {
						t.Errorf("%s at the end: %d jobs still started, %d running, %d live run records",
							id, still[s], s.RunningCount(), sched.LiveRecords(s))
					}
					open += s.RunningCount()
				}
				if starts == 0 || starts != closes+open {
					t.Errorf("%d starts, %d closed, %d still running", starts, closes, open)
				}
				if withFaults && kills == 0 {
					t.Error("fault leg vacuous: no job was killed")
				}
				if engine == "easy" && !withFaults {
					// The probe must not perturb the run it watches.
					if ev := res.Kernel.Executed(); ev != 14210 || res.Finished != 5129 {
						t.Errorf("events/jobs = %d/%d, want the quick seed-7 anchors 14210/5129", ev, res.Finished)
					}
				}
			})
		}
	}
}
