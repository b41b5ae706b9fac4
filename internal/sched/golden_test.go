package sched

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/simrand"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite sched golden trace files")

// goldenTrace drives one scheduler through a fixed synthetic campaign —
// batch/urgent/viz submissions, a claimed and a cancelled reservation,
// estimator probes, and (on the faults leg) crashes, node failures, and a
// maintenance window with a crash merging into it — and renders every
// lifecycle event, probe decision, and final job outcome as one text trace.
// The trace is the refactor contract: re-expressing a policy as an engine
// must leave these bytes untouched.
func goldenTrace(t *testing.T, engineName string, faults bool) string {
	t.Helper()
	k := des.New()
	s := newGoldenSched(t, k, engineName)

	var b strings.Builder
	stamp := func(format string, args ...any) {
		fmt.Fprintf(&b, "t=%v ", float64(k.Now()))
		fmt.Fprintf(&b, format, args...)
		b.WriteByte('\n')
	}
	s.Subscribe(func(e Event) { stamp("event=%s job=%d", e.Kind, e.Job.ID) })
	s.Probe = func(kind string, j *job.Job) {
		if j != nil {
			stamp("probe=%s job=%d", kind, j.ID)
		} else {
			stamp("probe=%s", kind)
		}
	}

	// Local ID space so traces do not depend on what other tests allocate
	// from the package-level counter.
	id := job.ID(90000)
	var jobs []*job.Job
	mk := func(cores int, run, wall des.Time, user string) *job.Job {
		id++
		j := &job.Job{
			ID: id, Name: testSyms.Intern("g"), User: testSyms.Intern(user), Project: testSyms.Intern("p"),
			Cores: cores, RunTime: run, ReqWalltime: wall,
		}
		jobs = append(jobs, j)
		return j
	}

	r := simrand.New(0x901d)
	users := []string{"ua", "ub", "uc", "ud", "ue"}
	for i := 0; i < 140; i++ {
		cores := 1 + r.Intn(112)
		run := des.Time(1 + r.Intn(4000))
		wall := run + des.Time(r.Intn(1200))
		if r.Bool(0.06) {
			wall = run / 2 // walltime-kill leg
			if wall <= 0 {
				wall = 1
			}
		}
		j := mk(cores, run, wall, users[r.Intn(len(users))])
		switch {
		case r.Bool(0.05):
			j.QOS = job.QOSUrgent
		case r.Bool(0.05):
			j.QOS = job.QOSInteractive
			if j.Cores > 16 {
				j.Cores = 1 + r.Intn(16)
			}
		}
		at := des.Time(r.Intn(30000))
		k.At(at, func(*des.Kernel) { s.Submit(j) })
	}

	// One claimed and one cancelled advance reservation.
	if err := s.Reserve("gold-rsv", 64, 8000, 9000); err != nil {
		t.Fatal(err)
	}
	claim := mk(48, 600, 900, "ua")
	if err := s.ClaimReservation("gold-rsv", claim); err != nil {
		t.Fatal(err)
	}
	if err := s.Reserve("gold-cxl", 32, 15000, 16000); err != nil {
		t.Fatal(err)
	}
	k.AtNamed(14000, "g-cancel", func(*des.Kernel) { s.CancelReservation("gold-cxl") })

	// Estimator probes pin the queue order the planner sees (fairshare
	// permutes the queue in place; that visibility is part of the contract).
	for _, at := range []des.Time{1000, 6000, 16000, 25000} {
		at := at
		k.AtNamed(at, "g-estimate", func(*des.Kernel) {
			for _, req := range [][2]des.Time{{32, 3600}, {112, 600}} {
				est, ok := s.EstimateStart(int(req[0]), req[1])
				stamp("estimate cores=%d wall=%v at=%v ok=%v", int(req[0]), float64(req[1]), float64(est), ok)
			}
		})
	}

	if faults {
		k.AtNamed(5000, "g-crash", func(*des.Kernel) {
			for _, v := range s.Crash(5600) {
				s.Requeue(v)
			}
		})
		k.AtNamed(12000, "g-nodefail", func(*des.Kernel) { s.FailNodes(40, 13000) })
		if err := s.ScheduleOutage(20000, 21000); err != nil {
			t.Fatal(err)
		}
		// A crash inside the maintenance window whose repair outlasts it:
		// exercises the window-merge path under every engine.
		k.AtNamed(20500, "g-crash2", func(*des.Kernel) {
			for _, v := range s.Crash(22000) {
				s.Requeue(v)
			}
		})
	}

	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	sort.Slice(jobs, func(a, bb int) bool { return jobs[a].ID < jobs[bb].ID })
	for _, j := range jobs {
		fmt.Fprintf(&b, "job=%d state=%s start=%v end=%v preempt=%d wasted=%v\n",
			j.ID, j.State, float64(j.StartTime), float64(j.EndTime), j.Preemptions, j.WastedCoreSeconds)
	}
	fmt.Fprintf(&b, "counters %s\n", goldenCounters(s))
	return b.String()
}

// TestGoldenTraces locks the four legacy policies to their pre-refactor
// behavior — and the gang and priority engines to their introduced
// behavior — byte for byte, with and without fault injection. Regenerate
// with -update-golden ONLY for an intentional behavior change.
func TestGoldenTraces(t *testing.T) {
	for _, name := range []string{"fcfs", "easy", "conservative", "fairshare", "gang", "priority"} {
		for _, faults := range []bool{false, true} {
			label := name
			if faults {
				label += "_faults"
			}
			name, faults := name, faults
			t.Run(label, func(t *testing.T) {
				got := goldenTrace(t, name, faults)
				// Same-seed determinism first: a flaky trace must never
				// be committed as a golden.
				if again := goldenTrace(t, name, faults); again != got {
					t.Fatal("trace not deterministic across same-seed runs")
				}
				path := filepath.Join("testdata", label+".trace")
				if *updateGolden {
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (run with -update-golden): %v", err)
				}
				if got != string(want) {
					t.Fatalf("trace drifted from golden %s:\n%s", path, firstDiff(got, string(want)))
				}
			})
		}
	}
}

// newGoldenSched builds the scheduler under test from an engine name.
func newGoldenSched(t *testing.T, k *des.Kernel, name string) *Scheduler {
	t.Helper()
	s, err := NewNamed(k, testSyms, testMachine(), name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// goldenCounters renders the scheduler's lifetime counters.
func goldenCounters(s *Scheduler) string {
	st := s.Stats()
	return fmt.Sprintf("started=%d finished=%d preemptions=%d crashes=%d crashkills=%d nodefails=%d nodekills=%d",
		st.Started, st.Finished, st.Preemptions, st.Crashes, st.CrashKills, st.NodeFailures, st.NodeKills)
}

// firstDiff renders the first divergent line between two traces.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	n := len(g)
	if len(w) < n {
		n = len(w)
	}
	for i := 0; i < n; i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(g), len(w))
}
