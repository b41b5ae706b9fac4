package sched

import (
	"testing"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
)

// TestPriorityCapabilityFirst: a capability-class job outranks earlier
// capacity submissions once the machine frees up.
func TestPriorityCapabilityFirst(t *testing.T) {
	k := des.New()
	s, err := NewNamed(k, testSyms, testMachine(), "priority")
	if err != nil {
		t.Fatal(err)
	}
	blocker := mkJob(112, 100, 100)
	s.Submit(blocker)
	small := mkJob(8, 100, 100) // class 0, submitted first
	s.Submit(small)
	big := mkJob(112, 100, 100) // class 2, submitted later
	s.Submit(big)
	k.Run()
	if big.StartTime != 100 {
		t.Errorf("capability job start = %v, want 100 (ahead of earlier capacity job)", big.StartTime)
	}
	if small.StartTime != 200 {
		t.Errorf("capacity job start = %v, want 200", small.StartTime)
	}
}

// TestPriorityAgingEscalation: a job jumped by backfill more than MaxSkips
// times escalates and stops being starved — the kube-batch max-skip bound.
func TestPriorityAgingEscalation(t *testing.T) {
	k := des.New()
	e := &priorityEngine{MaxSkips: 2}
	s := NewWith(k, testSyms, testMachine(), e)
	var escalated []*job.Job
	s.Probe = func(kind string, j *job.Job) {
		if kind == ProbeAgeEscalate {
			escalated = append(escalated, j)
		}
	}
	blocker := mkJob(82, 500, 500) // leaves 30 free until t=500
	s.Submit(blocker)
	head := mkJob(112, 100, 100) // class 2: heads the queue, reserved at 500
	s.Submit(head)
	// starving's 600s rectangle overlaps the head's reservation, so only an
	// escalation can start it before the head runs.
	starving := mkJob(25, 600, 600)
	s.Submit(starving)
	var fillers []*job.Job
	for i := 0; i < 4; i++ {
		f := mkJob(10, 50, 50)
		fillers = append(fillers, f)
		at := des.Time(10 + 10*i)
		k.At(at, func(*des.Kernel) { s.Submit(f) })
	}
	k.Run()
	st := s.Stats().Engine
	if st.Escalations != 1 {
		t.Fatalf("escalations = %d, want 1", st.Escalations)
	}
	if len(escalated) != 1 || escalated[0] != starving {
		t.Fatalf("age-escalate probe fired for %v, want the starving job", escalated)
	}
	if st.Skips < 2 {
		t.Errorf("skips = %d, want >= 2", st.Skips)
	}
	// Escalation lifts the job ahead of the capability head: it starts off
	// the free cores long before the head's reservation at t=500.
	if starving.StartTime >= 500 {
		t.Errorf("starving job start = %v, want < 500 (escalated past the head)", starving.StartTime)
	}
	if starving.State != job.StateCompleted {
		t.Errorf("starving job state = %v, want completed", starving.State)
	}
}

// TestPriorityBackfillStillWorks: capacity jobs keep backfilling around a
// blocked capability head like EASY.
func TestPriorityBackfillStillWorks(t *testing.T) {
	k := des.New()
	s, err := NewNamed(k, testSyms, testMachine(), "priority")
	if err != nil {
		t.Fatal(err)
	}
	big := mkJob(100, 100, 100)
	s.Submit(big)
	head := mkJob(112, 100, 100) // waits for whole machine
	s.Submit(head)
	filler := mkJob(12, 50, 50) // fits the hole and ends before 100
	s.Submit(filler)
	k.Run()
	if filler.StartTime != 0 {
		t.Errorf("filler start = %v, want 0 (backfilled)", filler.StartTime)
	}
	if head.StartTime != 100 {
		t.Errorf("head start = %v, want 100 (reservation honored)", head.StartTime)
	}
}

// TestEngineRegistry: all six engines resolve by name and unknown names
// fail.
func TestEngineRegistry(t *testing.T) {
	want := []string{"conservative", "easy", "fairshare", "fcfs", "gang", "priority"}
	got := EngineNames()
	if len(got) != len(want) {
		t.Fatalf("EngineNames = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EngineNames = %v, want %v", got, want)
		}
	}
	for _, n := range want {
		e, err := NewEngine(n)
		if err != nil {
			t.Fatalf("NewEngine(%q): %v", n, err)
		}
		if e.Name() != n {
			t.Errorf("engine %q reports name %q", n, e.Name())
		}
	}
	if _, err := NewEngine("nope"); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := NewNamed(des.New(), testSyms, testMachine(), "nope"); err == nil {
		t.Error("NewNamed accepted unknown engine")
	}
}

// TestOldestQueuedAge tracks the longest-waiting queued job.
func TestOldestQueuedAge(t *testing.T) {
	k := des.New()
	s, err := NewNamed(k, testSyms, testMachine(), "easy")
	if err != nil {
		t.Fatal(err)
	}
	if s.OldestQueuedAge() != 0 {
		t.Error("empty queue should have zero age")
	}
	s.Submit(mkJob(112, 1000, 1000))
	s.Submit(mkJob(112, 100, 100)) // queued behind the first
	k.RunUntil(500)
	if got := s.OldestQueuedAge(); got != 500 {
		t.Errorf("OldestQueuedAge = %v, want 500", got)
	}
}
