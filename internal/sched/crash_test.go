package sched

import (
	"testing"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
)

// The test machine has (16-2)*8 = 112 batch cores.

func TestCrashKillsRunningAndBlocksRestarts(t *testing.T) {
	k, s := newTestSched("fcfs")
	j := mkJob(64, 500, 1000)
	s.Submit(j)

	var victims []*job.Job
	k.AtNamed(100, "test-crash", func(*des.Kernel) {
		victims = s.Crash(600)
		for _, v := range victims {
			s.Requeue(v)
		}
	})
	if err := k.RunUntil(des.Forever); err != nil {
		t.Fatal(err)
	}

	if len(victims) != 1 || victims[0] != j {
		t.Fatalf("victims = %v, want the running job", victims)
	}
	if st := s.Stats(); st.Crashes != 1 || st.CrashKills != 1 {
		t.Errorf("crash counters = %d/%d, want 1/1", st.Crashes, st.CrashKills)
	}
	// 100 s of execution on 64 cores was lost (no checkpointing).
	if got := j.WastedCoreSeconds; got != 100*64 {
		t.Errorf("WastedCoreSeconds = %v, want %v", got, 100*64)
	}
	// The requeued job cannot restart before repair at 600; it then runs
	// its full 500 s from scratch.
	if j.State != job.StateCompleted {
		t.Fatalf("job state = %v, want completed", j.State)
	}
	if j.StartTime != 600 || j.EndTime != 1100 {
		t.Errorf("restarted [%v,%v], want [600,1100]", j.StartTime, j.EndTime)
	}
}

// Satellite regression: a crash landing inside an already-scheduled
// maintenance window must merge with it — one window, one outage-end, no
// double-released cores — instead of stacking an independent window.
func TestCrashInsideMaintenanceWindowMerges(t *testing.T) {
	k, s := newTestSched("fcfs")
	if err := s.ScheduleOutage(200, 400); err != nil {
		t.Fatal(err)
	}
	j := mkJob(112, 50, 100)
	var begins, ends int
	s.Probe = func(kind string, _ *job.Job) {
		switch kind {
		case ProbeOutageBegin:
			begins++
		case ProbeOutageEnd:
			ends++
		}
	}

	// Crash at 250, mid-maintenance, with repair at 300 — still inside the
	// window. The window must absorb it entirely.
	k.AtNamed(250, "test-crash", func(*des.Kernel) {
		if got := s.Crash(300); len(got) != 0 {
			t.Errorf("victims during maintenance = %d, want 0 (machine was drained)", len(got))
		}
		if len(s.outages) != 1 {
			t.Errorf("outage windows after contained crash = %d, want 1", len(s.outages))
		}
	})
	// Submit work mid-outage; it must wait for the (single) window to end.
	k.AtNamed(260, "test-submit", func(*des.Kernel) { s.Submit(j) })
	if err := k.RunUntil(des.Forever); err != nil {
		t.Fatal(err)
	}

	if j.StartTime != 400 {
		t.Errorf("job started at %v, want 400 (maintenance end)", j.StartTime)
	}
	if begins != 1 || ends != 1 {
		t.Errorf("outage begin/end probes = %d/%d, want 1/1", begins, ends)
	}
}

func TestCrashExtendingMaintenanceWindow(t *testing.T) {
	k, s := newTestSched("fcfs")
	if err := s.ScheduleOutage(200, 400); err != nil {
		t.Fatal(err)
	}
	j := mkJob(112, 50, 100)
	var ends int
	s.Probe = func(kind string, _ *job.Job) {
		if kind == ProbeOutageEnd {
			ends++
		}
	}

	// Crash at 250 whose repair outlasts the maintenance window: the two
	// merge into [200, 500) and the old end at 400 must NOT release cores.
	k.AtNamed(250, "test-crash", func(*des.Kernel) {
		s.Crash(500)
		if len(s.outages) != 1 {
			t.Errorf("outage windows after merge = %d, want 1", len(s.outages))
		}
	})
	k.AtNamed(260, "test-submit", func(*des.Kernel) { s.Submit(j) })
	if err := k.RunUntil(des.Forever); err != nil {
		t.Fatal(err)
	}

	if j.StartTime != 500 {
		t.Errorf("job started at %v, want 500 (merged window end, not 400)", j.StartTime)
	}
	if ends != 1 {
		t.Errorf("outage-end probes = %d, want 1 (absorbed window must not fire)", ends)
	}
}

func TestOverlappingMaintenanceWindowsMerge(t *testing.T) {
	k, s := newTestSched("fcfs")
	if err := s.ScheduleOutage(100, 300); err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleOutage(200, 450); err != nil {
		t.Fatal(err)
	}
	if len(s.outages) != 1 {
		t.Fatalf("overlapping windows not merged: %d windows", len(s.outages))
	}
	var begins, ends int
	s.Probe = func(kind string, _ *job.Job) {
		switch kind {
		case ProbeOutageBegin:
			begins++
		case ProbeOutageEnd:
			ends++
		}
	}
	j := mkJob(112, 50, 100)
	k.AtNamed(150, "test-submit", func(*des.Kernel) { s.Submit(j) })
	if err := k.RunUntil(des.Forever); err != nil {
		t.Fatal(err)
	}
	if j.StartTime != 450 {
		t.Errorf("job started at %v, want 450 (union end)", j.StartTime)
	}
	if begins != 1 || ends != 1 {
		t.Errorf("begin/end probes = %d/%d, want 1/1", begins, ends)
	}
}

func TestNodeFailureShrinksCapacityAndKills(t *testing.T) {
	k, s := newTestSched("fcfs")
	a := mkJob(60, 1000, 2000)
	b := mkJob(52, 1000, 2000)
	s.Submit(a)
	s.Submit(b) // machine full: 112/112 busy

	k.AtNamed(100, "test-nodefail", func(*des.Kernel) {
		victims := s.FailNodes(50, 600)
		// Survivors must fit 112-50 = 62 cores: the most recently started
		// job (b, by ID tie-break) dies; a (60 cores) survives.
		if len(victims) != 1 || victims[0] != b {
			t.Fatalf("victims = %v, want job b", victims)
		}
	})
	if err := k.RunUntil(des.Forever); err != nil {
		t.Fatal(err)
	}

	if st := s.Stats(); st.NodeFailures != 1 || st.NodeKills != 1 {
		t.Errorf("node-failure counters = %d/%d, want 1/1", st.NodeFailures, st.NodeKills)
	}
	if a.State != job.StateCompleted || a.EndTime != 1000 {
		t.Errorf("survivor a ended %v in state %v, want 1000/completed", a.EndTime, a.State)
	}
	if b.WastedCoreSeconds != 100*52 {
		t.Errorf("b wasted = %v, want %v", b.WastedCoreSeconds, 100*52)
	}
	// b (52 cores) cannot restart while only 62-60 = 2 cores survive; the
	// nodes return at 600 and it restarts then.
	if b.StartTime != 600 || b.EndTime != 1600 {
		t.Errorf("b restarted [%v,%v], want [600,1600]", b.StartTime, b.EndTime)
	}
}

func TestCrashCheckpointCreditAndWaste(t *testing.T) {
	k, s := newTestSched("fcfs")
	s.CheckpointRestart = true
	s.CheckpointInterval = 100
	j := mkJob(64, 1000, 2000)
	s.Submit(j)

	k.AtNamed(450, "test-crash", func(*des.Kernel) {
		for _, v := range s.Crash(500) {
			s.Requeue(v)
		}
	})
	if err := k.RunUntil(des.Forever); err != nil {
		t.Fatal(err)
	}

	// 4 completed checkpoint intervals at crash time: 400 s credited, 50 s
	// of execution on 64 cores lost.
	if j.WastedCoreSeconds != 50*64 {
		t.Errorf("wasted = %v, want %v", j.WastedCoreSeconds, 50*64)
	}
	// Restart at repair (500) with 600 s of work left.
	if j.StartTime != 500 || j.EndTime != 1100 {
		t.Errorf("restart window [%v,%v], want [500,1100]", j.StartTime, j.EndTime)
	}
}

func TestCheckpointOverheadDilatesRuns(t *testing.T) {
	k, s := newTestSched("fcfs")
	s.CheckpointRestart = true
	s.CheckpointInterval = 100
	s.CheckpointOverhead = 10
	j := mkJob(8, 500, 2000)
	s.Submit(j)
	if err := k.RunUntil(des.Forever); err != nil {
		t.Fatal(err)
	}
	// 5 completed intervals cost 10 s each on top of the 500 s of work.
	if j.EndTime != 550 {
		t.Errorf("job ended at %v, want 550", j.EndTime)
	}
	if j.State != job.StateCompleted {
		t.Errorf("state = %v, want completed", j.State)
	}
}

func TestProfileDeductFloorsAtZero(t *testing.T) {
	p := newProfile(0, 100)
	p.deduct(10, 20, 80)
	p.deduct(15, 25, 80) // overlaps: would go negative under subtract
	if got := p.minFree(15, 20); got != 0 {
		t.Errorf("minFree over double-deducted window = %d, want 0", got)
	}
	if got := p.freeAt(22); got != 20 {
		t.Errorf("freeAt(22) = %d, want 20", got)
	}
	if got := p.freeAt(30); got != 100 {
		t.Errorf("freeAt(30) = %d, want 100", got)
	}
}
