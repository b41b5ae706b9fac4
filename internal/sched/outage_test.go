package sched

import (
	"testing"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
)

func TestOutageDrainsBeforeWindow(t *testing.T) {
	k, s := newTestSched("easy")
	if err := s.ScheduleOutage(100, 200); err != nil {
		t.Fatal(err)
	}
	// A job that would cross into the window must wait until it ends.
	crosses := mkJob(8, 150, 150)
	s.Submit(crosses)
	// A job that finishes before the window starts immediately.
	fits := mkJob(8, 50, 50)
	s.Submit(fits)
	k.Run()
	if fits.StartTime != 0 {
		t.Errorf("short job start = %v, want 0 (fits before outage)", fits.StartTime)
	}
	if crosses.StartTime != 200 {
		t.Errorf("crossing job start = %v, want 200 (after outage)", crosses.StartTime)
	}
}

func TestOutagePreemptsStragglers(t *testing.T) {
	k, s := newTestSched("easy")
	long := mkJob(8, 500, 500)
	s.Submit(long) // starts at 0, would run to 500
	// Outage announced at t=50 for [100,200): the running job is a
	// straggler and is preempted at 100, restarting at 200.
	k.Schedule(50, func(*des.Kernel) {
		if err := s.ScheduleOutage(100, 200); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if long.Preemptions != 1 {
		t.Errorf("straggler preemptions = %d, want 1", long.Preemptions)
	}
	if long.StartTime != 200 {
		t.Errorf("restart at %v, want 200", long.StartTime)
	}
	if long.State != job.StateCompleted || long.EndTime != 700 {
		t.Errorf("final state %v end %v, want completed at 700", long.State, long.EndTime)
	}
}

func TestOutageValidation(t *testing.T) {
	k, s := newTestSched("easy")
	k.RunUntil(50)
	if err := s.ScheduleOutage(10, 20); err == nil {
		t.Error("outage in the past accepted")
	}
	if err := s.ScheduleOutage(100, 100); err == nil {
		t.Error("empty outage window accepted")
	}
}

func TestOutageDoesNotBlockViz(t *testing.T) {
	k, s := newTestSched("easy")
	if err := s.ScheduleOutage(10, 1000); err != nil {
		t.Fatal(err)
	}
	viz := mkJob(8, 60, 120)
	viz.QOS = job.QOSInteractive
	k.Schedule(20, func(*des.Kernel) { s.Submit(viz) })
	k.Run()
	if viz.StartTime != 20 {
		t.Errorf("viz session start = %v, want 20 (outage must not block viz)", viz.StartTime)
	}
}

func TestEstimateStartSeesOutage(t *testing.T) {
	_, s := newTestSched("easy")
	if err := s.ScheduleOutage(100, 5000); err != nil {
		t.Fatal(err)
	}
	at, ok := s.EstimateStart(8, 200)
	if !ok || at != 5000 {
		t.Errorf("EstimateStart = %v,%v, want 5000,true", at, ok)
	}
}

func TestBackToBackOutages(t *testing.T) {
	k, s := newTestSched("easy")
	if err := s.ScheduleOutage(100, 200); err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleOutage(300, 400); err != nil {
		t.Fatal(err)
	}
	j := mkJob(8, 150, 150)
	k.Schedule(50, func(*des.Kernel) { s.Submit(j) })
	k.Run()
	// [200,300) gap is only 100 long; the 150s job must wait until 400.
	if j.StartTime != 400 {
		t.Errorf("job start = %v, want 400 (gap too short)", j.StartTime)
	}
}

func TestCheckpointRestartPreemption(t *testing.T) {
	k, s := newTestSched("easy")
	s.CheckpointRestart = true
	s.CheckpointInterval = 100
	victim := mkJob(112, 1000, 2000)
	s.Submit(victim) // starts at 0
	urgent := mkJob(112, 100, 100)
	urgent.QOS = job.QOSUrgent
	// Preempt at t=450: 4 checkpoint intervals (400s) are safe; 50s lost.
	k.Schedule(450, func(*des.Kernel) { s.Submit(urgent) })
	k.Run()
	// Victim resumes at 550 with 600s remaining → ends at 1150.
	if victim.EndTime != 1150 {
		t.Errorf("victim end = %v, want 1150 (checkpointed restart)", victim.EndTime)
	}
	if victim.State != job.StateCompleted || victim.Preemptions != 1 {
		t.Errorf("victim state=%v preemptions=%d", victim.State, victim.Preemptions)
	}
}

func TestRestartFromScratchByDefault(t *testing.T) {
	k, s := newTestSched("easy")
	victim := mkJob(112, 1000, 2000)
	s.Submit(victim)
	urgent := mkJob(112, 100, 100)
	urgent.QOS = job.QOSUrgent
	k.Schedule(450, func(*des.Kernel) { s.Submit(urgent) })
	k.Run()
	// Without checkpointing: resumes at 550, full 1000s again → ends 1550.
	if victim.EndTime != 1550 {
		t.Errorf("victim end = %v, want 1550 (full restart)", victim.EndTime)
	}
}
