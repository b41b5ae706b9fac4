package sched

import (
	"testing"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
)

// mkGangJob tags a job as a member of ensemble campaign key.
func mkGangJob(key string, cores int, run, wall des.Time) *job.Job {
	j := mkJob(cores, run, wall)
	j.Attr.EnsembleID = testSyms.Intern(key)
	return j
}

func newGangSched() (*des.Kernel, *Scheduler, *gangEngine) {
	k := des.New()
	e := &gangEngine{}
	return k, NewWith(k, testSyms, testMachine(), e), e
}

// TestGangAllOrNothing: once any member of a campaign is blocked, queued
// members wait for each other and launch together; untagged work still
// backfills around the assembling gang.
func TestGangAllOrNothing(t *testing.T) {
	k, s, _ := newGangSched()
	b1 := mkJob(60, 150, 150) // [0,150)
	b2 := mkJob(40, 50, 50)   // [0,50): 12 of 112 free while both run
	s.Submit(b1)
	s.Submit(b2)
	g1 := mkGangJob("ens-A", 30, 200, 200)
	g2 := mkGangJob("ens-A", 30, 200, 200)
	g3 := mkGangJob("ens-A", 30, 200, 200)
	s.Submit(g1) // 30 > 12 free: blocked, gang assembles
	s.Submit(g2)
	s.Submit(g3)
	filler := mkJob(20, 50, 50)
	k.AtNamed(60, "test-filler", func(*des.Kernel) { s.Submit(filler) })
	k.Run()
	// At t=50 b2 ends (52 free): one member is held but the gang (90 cores)
	// must wait for b1; everyone launches together at 150.
	for _, g := range []*job.Job{g1, g2, g3} {
		if g.StartTime != 150 {
			t.Errorf("gang member %d start = %v, want 150 (all-or-nothing)", g.ID, g.StartTime)
		}
	}
	if filler.StartTime != 60 {
		t.Errorf("filler start = %v, want 60 (backfilled around assembly)", filler.StartTime)
	}
	st := s.Stats().Engine
	if st.GangStarts != 1 {
		t.Errorf("gang starts = %d, want 1", st.GangStarts)
	}
	if st.GangHolds == 0 {
		t.Error("no assembly holds were placed")
	}
}

// TestGangHoldsBlockBackfill: a hold placed for an assembling gang keeps
// backfill from stealing the held cores even when a candidate would fit.
func TestGangHoldsBlockBackfill(t *testing.T) {
	k, s, _ := newGangSched()
	b1 := mkJob(60, 150, 150)
	b2 := mkJob(40, 50, 50)
	s.Submit(b1)
	s.Submit(b2)
	g1 := mkGangJob("ens-B", 30, 200, 200) // held once b2 ends (30 <= 52 free)
	g2 := mkGangJob("ens-B", 60, 200, 200) // needs b1 gone
	s.Submit(g1)
	s.Submit(g2)
	thief := mkJob(30, 80, 80) // would fit in the 52 free cores at t=60
	k.AtNamed(60, "test-thief", func(*des.Kernel) { s.Submit(thief) })
	k.Run()
	if g1.StartTime != 150 || g2.StartTime != 150 {
		t.Errorf("gang started [%v,%v], want both at 150", g1.StartTime, g2.StartTime)
	}
	if thief.StartTime < 150 {
		t.Errorf("backfill stole held cores: thief started at %v", thief.StartTime)
	}
}

// TestGangCrashMidAssemblyReleasesHoldsAtomically is the satellite
// regression: a crash landing while a gang is assembling must void every
// member hold at once. The requeued work reassembles after repair; no
// stale hold pins cores or corrupts the planning profile.
func TestGangCrashMidAssemblyReleasesHoldsAtomically(t *testing.T) {
	k, s, e := newGangSched()
	b1 := mkJob(60, 200, 200)
	b2 := mkJob(40, 50, 50)
	s.Submit(b1)
	s.Submit(b2)
	g1 := mkGangJob("ens-C", 30, 150, 150)
	g2 := mkGangJob("ens-C", 30, 150, 150)
	g3 := mkGangJob("ens-C", 30, 150, 150)
	s.Submit(g1)
	s.Submit(g2)
	s.Submit(g3)
	// b2 ends at 50 → a member hold exists when the crash lands at 60.
	k.AtNamed(60, "test-crash", func(*des.Kernel) {
		if len(e.held) == 0 {
			t.Fatal("expected assembly holds before the crash")
		}
		victims := s.Crash(100)
		if len(e.held) != 0 {
			t.Errorf("%d holds survived the crash (atomic release violated)", len(e.held))
		}
		if len(victims) != 1 || victims[0] != b1 {
			t.Fatalf("victims = %v, want the running blocker", victims)
		}
		for _, v := range victims {
			s.Requeue(v)
		}
	})
	// Backfill must still work around the reassembling gang after repair.
	late := mkJob(10, 20, 20)
	k.AtNamed(280, "test-late", func(*des.Kernel) { s.Submit(late) })
	if err := k.RunUntil(des.Forever); err != nil {
		t.Fatal(err)
	}
	// Repair at 100: the requeued blocker restarts and runs to 300; the
	// gang reassembles (fresh holds) and co-starts when it ends.
	if b1.StartTime != 100 {
		t.Errorf("blocker restarted at %v, want 100 (repair)", b1.StartTime)
	}
	if g1.StartTime != 300 || g2.StartTime != 300 || g3.StartTime != 300 {
		t.Errorf("gang restarted [%v,%v,%v], want all at 300",
			g1.StartTime, g2.StartTime, g3.StartTime)
	}
	if late.StartTime != 280 {
		t.Errorf("late job start = %v, want 280 (backfilled, no stale hold)", late.StartTime)
	}
	for _, j := range []*job.Job{b1, g1, g2, g3, late} {
		if j.State != job.StateCompleted {
			t.Errorf("job %d state = %v, want completed", j.ID, j.State)
		}
	}
}

// TestGangRequeueKeepsCampaignContiguous: a requeued member re-enters next
// to its queued gang peers rather than at the absolute front.
func TestGangRequeueKeepsCampaignContiguous(t *testing.T) {
	_, _, e := newGangSched()
	solo := mkJob(8, 10, 10)
	p1 := mkGangJob("ens-D", 8, 10, 10)
	p2 := mkGangJob("ens-D", 8, 10, 10)
	e.Push(solo)
	e.Push(p1)
	e.Push(p2)
	back := mkGangJob("ens-D", 8, 10, 10)
	e.PushFront(back)
	want := []*job.Job{solo, back, p1, p2}
	for i, j := range e.Queued() {
		if j != want[i] {
			t.Fatalf("queue[%d] = job %d, want job %d (campaign-aware requeue)", i, j.ID, want[i].ID)
		}
	}
	// Untagged requeues go to the true front.
	urgentBack := mkJob(4, 5, 5)
	e.PushFront(urgentBack)
	if e.Queued()[0] != urgentBack {
		t.Error("untagged requeue not at queue head")
	}
}

// TestGangOversizedDegeneratesToFCFS: a gang wider than the machine can
// never co-start; its members run FCFS-style instead of deadlocking.
func TestGangOversizedDegeneratesToFCFS(t *testing.T) {
	k, s, _ := newGangSched()
	blocker := mkJob(112, 50, 50)
	s.Submit(blocker)
	g1 := mkGangJob("ens-E", 60, 100, 100)
	g2 := mkGangJob("ens-E", 60, 100, 100) // 120 > 112 batch cores
	s.Submit(g1)
	s.Submit(g2)
	k.Run()
	if g1.StartTime != 50 {
		t.Errorf("first member start = %v, want 50", g1.StartTime)
	}
	if g2.StartTime != 150 {
		t.Errorf("second member start = %v, want 150 (serialized)", g2.StartTime)
	}
	for _, g := range []*job.Job{g1, g2} {
		if g.State != job.StateCompleted {
			t.Errorf("member %d state = %v", g.ID, g.State)
		}
	}
}
