package sched

import (
	"testing"
	"testing/quick"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/grid"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/simrand"
)

var nextID job.ID

// testSyms is the symbol table of every job and scheduler the package's
// tests build.
var testSyms = job.NewSymbols()

func mkJob(cores int, run, wall des.Time) *job.Job {
	nextID++
	return &job.Job{
		ID: nextID, Name: testSyms.Intern("t"), User: testSyms.Intern("u"), Project: testSyms.Intern("p"),
		Cores: cores, RunTime: run, ReqWalltime: wall,
	}
}

func testMachine() *grid.Machine {
	return &grid.Machine{
		ID: "m", Site: "s", Nodes: 16, CoresPerNode: 8, // 128 cores
		NUPerCoreHour: 1, UrgentCapable: true, VizNodes: 2,
	}
}

func newTestSched(engine string) (*des.Kernel, *Scheduler) {
	k := des.New()
	return k, MustNamed(k, testSyms, testMachine(), engine)
}

func TestEventKindString(t *testing.T) {
	kinds := map[EventKind]string{
		EventQueued: "queued", EventStarted: "started", EventFinished: "finished",
		EventPreempted: "preempted", EventRejected: "rejected", EventKind(9): "event(9)",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("EventKind %d = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestFCFSRunsInOrder(t *testing.T) {
	k, s := newTestSched("fcfs")
	var order []job.ID
	s.Subscribe(func(e Event) {
		if e.Kind == EventStarted {
			order = append(order, e.Job.ID)
		}
	})
	// Machine has 112 batch cores (14 nodes * 8). Submit 3 jobs of 60
	// cores: only one can run at a time.
	j1 := mkJob(60, 100, 100)
	j2 := mkJob(60, 100, 100)
	j3 := mkJob(60, 100, 100)
	s.Submit(j1)
	s.Submit(j2)
	s.Submit(j3)
	k.Run()
	if len(order) != 3 || order[0] != j1.ID || order[1] != j2.ID || order[2] != j3.ID {
		t.Fatalf("start order = %v", order)
	}
	if j2.StartTime != 100 || j3.StartTime != 200 {
		t.Errorf("start times = %v, %v; want 100, 200", j2.StartTime, j3.StartTime)
	}
	for _, j := range []*job.Job{j1, j2, j3} {
		if j.State != job.StateCompleted {
			t.Errorf("%v not completed", j)
		}
	}
}

func TestFCFSHeadOfLineBlocks(t *testing.T) {
	k, s := newTestSched("fcfs")
	big := mkJob(112, 100, 100)
	blocked := mkJob(100, 10, 10)
	tiny := mkJob(1, 10, 10)
	s.Submit(big)
	s.Submit(blocked)
	s.Submit(tiny) // would fit alongside big, but FCFS must not backfill
	k.Run()
	if tiny.StartTime < 100 {
		t.Errorf("FCFS backfilled: tiny started at %v", tiny.StartTime)
	}
}

func TestEASYBackfills(t *testing.T) {
	k, s := newTestSched("easy")
	big := mkJob(112, 100, 100)  // occupies whole batch partition until 100
	waiter := mkJob(112, 50, 50) // head of queue, reserved at t=100
	filler := mkJob(8, 90, 90)   // fits before the reservation? no cores free
	s.Submit(big)
	s.Submit(waiter)
	s.Submit(filler)
	k.Run()
	// filler cannot run before 100 (no free cores at all), and after big
	// ends the waiter's reservation at t=100 takes the whole machine, so
	// filler runs after waiter.
	if waiter.StartTime != 100 {
		t.Errorf("waiter start = %v, want 100", waiter.StartTime)
	}
	if filler.StartTime != 150 {
		t.Errorf("filler start = %v, want 150", filler.StartTime)
	}
}

func TestEASYBackfillUsesHoles(t *testing.T) {
	k, s := newTestSched("easy")
	// 112 batch cores. big leaves 12 free until t=100.
	big := mkJob(100, 100, 100)
	head := mkJob(112, 100, 100) // must wait for whole machine at t=100
	shortSmall := mkJob(12, 50, 50)
	longSmall := mkJob(12, 200, 200)
	s.Submit(big)
	s.Submit(head)
	s.Submit(shortSmall) // fits in the hole and ends by 100 → backfilled
	s.Submit(longSmall)  // would run past head's reservation → not backfilled
	k.Run()
	if shortSmall.StartTime != 0 {
		t.Errorf("short small job start = %v, want 0 (backfilled)", shortSmall.StartTime)
	}
	if head.StartTime != 100 {
		t.Errorf("head start = %v, want exactly its reservation at 100", head.StartTime)
	}
	if longSmall.StartTime < 100 {
		t.Errorf("long small job start = %v; backfill delayed the head", longSmall.StartTime)
	}
}

func TestConservativeDoesNotDelayAnyEarlier(t *testing.T) {
	k, s := newTestSched("conservative")
	// Construct: j1 uses all cores [0,100). j2 (head of queue) wants all
	// cores → planned [100,200). j3 wants 12 cores for 150 → planned at
	// 200 under conservative (would overlap j2's plan otherwise).
	j1 := mkJob(112, 100, 100)
	j2 := mkJob(112, 100, 100)
	j3 := mkJob(12, 150, 150)
	s.Submit(j1)
	s.Submit(j2)
	s.Submit(j3)
	k.Run()
	if j2.StartTime != 100 {
		t.Errorf("j2 start = %v, want 100", j2.StartTime)
	}
	if j3.StartTime != 200 {
		t.Errorf("j3 start = %v, want 200 (no overlap with j2 plan)", j3.StartTime)
	}
}

func TestConservativeBackfillsWhenHarmless(t *testing.T) {
	k, s := newTestSched("conservative")
	j1 := mkJob(100, 100, 100) // leaves 12 cores idle
	j2 := mkJob(112, 100, 100) // planned at 100
	j3 := mkJob(12, 80, 80)    // fits in [0,80) without delaying j2
	s.Submit(j1)
	s.Submit(j2)
	s.Submit(j3)
	k.Run()
	if j3.StartTime != 0 {
		t.Errorf("harmless backfill start = %v, want 0", j3.StartTime)
	}
	if j2.StartTime != 100 {
		t.Errorf("j2 start = %v, want 100", j2.StartTime)
	}
}

func TestWalltimeKill(t *testing.T) {
	k, s := newTestSched("easy")
	j := mkJob(8, 500, 100) // needs 500s but only requested 100
	s.Submit(j)
	k.Run()
	if j.State != job.StateKilled {
		t.Errorf("state = %v, want killed", j.State)
	}
	if j.EndTime != 100 {
		t.Errorf("killed at %v, want 100", j.EndTime)
	}
}

func TestRejectOversize(t *testing.T) {
	k, s := newTestSched("easy")
	var rejected []*job.Job
	s.Subscribe(func(e Event) {
		if e.Kind == EventRejected {
			rejected = append(rejected, e.Job)
		}
	})
	j := mkJob(10000, 10, 10)
	s.Submit(j)
	k.Run()
	if j.State != job.StateFailed || len(rejected) != 1 {
		t.Errorf("oversize job not rejected: state=%v", j.State)
	}
}

func TestUrgentPreempts(t *testing.T) {
	k, s := newTestSched("easy")
	victim := mkJob(112, 1000, 1000)
	s.Submit(victim)
	urgent := mkJob(50, 100, 100)
	urgent.QOS = job.QOSUrgent
	k.Schedule(10, func(*des.Kernel) { s.Submit(urgent) })
	k.Run()
	if urgent.StartTime != 10 {
		t.Errorf("urgent start = %v, want 10 (immediate)", urgent.StartTime)
	}
	if victim.Preemptions != 1 {
		t.Errorf("victim preemptions = %d, want 1", victim.Preemptions)
	}
	if victim.State != job.StateCompleted {
		t.Errorf("victim final state = %v, want completed after restart", victim.State)
	}
	// Victim restarted after urgent finished: 10 (preempt) → urgent runs
	// [10,110) → victim restarts at 110 and runs 1000 → ends 1110.
	if victim.EndTime != 1110 {
		t.Errorf("victim end = %v, want 1110", victim.EndTime)
	}
	if got := s.Stats().Preemptions; got != 1 {
		t.Errorf("scheduler preemption count = %d, want 1", got)
	}
}

func TestUrgentPrefersFreeCores(t *testing.T) {
	k, s := newTestSched("easy")
	small := mkJob(10, 1000, 1000)
	s.Submit(small)
	urgent := mkJob(50, 10, 10)
	urgent.QOS = job.QOSUrgent
	k.Schedule(5, func(*des.Kernel) { s.Submit(urgent) })
	k.Run()
	if small.Preemptions != 0 {
		t.Error("urgent preempted although free cores sufficed")
	}
	if urgent.StartTime != 5 {
		t.Errorf("urgent start = %v, want 5", urgent.StartTime)
	}
}

func TestUrgentOnNonCapableMachineRejected(t *testing.T) {
	k := des.New()
	m := testMachine()
	m.UrgentCapable = false
	s := MustNamed(k, testSyms, m, "easy")
	u := mkJob(8, 10, 10)
	u.QOS = job.QOSUrgent
	s.Submit(u)
	k.Run()
	if u.State != job.StateFailed {
		t.Errorf("urgent on non-capable machine: state = %v, want failed", u.State)
	}
}

func TestInteractivePartition(t *testing.T) {
	k, s := newTestSched("easy") // 2 viz nodes = 16 cores
	batch := mkJob(112, 1000, 1000)
	s.Submit(batch) // batch partition fully busy
	viz := mkJob(8, 60, 120)
	viz.QOS = job.QOSInteractive
	k.Schedule(1, func(*des.Kernel) { s.Submit(viz) })
	k.Run()
	if viz.StartTime != 1 {
		t.Errorf("viz session start = %v, want 1 (own partition)", viz.StartTime)
	}
	if viz.State != job.StateCompleted {
		t.Errorf("viz state = %v", viz.State)
	}
}

func TestInteractiveQueuesWhenVizFull(t *testing.T) {
	k, s := newTestSched("easy")
	v1 := mkJob(16, 100, 100)
	v1.QOS = job.QOSInteractive
	v2 := mkJob(8, 50, 50)
	v2.QOS = job.QOSInteractive
	s.Submit(v1)
	s.Submit(v2)
	k.Run()
	if v2.StartTime != 100 {
		t.Errorf("second viz session start = %v, want 100", v2.StartTime)
	}
}

func TestReservationBlocksBackfillAndRuns(t *testing.T) {
	k, s := newTestSched("easy")
	if err := s.Reserve("co-1", 112, 100, 200); err != nil {
		t.Fatal(err)
	}
	// A job that would run into the reservation must not start.
	long := mkJob(8, 150, 150)
	s.Submit(long)
	claimed := mkJob(112, 50, 100)
	if err := s.ClaimReservation("co-1", claimed); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if claimed.StartTime != 100 {
		t.Errorf("claimed job start = %v, want reservation start 100", claimed.StartTime)
	}
	// Before t=100 the reservation blocks the 150s job; after activation
	// the claim holds every core until it finishes at 150.
	if long.StartTime != 150 {
		t.Errorf("long job start = %v, want 150 (after the claimed job ends)", long.StartTime)
	}
}

func TestReservationErrors(t *testing.T) {
	k, s := newTestSched("easy")
	if err := s.Reserve("r1", 112, 10, 20); err != nil {
		t.Fatal(err)
	}
	if err := s.Reserve("r1", 1, 30, 40); err == nil {
		t.Error("duplicate reservation id accepted")
	}
	if err := s.Reserve("r2", 112, 15, 25); err == nil {
		t.Error("overlapping full-machine reservation accepted")
	}
	if err := s.Reserve("r3", 0, 30, 40); err == nil {
		t.Error("zero-core reservation accepted")
	}
	if err := s.Reserve("r4", 8, 50, 50); err == nil {
		t.Error("empty-window reservation accepted")
	}
	if err := s.ClaimReservation("nope", mkJob(1, 1, 1)); err == nil {
		t.Error("claim of unknown reservation accepted")
	}
	big := mkJob(113, 1, 1)
	if err := s.ClaimReservation("r1", big); err == nil {
		t.Error("claim larger than reservation accepted")
	}
	ok := mkJob(8, 5, 5)
	if err := s.ClaimReservation("r1", ok); err != nil {
		t.Fatal(err)
	}
	if err := s.ClaimReservation("r1", mkJob(1, 1, 1)); err == nil {
		t.Error("double claim accepted")
	}
	k.Run()
	if ok.State != job.StateCompleted {
		t.Errorf("claimed job state = %v", ok.State)
	}
}

func TestCancelReservation(t *testing.T) {
	k, s := newTestSched("easy")
	if err := s.Reserve("r1", 112, 100, 200); err != nil {
		t.Fatal(err)
	}
	long := mkJob(8, 150, 150)
	s.Submit(long)
	if !s.CancelReservation("r1") {
		t.Fatal("cancel failed")
	}
	if s.CancelReservation("r1") {
		t.Fatal("double cancel succeeded")
	}
	k.Run()
	if long.StartTime != 0 {
		t.Errorf("job start = %v after cancel, want 0", long.StartTime)
	}
}

func TestEstimateStart(t *testing.T) {
	k, s := newTestSched("easy")
	s.Submit(mkJob(112, 100, 100))
	s.Submit(mkJob(112, 100, 100))
	// Estimate for a full-machine job: after both queued jobs → 200.
	at, ok := s.EstimateStart(112, 50)
	if !ok || at != 200 {
		t.Errorf("EstimateStart = %v,%v, want 200,true", at, ok)
	}
	if _, ok := s.EstimateStart(0, 10); ok {
		t.Error("EstimateStart accepted zero cores")
	}
	if _, ok := s.EstimateStart(100000, 10); ok {
		t.Error("EstimateStart accepted impossible cores")
	}
	k.Run()
}

func TestUtilization(t *testing.T) {
	k, s := newTestSched("easy")
	s.Submit(mkJob(56, 100, 100)) // half the batch partition for 100s
	k.Run()
	k.RunUntil(200) // idle for another 100s
	got := s.Utilization()
	if got < 0.24 || got > 0.26 {
		t.Errorf("Utilization = %v, want 0.25", got)
	}
}

func TestSubmitInvalidPanics(t *testing.T) {
	_, s := newTestSched("easy")
	defer func() {
		if recover() == nil {
			t.Error("invalid job submission did not panic")
		}
	}()
	s.Submit(&job.Job{})
}

// TestNoOvercommitProperty drives random workloads through every engine and
// checks the fundamental invariants: cores are never overcommitted, every
// job eventually reaches a terminal state, and started+queue counts add up.
func TestNoOvercommitProperty(t *testing.T) {
	for _, pol := range EngineNames() {
		pol := pol
		f := func(seed uint64) bool {
			r := simrand.New(seed)
			k := des.New()
			s := MustNamed(k, testSyms, testMachine(), pol)
			minFree := 0
			s.Subscribe(func(e Event) {
				if s.FreeBatchCores() < minFree {
					minFree = s.FreeBatchCores()
				}
			})
			n := 50 + r.Intn(100)
			jobs := make([]*job.Job, 0, n)
			for i := 0; i < n; i++ {
				j := mkJob(1+r.Intn(112), des.Time(1+r.Intn(500)), 0)
				j.ReqWalltime = j.RunTime + des.Time(r.Intn(100))
				if r.Bool(0.05) {
					j.ReqWalltime = j.RunTime / 2 // will be walltime-killed
					if j.ReqWalltime <= 0 {
						j.ReqWalltime = 1
					}
				}
				if r.Bool(0.1) {
					j.QOS = job.QOSUrgent
				}
				jobs = append(jobs, j)
				at := des.Time(r.Intn(2000))
				k.At(at, func(*des.Kernel) { s.Submit(j) })
			}
			k.Run()
			if minFree < 0 {
				t.Fatalf("policy %v: batch cores overcommitted (%d)", pol, minFree)
			}
			for _, j := range jobs {
				if !j.State.Terminal() {
					t.Fatalf("policy %v: job %d stuck in state %v", pol, j.ID, j.State)
				}
			}
			return s.FreeBatchCores() == s.M.BatchCores() && s.QueueLen() == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
			t.Errorf("policy %v: %v", pol, err)
		}
	}
}

// TestBackfillNeverDelaysHead verifies the EASY guarantee: the head job's
// start is never later than the shadow time computed when it reached the
// head of the queue.
func TestBackfillNeverDelaysHead(t *testing.T) {
	f := func(seed uint64) bool {
		r := simrand.New(seed)
		k := des.New()
		s := MustNamed(k, testSyms, testMachine(), "easy")
		// Fill the machine, then submit a known head job and random filler.
		base := mkJob(112, 100, 100)
		s.Submit(base)
		head := mkJob(112, 50, 50)
		s.Submit(head)
		// Shadow: head must start at exactly t=100.
		for i := 0; i < 30; i++ {
			j := mkJob(1+r.Intn(56), des.Time(1+r.Intn(400)), 0)
			j.ReqWalltime = j.RunTime
			k.At(des.Time(r.Intn(90)), func(*des.Kernel) { s.Submit(j) })
		}
		k.Run()
		return head.StartTime == 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
