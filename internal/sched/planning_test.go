package sched

import (
	"testing"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/grid"
	"github.com/tgsim/tgmod/internal/job"
)

// planningSnapshot returns a scheduler running the named engine at t=1e6 s
// on the 112-core test partition, frozen where no pass can start anything:
// 100 one-core jobs run with staggered guaranteed ends, 1000 jobs of 1–16
// cores queue with walltimes of an hour or more, and a maintenance window
// opens a minute from now. The state is written directly and no kernel
// event ever runs, so repeated passes and estimates see the same state.
func planningSnapshot(tb testing.TB, engine string) *Scheduler {
	tb.Helper()
	k := des.New()
	now := des.Time(1e6)
	k.RunUntil(now)
	s := MustNamed(k, testSyms, testMachine(), engine)
	for i := 0; i < 100; i++ {
		j := mkJob(1, 1, 1)
		s.track(&running{j: j, endsBy: now + des.Time(300*(i+1))})
		s.freeBatch--
	}
	for i := 0; i < 1000; i++ {
		wall := des.Time(3600 * (1 + i%8))
		s.engine.Push(mkJob(1+(i*7)%16, wall, wall))
	}
	if err := s.ScheduleOutage(now+60, now+60+4*des.Hour); err != nil {
		tb.Fatal(err)
	}
	if s.RunningCount() != 100 || s.QueueLen() != 1000 {
		tb.Fatalf("snapshot started work: %d running, %d queued", s.RunningCount(), s.QueueLen())
	}
	return s
}

// BenchmarkEstimateStart measures a metascheduler start-time estimate that
// must replan the whole 1000-job queue: the estimate cache is invalidated
// before every op.
func BenchmarkEstimateStart(b *testing.B) {
	s := planningSnapshot(b, "easy")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.stateVersion++
		if _, ok := s.EstimateStart(32, des.Hour); !ok {
			b.Fatal("no estimate")
		}
	}
}

// BenchmarkSchedulePass measures one scheduling pass of each engine over
// the frozen snapshot, in which every queued job is planned or scanned and
// none starts.
func BenchmarkSchedulePass(b *testing.B) {
	for _, name := range EngineNames() {
		b.Run(name, func(b *testing.B) {
			s := planningSnapshot(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.reschedule()
			}
			if s.QueueLen() != 1000 {
				b.Fatalf("pass started work: %d queued", s.QueueLen())
			}
		})
	}
}

// BenchmarkBuildProfile measures one profile build from 4096 running jobs
// on a 16384-core partition: the sweep over the sorted release list, with
// runs of equal guaranteed ends, plus a reservation and an outage.
func BenchmarkBuildProfile(b *testing.B) {
	k := des.New()
	now := des.Time(1e6)
	k.RunUntil(now)
	m := &grid.Machine{ID: "big", Site: "s", Nodes: 2048, CoresPerNode: 8, GFlopsPerCore: 4, NUPerCoreHour: 1}
	s := MustNamed(k, testSyms, m, "easy")
	for i := 0; i < 4096; i++ {
		j := mkJob(1+i%3, 1, 1)
		s.track(&running{j: j, endsBy: now + des.Time(60*(1+i%1500))})
	}
	s.resvs = append(s.resvs, &reservation{id: "r", cores: 64, start: now + des.Hour, end: now + 3*des.Hour})
	s.outages = append(s.outages, &outage{start: now + des.Day, end: now + des.Day + des.Hour})
	var p profile
	s.buildProfile(&p, now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.buildProfile(&p, now)
	}
}

// TestPlanningAllocationFree pins the planning kernel's steady state at
// zero allocations: once the scheduler's profile buffers and the engines'
// sort and grouping scratch are warm, neither a profile build, an estimate
// or bound rebuild nor any engine's pass allocates.
func TestPlanningAllocationFree(t *testing.T) {
	s := planningSnapshot(t, "easy")
	build := func() { s.buildProfile(&s.pass, s.K.Now()) }
	if n := testing.AllocsPerRun(20, build); n != 0 {
		t.Errorf("warm buildProfile: %v allocs, want 0", n)
	}
	estimate := func() {
		s.stateVersion++
		s.EstimateStart(32, des.Hour)
	}
	if n := testing.AllocsPerRun(20, estimate); n != 0 {
		t.Errorf("warm EstimateStart rebuild: %v allocs, want 0", n)
	}
	bound := func() {
		s.stateVersion++
		s.EstimateBound(32, des.Hour)
	}
	if n := testing.AllocsPerRun(20, bound); n != 0 {
		t.Errorf("warm EstimateBound rebuild: %v allocs, want 0", n)
	}
	for _, name := range EngineNames() {
		s := planningSnapshot(t, name)
		if n := testing.AllocsPerRun(20, s.reschedule); n != 0 {
			t.Errorf("warm %s pass: %v allocs, want 0", name, n)
		}
	}
}

// startFinishCycle returns one start→finish cycle on an idle scheduler
// running engine: submit a job of the given QOS, which starts at once, and
// run the kernel until it finishes. The same job is resubmitted every
// cycle, so after the first one the run record, the queue, the release
// list and the kernel's event nodes all come from warm storage.
func startFinishCycle(tb testing.TB, engine string, qos job.QOS) func() {
	tb.Helper()
	k := des.New()
	s := MustNamed(k, testSyms, testMachine(), engine)
	j := mkJob(8, 60, 120)
	j.QOS = qos
	return func() {
		s.Submit(j)
		if err := k.Run(); err != nil {
			tb.Fatal(err)
		}
		if j.State != job.StateCompleted || s.RunningCount() != 0 {
			tb.Fatalf("cycle ended with the job %v and %d running", j.State, s.RunningCount())
		}
	}
}

// BenchmarkStartFinish measures one warm batch start→finish cycle under
// EASY: submit, pass, start, job-end event, finish and the follow-up pass.
func BenchmarkStartFinish(b *testing.B) {
	cycle := startFinishCycle(b, "easy", job.QOSNormal)
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// TestStartFinishAllocationFree pins a warm start→finish cycle at zero
// allocations: a batch job under the easy and conservative engines, and an
// interactive session on the viz partition.
func TestStartFinishAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		engine string
		qos    job.QOS
	}{
		{"easy", job.QOSNormal},
		{"conservative", job.QOSNormal},
		{"easy", job.QOSInteractive},
	} {
		cycle := startFinishCycle(t, tc.engine, tc.qos)
		if n := testing.AllocsPerRun(20, cycle); n != 0 {
			t.Errorf("warm %s %s start→finish: %v allocs, want 0", tc.engine, tc.qos, n)
		}
	}
}
