package sched

import (
	"testing"

	"github.com/tgsim/tgmod/internal/des"
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
	s := MustNamed(k, testMachine(), engine)
	for i := 0; i < 100; i++ {
		j := mkJob(1, 1, 1)
		s.running[j.ID] = &running{j: j, endsBy: now + des.Time(300*(i+1))}
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

// TestPlanningAllocationFree pins the planning kernel's steady state at
// zero allocations: once the scheduler's profile buffers are warm, neither
// an estimate rebuild nor an easy or conservative pass allocates.
func TestPlanningAllocationFree(t *testing.T) {
	s := planningSnapshot(t, "easy")
	estimate := func() {
		s.stateVersion++
		s.EstimateStart(32, des.Hour)
	}
	if n := testing.AllocsPerRun(20, estimate); n != 0 {
		t.Errorf("warm EstimateStart rebuild: %v allocs, want 0", n)
	}
	for _, name := range []string{"easy", "conservative"} {
		s := planningSnapshot(t, name)
		if n := testing.AllocsPerRun(20, s.reschedule); n != 0 {
			t.Errorf("warm %s pass: %v allocs, want 0", name, n)
		}
	}
}
