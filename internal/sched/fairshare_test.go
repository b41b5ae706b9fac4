package sched

import (
	"testing"

	"github.com/tgsim/tgmod/internal/des"
)

// TestFairShareFavorsLightUsers: after a heavy user consumes the machine,
// a light user's queued job jumps ahead of the heavy user's next job even
// though it was submitted later.
func TestFairShareFavorsLightUsers(t *testing.T) {
	k, s := newTestSched("fairshare")
	// Heavy usage history for "hog": one full-machine run.
	first := mkJob(112, 1000, 1000)
	first.User = testSyms.Intern("hog")
	s.Submit(first)
	// While it runs, hog queues another full-machine job...
	second := mkJob(112, 100, 100)
	second.User = testSyms.Intern("hog")
	k.Schedule(10, func(*des.Kernel) { s.Submit(second) })
	// ...and later a light user queues one too.
	light := mkJob(112, 100, 100)
	light.User = testSyms.Intern("newcomer")
	k.Schedule(20, func(*des.Kernel) { s.Submit(light) })
	k.Run()
	if light.StartTime != 1000 {
		t.Errorf("light user start = %v, want 1000 (ahead of hog's second job)", light.StartTime)
	}
	if second.StartTime != 1100 {
		t.Errorf("hog's second job start = %v, want 1100", second.StartTime)
	}
}

// TestFairShareDecay: usage fades over time; after several half-lives the
// hog is effectively a fresh user again and FIFO order prevails.
func TestFairShareDecay(t *testing.T) {
	k, s := newTestSched("fairshare")
	s.FairShareHalfLife = des.Hour
	first := mkJob(112, 1000, 1000)
	first.User = testSyms.Intern("hog")
	s.Submit(first)
	// A long time later (many half-lives), hog submits before newcomer;
	// with decayed usage, submit order decides.
	second := mkJob(112, 100, 100)
	second.User = testSyms.Intern("hog")
	light := mkJob(112, 100, 100)
	light.User = testSyms.Intern("newcomer")
	// Busy job occupies machine so both queue.
	blocker := mkJob(112, 1000, 1000)
	blocker.User = testSyms.Intern("other")
	at := des.Time(100 * 3600)
	k.At(at, func(*des.Kernel) { s.Submit(blocker) })
	k.At(at+1, func(*des.Kernel) { s.Submit(second) })
	k.At(at+2, func(*des.Kernel) { s.Submit(light) })
	k.Run()
	if !(second.StartTime < light.StartTime) {
		t.Errorf("after decay, submit order should win: hog=%v newcomer=%v",
			second.StartTime, light.StartTime)
	}
}

// TestFairShareStillBackfills: the fairness ordering must not disable
// backfilling.
func TestFairShareStillBackfills(t *testing.T) {
	k, s := newTestSched("fairshare")
	big := mkJob(100, 100, 100)
	s.Submit(big)
	head := mkJob(112, 100, 100) // waits for whole machine
	s.Submit(head)
	filler := mkJob(12, 50, 50) // fits in the 12-core hole, ends before 100
	s.Submit(filler)
	k.Run()
	if filler.StartTime != 0 {
		t.Errorf("filler start = %v, want 0 (backfilled)", filler.StartTime)
	}
}
