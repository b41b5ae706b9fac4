package sched

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/simrand"
)

// checkQueue fails unless f holds exactly want, as a window of its backing
// array that pins no job outside the window.
func checkQueue(t *testing.T, f *fifoQueue, want []*job.Job) bool {
	t.Helper()
	if !slices.Equal(f.q, want) {
		t.Logf("queue %v, want %v", f.q, want)
		return false
	}
	if len(f.buf) != cap(f.buf) || f.off+len(f.q) > len(f.buf) || cap(f.q) != len(f.buf)-f.off {
		t.Logf("window off=%d len=%d cap=%d outside buf of %d", f.off, len(f.q), cap(f.q), len(f.buf))
		return false
	}
	for i, j := range f.buf {
		if (i < f.off || i >= f.off+len(f.q)) && j != nil {
			t.Logf("slot %d outside the window still holds job %d", i, j.ID)
			return false
		}
	}
	return true
}

// TestFifoQueueMatchesSlice drives random pushes, head pops, front pushes,
// inserts and removals through a fifoQueue and a plain slice, which must
// agree after every step.
func TestFifoQueueMatchesSlice(t *testing.T) {
	prop := func(seed uint64) bool {
		r := simrand.New(seed)
		var f fifoQueue
		var want []*job.Job
		for step := 0; step < 400; step++ {
			n := len(want)
			switch op := r.Intn(6); {
			case op <= 1:
				j := mkJob(1, 1, 1)
				f.Push(j)
				want = append(want, j)
			case op == 2:
				j := mkJob(1, 1, 1)
				f.PushFront(j)
				want = slices.Insert(want, 0, j)
			case op == 3 && n > 0:
				i := r.Intn(n + 1)
				j := mkJob(1, 1, 1)
				f.insert(i, j)
				want = slices.Insert(want, i, j)
			case op == 4 && n > 0:
				f.popFront()
				want = want[1:]
			case op == 5 && n > 0:
				i := r.Intn(n)
				f.removeAt(i)
				want = slices.Delete(want, i, i+1)
			}
			if !checkQueue(t, &f, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFifoQueueKeepsArray: a queue that stays below its high-water depth
// allocates nothing, whether the head is popped and the tail pushed, a
// job is requeued at the front, or one leaves from the middle.
func TestFifoQueueKeepsArray(t *testing.T) {
	var f fifoQueue
	jobs := make([]*job.Job, 64)
	for i := range jobs {
		jobs[i] = mkJob(1, 1, 1)
		f.Push(jobs[i])
	}
	cycle := func() {
		j := f.q[0]
		f.popFront()
		f.Push(j)
		j = f.q[0]
		f.popFront()
		f.PushFront(j)
		j = f.q[len(f.q)/2]
		f.removeAt(len(f.q) / 2)
		f.Push(j)
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("steady queue cycle: %v allocs, want 0", n)
	}
	if f.Len() != len(jobs) {
		t.Errorf("queue holds %d jobs, want %d", f.Len(), len(jobs))
	}
}

// TestRunRecordReleasedTwicePanics: releasing a pooled run record that is
// already in the pool is a lifecycle bug, not a no-op.
func TestRunRecordReleasedTwicePanics(t *testing.T) {
	s := MustNamed(des.New(), testSyms, testMachine(), "easy")
	r := s.acquire(mkJob(1, 1, 1), 1, false, false)
	s.release(r)
	if s.liveRecords() != 0 {
		t.Fatalf("%d live records after the release, want 0", s.liveRecords())
	}
	defer func() {
		if recover() == nil {
			t.Error("second release did not panic")
		}
	}()
	s.release(r)
}
