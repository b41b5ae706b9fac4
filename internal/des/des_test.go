package des

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0:00:00:00"},
		{61, "0:00:01:01"},
		{Day + Hour + Minute + Second, "1:01:01:01"},
		{-61, "-0:00:01:01"},
		{0.5, "0:00:00:00.500"},
		{61.25, "0:00:01:01.250"},
		{1.9996, "0:00:00:02"}, // rounds up to the next whole second
		{-0.5, "-0:00:00:00.500"},
		{Forever, "forever"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestScheduleOrdering(t *testing.T) {
	k := New()
	var got []int
	k.Schedule(10, func(*Kernel) { got = append(got, 2) })
	k.Schedule(5, func(*Kernel) { got = append(got, 1) })
	k.Schedule(20, func(*Kernel) { got = append(got, 3) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", got, want)
		}
	}
	if k.Now() != 20 {
		t.Errorf("Now() = %v after run, want 20", k.Now())
	}
	if k.Executed() != 3 {
		t.Errorf("Executed() = %d, want 3", k.Executed())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	k := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.Schedule(7, func(*Kernel) { got = append(got, i) })
	}
	k.Run()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-time events did not run in scheduling order: %v", got)
	}
}

func TestAtClampsPast(t *testing.T) {
	k := New()
	fired := Time(-1)
	k.Schedule(10, func(k *Kernel) {
		k.At(3, func(k *Kernel) { fired = k.Now() }) // in the past
	})
	k.Run()
	if fired != 10 {
		t.Errorf("past event fired at %v, want clamped to 10", fired)
	}
}

func TestCancel(t *testing.T) {
	k := New()
	ran := false
	tm := k.Schedule(5, func(*Kernel) { ran = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending before run")
	}
	if !k.Cancel(tm) {
		t.Fatal("Cancel returned false for a pending timer")
	}
	if k.Cancel(tm) {
		t.Fatal("second Cancel should return false")
	}
	k.Run()
	if ran {
		t.Error("canceled event still ran")
	}
}

func TestRunUntil(t *testing.T) {
	k := New()
	var count int
	for i := 1; i <= 10; i++ {
		k.Schedule(Time(i), func(*Kernel) { count++ })
	}
	k.RunUntil(5)
	if count != 5 {
		t.Errorf("events run by t=5: %d, want 5", count)
	}
	if k.Now() != 5 {
		t.Errorf("Now() = %v, want 5", k.Now())
	}
	k.RunUntil(100)
	if count != 10 {
		t.Errorf("events run by t=100: %d, want 10", count)
	}
	if k.Now() != 100 {
		t.Errorf("Now() = %v, want clock advanced to 100", k.Now())
	}
}

func TestTicker(t *testing.T) {
	k := New()
	var ticks []Time
	k.EveryNamed(10, "", func(k *Kernel) { ticks = append(ticks, k.Now()) })
	k.RunUntil(40)
	want := []Time{10, 20, 30, 40}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTracer(t *testing.T) {
	k := New()
	var names []string
	k.AddTracer(tracerFunc(func(at Time, name string) { names = append(names, name) }))
	k.ScheduleNamed(1, "a", func(*Kernel) {})
	k.ScheduleNamed(2, "b", func(*Kernel) {})
	k.Run()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("traced names = %v, want [a b]", names)
	}
}

func TestSchedulePanics(t *testing.T) {
	k := New()
	assertPanics(t, "nil handler", func() { k.Schedule(1, nil) })
	assertPanics(t, "zero-period ticker", func() { k.EveryNamed(0, "", func(*Kernel) {}) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

// TestHeapPropertyRandom exercises the event heap with random schedules and
// cancellations and checks the monotone, stable execution order invariant.
func TestHeapPropertyRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := New()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		var timers []Timer
		n := 200 + rng.Intn(200)
		for i := 0; i < n; i++ {
			at := Time(rng.Intn(50))
			i := i
			timers = append(timers, k.AtNamed(at, "", func(k *Kernel) {
				fired = append(fired, rec{k.Now(), i})
			}))
		}
		canceled := map[int]bool{}
		for i := 0; i < n/4; i++ {
			j := rng.Intn(n)
			if k.Cancel(timers[j]) {
				canceled[j] = true
			}
		}
		k.Run()
		if len(fired) != n-len(canceled) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false // time went backwards
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false // tie not broken by schedule order
			}
		}
		for _, r := range fired {
			if canceled[r.seq] {
				return false // canceled event fired
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkKernelScheduleRun(b *testing.B) {
	k := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Schedule(Time(i%97), func(*Kernel) {})
		if k.Pending() > 4096 {
			for k.Pending() > 0 {
				k.Step()
			}
		}
	}
	k.Run()
}

// TestStaleTimerHandleInert checks the pool-safety contract: once an event
// fires, its node may be recycled by a later Schedule, and a handle to the
// fired event must neither report pending nor cancel the unrelated event
// that reused the node.
func TestStaleTimerHandleInert(t *testing.T) {
	k := New()
	var secondFired bool
	first := k.AtNamed(1, "first", func(*Kernel) {})
	k.Run()
	if first.Pending() {
		t.Fatal("fired timer still reports pending")
	}
	second := k.AtNamed(2, "second", func(*Kernel) { secondFired = true })
	if k.Cancel(first) {
		t.Fatal("stale handle canceled something")
	}
	if first.Name() != "" {
		t.Errorf("stale handle leaks recycled state: name=%q", first.Name())
	}
	if !second.Pending() {
		t.Fatal("live timer lost by stale-handle Cancel")
	}
	k.Run()
	if !secondFired {
		t.Fatal("second event did not fire")
	}
}

// TestZeroTimer checks the documented zero value: valid, never pending.
func TestZeroTimer(t *testing.T) {
	var tm Timer
	if tm.Pending() {
		t.Error("zero Timer reports pending")
	}
	if k := New(); k.Cancel(tm) {
		t.Error("zero Timer canceled something")
	}
}

// TestPendingLimitBacklog checks that a runaway event cascade trips the
// configured pending limit and surfaces as a typed ErrEventBacklog from Run
// instead of looping forever.
func TestPendingLimitBacklog(t *testing.T) {
	k := New()
	k.SetPendingLimit(64)
	var amplify Handler
	amplify = func(k *Kernel) {
		for i := 0; i < 4; i++ {
			k.ScheduleNamed(1, "amplify", amplify)
		}
	}
	k.ScheduleNamed(1, "amplify", amplify)
	err := k.Run()
	if err == nil {
		t.Fatal("Run returned nil despite backlog")
	}
	if !errors.Is(err, ErrEventBacklog) {
		t.Fatalf("err = %v, want ErrEventBacklog", err)
	}
	var be *BacklogError
	if !errors.As(err, &be) {
		t.Fatalf("err %T is not *BacklogError", err)
	}
	if be.Limit != 64 || be.Pending <= 64 {
		t.Errorf("BacklogError = %+v, want Limit=64 and Pending>64", be)
	}
	if k.Err() == nil {
		t.Error("kernel Err() not sticky")
	}
	if again := k.Run(); !errors.Is(again, ErrEventBacklog) {
		t.Errorf("second Run = %v, want sticky backlog error", again)
	}
	if err := k.RunUntil(100); !errors.Is(err, ErrEventBacklog) {
		t.Errorf("RunUntil after backlog = %v, want sticky backlog error", err)
	}
}

// TestPendingLimitNotTripped checks that a workload staying under the
// limit runs to completion with a nil error.
func TestPendingLimitNotTripped(t *testing.T) {
	k := New()
	k.SetPendingLimit(1000)
	n := 0
	for i := 0; i < 500; i++ {
		k.Schedule(Time(i), func(*Kernel) { n++ })
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 500 {
		t.Fatalf("fired %d of 500", n)
	}
}

// TestIntern checks canonicalization: equal content maps to one instance.
func TestIntern(t *testing.T) {
	a := Intern("arrival-" + "gw1")
	b := Intern("arrival-gw" + "1")
	if a != b {
		t.Fatal("intern returned different content")
	}
	if &a == &b {
		t.Log("addresses compare via header; content identity checked above")
	}
}

// BenchmarkKernelChurn measures the steady-state schedule/fire cycle the
// node pool targets: each event schedules its successor, so a pooled kernel
// should run allocation-free after warmup.
func BenchmarkKernelChurn(b *testing.B) {
	k := New()
	var next Handler
	next = func(k *Kernel) { k.ScheduleNamed(1, "churn", next) }
	k.ScheduleNamed(1, "churn", next)
	for i := 0; i < 64; i++ {
		k.Step() // warm the pool
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}
