package des

import "testing"

// countingTracer is a minimal non-nil tracer for the comparison benchmark.
type countingTracer struct{ events uint64 }

func (c *countingTracer) Event(at Time, name string) { c.events++ }

// stepping is a self-perpetuating event chain: each handler schedules the
// next, so every Step pops exactly one event and pushes one. This isolates
// the per-Step cost from heap growth effects.
func stepping(k *Kernel, n int) {
	var fn Handler
	left := n
	fn = func(k *Kernel) {
		left--
		if left > 0 {
			k.Schedule(1, fn)
		}
	}
	k.Schedule(1, fn)
}

// BenchmarkStep compares Kernel.Step with no tracer attached against the
// same workload with a minimal tracer. The NilTracer case must not be
// measurably slower than it was before the tracing seam existed: the only
// cost an empty tracer list is allowed to add is one length check.
func BenchmarkStep(b *testing.B) {
	b.Run("NilTracer", func(b *testing.B) {
		k := New()
		stepping(k, b.N)
		b.ResetTimer()
		for k.Step() {
		}
	})
	b.Run("CountingTracer", func(b *testing.B) {
		k := New()
		k.AddTracer(&countingTracer{})
		stepping(k, b.N)
		b.ResetTimer()
		for k.Step() {
		}
	})
	b.Run("Profiled", func(b *testing.B) {
		// A tracer that also implements StepObserver, exercising the
		// AfterEvent hook path sorted out at AddTracer time.
		k := New()
		k.AddTracer(&observingTracer{})
		stepping(k, b.N)
		b.ResetTimer()
		for k.Step() {
		}
	})
}

type observingTracer struct {
	events  uint64
	pending int
}

func (o *observingTracer) Event(at Time, name string) { o.events++ }
func (o *observingTracer) AfterEvent(at Time, name string, pending int) {
	o.pending = pending
}

func TestStepObserverSeesPending(t *testing.T) {
	k := New()
	o := &observingTracer{}
	k.AddTracer(o)
	for i := 1; i <= 5; i++ {
		k.Schedule(Time(i), func(*Kernel) {})
	}
	k.Run()
	if o.events != 5 {
		t.Errorf("observer saw %d events, want 5", o.events)
	}
	if o.pending != 0 {
		t.Errorf("pending after last event = %d, want 0", o.pending)
	}
	if k.MaxPending() != 5 {
		t.Errorf("MaxPending = %d, want 5", k.MaxPending())
	}
}

func TestEveryNamed(t *testing.T) {
	k := New()
	var names []string
	k.AddTracer(tracerFunc(func(at Time, name string) { names = append(names, name) }))
	n := 0
	k.EveryNamed(10, "tick", func(*Kernel) { n++ })
	k.RunUntil(35)
	if n != 3 {
		t.Errorf("ticker fired %d times, want 3", n)
	}
	for _, name := range names {
		if name != "tick" {
			t.Errorf("ticker event named %q, want \"tick\"", name)
		}
	}
}

type tracerFunc func(at Time, name string)

func (f tracerFunc) Event(at Time, name string) { f(at, name) }
