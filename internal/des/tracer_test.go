package des

import (
	"slices"
	"testing"
	"time"
)

// logTracer appends "tag:name" for every event to a log shared between
// tracers, so a test can read the order in which the kernel called them.
type logTracer struct {
	tag string
	log *[]string
}

func (l logTracer) Event(at Time, name string) { *l.log = append(*l.log, l.tag+":"+name) }

// opTracer is a tracer that is also an OpProfiler.
type opTracer struct {
	events, steps int
	ops           []time.Duration
}

func (o *opTracer) Event(at Time, name string) { o.events++ }
func (o *opTracer) BeforeStep()                { o.steps++ }
func (o *opTracer) FELOp(d time.Duration)      { o.ops = append(o.ops, d) }

func TestAddTracerIgnoresNil(t *testing.T) {
	k := New()
	k.AddTracer(nil)
	if len(k.tracers) != 0 || len(k.after) != 0 || len(k.ops) != 0 {
		t.Fatalf("nil tracer attached: %d tracers, %d observers, %d profilers",
			len(k.tracers), len(k.after), len(k.ops))
	}
	ran := false
	k.Schedule(1, func(*Kernel) { ran = true })
	k.Run()
	if !ran {
		t.Error("event did not run")
	}
}

func TestAddTracerFansOutInAttachOrder(t *testing.T) {
	var log []string
	a, b := &countingTracer{}, &observingTracer{}
	k := New()
	k.AddTracer(logTracer{"first", &log})
	k.AddTracer(a)
	k.AddTracer(b)
	k.AddTracer(logTracer{"second", &log})
	for _, name := range []string{"e1", "e2", "e3", "e4"} {
		k.ScheduleNamed(1, name, func(*Kernel) {})
	}
	k.Run()
	if a.events != 4 || b.events != 4 {
		t.Errorf("fan-out saw %d/%d events, want 4/4", a.events, b.events)
	}
	if b.pending != 0 {
		t.Errorf("observer pending = %d, want 0", b.pending)
	}
	want := []string{"first:e1", "second:e1", "first:e2", "second:e2",
		"first:e3", "second:e3", "first:e4", "second:e4"}
	if !slices.Equal(log, want) {
		t.Errorf("dispatch order %v, want %v", log, want)
	}
}

func TestAddTracerPlainTracersSkipHooks(t *testing.T) {
	// Plain tracers only: the kernel must have no step observer or op
	// profiler to call, so it skips AfterEvent, BeforeStep and FELOp.
	k := New()
	k.AddTracer(&countingTracer{})
	k.AddTracer(&countingTracer{})
	if len(k.after) != 0 || len(k.ops) != 0 {
		t.Errorf("plain tracers registered %d observers, %d profilers; want 0, 0", len(k.after), len(k.ops))
	}
	// One observer in the mix: only the step-observer list grows.
	k.AddTracer(&observingTracer{})
	if len(k.after) != 1 || len(k.ops) != 0 {
		t.Errorf("with an observer: %d observers, %d profilers; want 1, 0", len(k.after), len(k.ops))
	}
}

func TestAddTracerProfilersShareFELOpDurations(t *testing.T) {
	p1, p2 := &opTracer{}, &opTracer{}
	k := New()
	k.AddTracer(p1)
	k.AddTracer(p2)
	k.Schedule(1, func(*Kernel) {})
	tm := k.Schedule(2, func(*Kernel) {})
	k.Schedule(3, func(*Kernel) {})
	k.Cancel(tm)
	k.Run()
	// Three pushes and one cancel are timed once each and reported to both.
	if len(p1.ops) != 4 || !slices.Equal(p1.ops, p2.ops) {
		t.Errorf("FELOp durations %v and %v, want the same 4", p1.ops, p2.ops)
	}
	if p1.steps != 2 || p2.steps != 2 || p1.events != 2 || p2.events != 2 {
		t.Errorf("steps %d/%d events %d/%d, want 2 each", p1.steps, p2.steps, p1.events, p2.events)
	}
}
