package telemetry

import (
	"testing"
	"time"

	"github.com/tgsim/tgmod/internal/des"
)

// BenchmarkTelemetry proves the disabled path is free: nil instruments cost
// one nil comparison per would-be observation, and a kernel without the
// snapshot publisher steps exactly as fast as before the telemetry layer
// existed. CI runs this with -benchtime=1x as a smoke test; run it properly
// to compare nil-vs-live overhead.
func BenchmarkTelemetry(b *testing.B) {
	b.Run("NilCounterInc", func(b *testing.B) {
		var c *Counter
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("LiveCounterInc", func(b *testing.B) {
		c := New().Counter("x_total", "X.").With()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("NilHistogramObserve", func(b *testing.B) {
		var h *Histogram
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i))
		}
	})
	b.Run("LiveHistogramObserve", func(b *testing.B) {
		h := NewHistogram()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i))
		}
	})
	b.Run("NilGaugeSet", func(b *testing.B) {
		var g *Gauge
		for i := 0; i < b.N; i++ {
			g.Set(float64(i))
		}
	})

	// The scheduler-decision shape: a probe callback that forwards to nil
	// instruments, as installed when telemetry is off but spans are on.
	b.Run("ProbePathNilInstruments", func(b *testing.B) {
		decisions := map[string]*Counter{"backfill": nil, "reservation": nil}
		probe := func(kind string) {
			if c := decisions[kind]; c != nil {
				c.Inc()
			}
		}
		for i := 0; i < b.N; i++ {
			probe("backfill")
		}
	})

	b.Run("KernelStepNoPublisher", func(b *testing.B) {
		k := des.New()
		stepping(k, b.N)
		b.ResetTimer()
		for k.Step() {
		}
	})
	b.Run("KernelStepWithPublisher", func(b *testing.B) {
		k := des.New()
		p := &Publisher{
			Build: func(at des.Time, events uint64, pending int) *Snapshot {
				return &Snapshot{SimTime: float64(at), Events: events}
			},
			Sink:    func(*Snapshot) {},
			minWall: time.Hour, // isolate the steady-state stride cost
		}
		k.AddTracer(p)
		stepping(k, b.N)
		b.ResetTimer()
		for k.Step() {
		}
	})
}

// stepping builds a self-perpetuating event chain: each handler schedules
// the next, so every Step pops one event and pushes one (mirrors the des
// package's own Step benchmark).
func stepping(k *des.Kernel, n int) {
	var fn des.Handler
	left := n
	fn = func(k *des.Kernel) {
		left--
		if left > 0 {
			k.Schedule(1, fn)
		}
	}
	k.Schedule(1, fn)
}
