package perf

import (
	"strings"
	"testing"
	"time"

	"github.com/tgsim/tgmod/internal/des"
)

// spin busy-waits for roughly d of wall time, so handler cost is real work
// the profiler must attribute, not sleep the scheduler could elide.
func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// TestPhaseSumMatchesWallSeconds is the attribution identity: over a
// scripted run, fel+handler must telescope to the first-event→last-event
// wall span within measurement tolerance.
func TestPhaseSumMatchesWallSeconds(t *testing.T) {
	cases := []struct {
		name   string
		script func(k *des.Kernel)
	}{
		{"chain", func(k *des.Kernel) {
			// Sequential chain: each event schedules its successor, so
			// in-handler FEL pushes are exercised on every step.
			var step func(n int) des.Handler
			step = func(n int) des.Handler {
				return func(k *des.Kernel) {
					spin(100 * time.Microsecond)
					if n > 0 {
						k.ScheduleNamed(1, "chain", step(n-1))
					}
				}
			}
			k.ScheduleNamed(1, "chain", step(40))
		}},
		{"fanout", func(k *des.Kernel) {
			// Wide fan-out scheduled up front: FEL cost lands in setup, the
			// run itself is pop-heavy.
			for i := 0; i < 60; i++ {
				k.ScheduleNamed(des.Time(i), "work", func(k *des.Kernel) {
					spin(50 * time.Microsecond)
				})
			}
		}},
		{"mixed-cancel", func(k *des.Kernel) {
			// Handlers that schedule and cancel: timed heap removes must be
			// charged as FEL, not handler, cost.
			for i := 0; i < 30; i++ {
				k.ScheduleNamed(des.Time(i), "mix", func(k *des.Kernel) {
					tm := k.ScheduleNamed(1000, "never", func(*des.Kernel) {})
					spin(80 * time.Microsecond)
					k.Cancel(tm)
				})
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := des.New()
			p := New(k)
			k.AddTracer(p)
			tc.script(k)
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			wall := p.WallSeconds()
			loop := p.LoopSeconds()
			if wall <= 0 {
				t.Fatalf("no wall span measured (events=%d)", p.Events())
			}
			// 20% + 2ms absorbs clock-read skew between the embedded
			// profiler's stamps and the phase stamps.
			tol := 0.20*wall + 0.002
			if diff := loop - wall; diff > tol || diff < -tol {
				t.Errorf("phase sum %.6fs vs wall %.6fs: |diff| %.6fs exceeds tolerance %.6fs\nfel=%.6fs handler=%.6fs",
					loop, wall, diff, tol,
					p.PhaseSeconds(PhaseFEL), p.PhaseSeconds(PhaseHandler))
			}
			if p.PhaseSeconds(PhaseHandler) <= 0 {
				t.Error("handler phase accumulated no time despite spinning handlers")
			}
			if p.PhaseSeconds(PhaseFEL) <= 0 {
				t.Error("fel phase accumulated no time despite heap operations")
			}
		})
	}
}

// TestKernelCountersAndSummary: event count, FEL high-water, throughput,
// the summary line, and the per-event breakdown ordering over a scripted
// run.
func TestKernelCountersAndSummary(t *testing.T) {
	k := des.New()
	p := New(k)
	k.AddTracer(p)
	for i := 0; i < 50; i++ {
		k.ScheduleNamed(des.Time(i), "tick", func(*des.Kernel) {
			time.Sleep(10 * time.Microsecond)
		})
	}
	k.Schedule(100, func(*des.Kernel) {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if p.Events() != 51 {
		t.Fatalf("profiled %d events, want 51", p.Events())
	}
	if p.FELHighWater() != 51 {
		t.Errorf("FEL high-water = %d, want 51", p.FELHighWater())
	}
	if p.EventsPerSec() <= 0 {
		t.Errorf("events/sec = %v, want > 0", p.EventsPerSec())
	}
	tab := p.BreakdownTable()
	// Two event names ("tick", anonymous) plus the TOTAL row.
	if tab.Rows() != 3 {
		t.Fatalf("breakdown rows = %d, want 3:\n%s", tab.Rows(), tab)
	}
	// "tick" dominates wall time, so it sorts first.
	if got := tab.Cell(0, 0); got != "tick" {
		t.Errorf("heaviest event = %q, want \"tick\"", got)
	}
	if got := tab.Cell(2, 0); got != "TOTAL" {
		t.Errorf("last row = %q, want TOTAL", got)
	}
	if !strings.Contains(p.Summary(), "51 events") {
		t.Errorf("summary %q missing event count", p.Summary())
	}
}

// TestSetupPhaseExcludedFromLoop: heap pushes before the first event are
// setup, and must not be counted in the loop identity.
func TestSetupPhaseExcludedFromLoop(t *testing.T) {
	k := des.New()
	p := New(k)
	k.AddTracer(p)
	for i := 0; i < 5000; i++ {
		k.ScheduleNamed(des.Time(i), "pre", func(*des.Kernel) {})
	}
	if p.PhaseSeconds(PhaseSetup) <= 0 {
		t.Fatal("pre-run scheduling charged no setup time")
	}
	if p.PhaseSeconds(PhaseFEL) != 0 || p.PhaseSeconds(PhaseHandler) != 0 {
		t.Fatalf("loop phases charged before any event ran: fel=%v handler=%v",
			p.PhaseSeconds(PhaseFEL), p.PhaseSeconds(PhaseHandler))
	}
}

// TestRegions: explicit regions accumulate into their phase and are
// nil-safe on a nil profiler.
func TestRegions(t *testing.T) {
	k := des.New()
	p := New(k)
	done := p.Region(PhaseAccounting)
	spin(200 * time.Microsecond)
	done()
	if got := p.PhaseSeconds(PhaseAccounting); got < 100e-6 {
		t.Errorf("accounting region recorded %.6fs, want >= 100µs", got)
	}
	done = p.Region(PhaseClassify)
	done()
	var nilP *Profiler
	nilP.Region(PhaseAccounting)() // must not panic
	if nilP.PhaseSeconds(PhaseClassify) != 0 {
		t.Error("nil profiler reported non-zero phase time")
	}
}

// TestTablesRender: the report tables include every phase and event name.
func TestTablesRender(t *testing.T) {
	k := des.New()
	p := New(k)
	k.AddTracer(p)
	k.ScheduleNamed(1, "alpha", func(k *des.Kernel) { spin(50 * time.Microsecond) })
	k.ScheduleNamed(2, "beta", func(k *des.Kernel) { spin(50 * time.Microsecond) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	pt := p.PhaseTable().String()
	for _, want := range []string{"setup", "fel", "handler", "accounting", "classify", "TOTAL"} {
		if !strings.Contains(pt, want) {
			t.Errorf("phase table missing %q:\n%s", want, pt)
		}
	}
	bt := p.BreakdownTable().String()
	for _, want := range []string{"alpha", "beta", "TOTAL"} {
		if !strings.Contains(bt, want) {
			t.Errorf("breakdown table missing %q:\n%s", want, bt)
		}
	}
}
