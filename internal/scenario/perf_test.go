package scenario

import (
	"bytes"
	"testing"

	"github.com/tgsim/tgmod/internal/perf"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// TestPhaseProfilingDoesNotPerturbRun is the perf layer's zero-perturbation
// bound: a same-seed run with the phase profiler, runtime sampler, and live
// registry all installed produces a byte-identical accounting export and
// OpenMetrics exposition against a run with telemetry only — and the
// deterministic exposition never contains a tg_runtime_ series.
func TestPhaseProfilingDoesNotPerturbRun(t *testing.T) {
	run := func(profile bool) (*Result, []byte) {
		cfg := smallConfig(23)
		reg := telemetry.New()
		cfg.Observers = []Observer{LiveTelemetry(reg)}
		if profile {
			sampler := perf.NewRuntimeSampler()
			cfg.Observers = append(cfg.Observers,
				ProfilePhases(perf.New(nil)),
				DecorateSnapshots(func(s *telemetry.Snapshot) {
					sampler.Sample(s.Events)
					snap := sampler.Snap()
					s.Runtime = &snap
				}),
				StreamSnapshots(func(*telemetry.Snapshot) {}),
			)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var om bytes.Buffer
		if err := reg.WriteOpenMetrics(&om); err != nil {
			t.Fatal(err)
		}
		return res, om.Bytes()
	}

	plain, plainOM := run(false)
	profiled, profOM := run(true)

	if !bytes.Equal(plainOM, profOM) {
		t.Errorf("phase profiling changed the deterministic exposition (%d vs %d bytes)",
			len(plainOM), len(profOM))
	}
	if bytes.Contains(profOM, []byte("tg_runtime_")) {
		t.Error("tg_runtime_ series leaked into the deterministic registry")
	}
	if plain.Kernel.Executed() != profiled.Kernel.Executed() {
		t.Errorf("event counts differ: plain %d, profiled %d",
			plain.Kernel.Executed(), profiled.Kernel.Executed())
	}
	var a, b bytes.Buffer
	if err := plain.Central.Export(&a); err != nil {
		t.Fatal(err)
	}
	if err := profiled.Central.Export(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("phase profiling perturbed the accounting export (%d vs %d bytes)",
			a.Len(), b.Len())
	}
}

// TestPhaseProfileAttribution: a real scenario run attributes wall time to
// every event-loop phase, charges the accounting flush, and lands the
// profiler in the Result.
func TestPhaseProfileAttribution(t *testing.T) {
	cfg := smallConfig(31)
	p := perf.New(nil)
	cfg.Observers = append(cfg.Observers, ProfilePhases(p))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases != p {
		t.Fatal("Result.Phases is not the attached profiler")
	}
	// PhaseSetup stays zero here by design: scenario assembly schedules its
	// initial events before the tracer seam is installed, so only the
	// event-loop and region phases accumulate.
	for _, ph := range []perf.Phase{perf.PhaseFEL, perf.PhaseHandler, perf.PhaseAccounting} {
		if p.PhaseSeconds(ph) <= 0 {
			t.Errorf("phase %s attributed no wall time", ph)
		}
	}
	wall, loop := p.WallSeconds(), p.LoopSeconds()
	if wall <= 0 {
		t.Fatal("no wall span measured")
	}
	// Real handlers are sub-microsecond, so clock-read overhead inflates
	// the phase sum; the identity still has to hold loosely.
	if loop < 0.5*wall || loop > 2.0*wall {
		t.Errorf("loop phase sum %.6fs wildly off wall %.6fs", loop, wall)
	}
	if p.Events() != res.Kernel.Executed() {
		t.Errorf("profiled %d events, kernel executed %d", p.Events(), res.Kernel.Executed())
	}
}
