package scenario

import (
	"bytes"
	"strings"
	"testing"

	"github.com/tgsim/tgmod/internal/slo"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// TestSLOEvaluationEndToEnd runs a full week with the default objectives
// installed and checks the evaluator saw real traffic for every modality
// it watches.
func TestSLOEvaluationEndToEnd(t *testing.T) {
	cfg := smallConfig(11)
	ev, err := slo.New()
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	cfg.Observers = []Observer{EvaluateSLO(ev), LiveTelemetry(reg)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished == 0 {
		t.Fatal("no jobs finished")
	}

	tab := ev.Table()
	if tab.Rows() != len(slo.DefaultObjectives()) {
		t.Fatalf("conformance rows = %d, want %d", tab.Rows(), len(slo.DefaultObjectives()))
	}
	for r := 0; r < tab.Rows(); r++ {
		if tab.Cell(r, 4) == "0" {
			t.Errorf("objective %s saw no events in a full week", tab.Cell(r, 0))
		}
	}

	// The evaluator surfaces through the registry.
	var om bytes.Buffer
	if err := reg.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	out := om.String()
	for _, fam := range []string{"tg_slo_target", "tg_slo_events_total", "tg_slo_compliance", "tg_slo_burn_rate"} {
		if !strings.Contains(out, fam) {
			t.Errorf("exposition missing %s", fam)
		}
	}
	// Urgent jobs preempt their way to near-immediate starts: the headline
	// objective of the urgent-computing modality must hold in an
	// uncontended week.
	for _, f := range ev.Failed() {
		if f == "urgent-immediate" {
			t.Error("urgent-immediate objective failed on the default small scenario")
		}
	}
}

// TestSLODeterminism: the evaluator must not perturb the simulation, and
// its own exposition must be byte-identical across same-seed runs.
func TestSLODeterminism(t *testing.T) {
	run := func(withSLO bool) (string, int) {
		cfg := smallConfig(23)
		reg := telemetry.New()
		cfg.Observers = []Observer{LiveTelemetry(reg)}
		if withSLO {
			ev, err := slo.New()
			if err != nil {
				t.Fatal(err)
			}
			cfg.Observers = append(cfg.Observers, EvaluateSLO(ev))
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var om bytes.Buffer
		if err := reg.WriteOpenMetrics(&om); err != nil {
			t.Fatal(err)
		}
		return om.String(), res.Finished
	}

	a, fa := run(true)
	b, fb := run(true)
	if a != b {
		t.Error("same-seed runs with SLO enabled diverge in exposition")
	}
	if fa != fb {
		t.Errorf("same-seed finished counts diverge: %d vs %d", fa, fb)
	}

	// Stripping the tg_slo_* families from an SLO run must reproduce the
	// non-SLO exposition exactly: evaluation is observation-only.
	c, fc := run(false)
	if fc != fa {
		t.Errorf("SLO changed the simulation: finished %d with, %d without", fa, fc)
	}
	var kept []string
	for _, line := range strings.Split(a, "\n") {
		if !strings.Contains(line, "tg_slo_") {
			kept = append(kept, line)
		}
	}
	if strings.Join(kept, "\n") != c {
		t.Error("non-SLO families differ between SLO and non-SLO runs")
	}
}
