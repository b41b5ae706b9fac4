package scenario

import (
	"bytes"
	"strings"
	"testing"

	"github.com/tgsim/tgmod/internal/faults"
	"github.com/tgsim/tgmod/internal/telemetry"
)

func faultConfig(seed uint64) Config {
	cfg := smallConfig(seed)
	fc := faults.DefaultConfig()
	fc.Intensity = 3 // a week is short; fail often enough to exercise every path
	cfg.Faults = fc
	cfg.CheckpointRestart = true
	return cfg
}

// Two same-seed fault-enabled runs must agree on every observable output:
// the accounting records, the injector's stats, and the full OpenMetrics
// exposition. This is the in-process version of the CI determinism job's
// chaos pair (two tgsim -faults runs diffed with tgdiff).
func TestFaultRunDeterministic(t *testing.T) {
	run := func() (*Result, []byte) {
		reg := telemetry.New()
		cfg := faultConfig(7)
		cfg.Observers = append(cfg.Observers, LiveTelemetry(reg))
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reg.WriteOpenMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	a, expoA := run()
	b, expoB := run()

	if sa, sb := a.Faults.Stats(), b.Faults.Stats(); sa != sb {
		t.Fatalf("fault stats differ across same-seed runs:\n%+v\n%+v", sa, sb)
	}
	ja, jb := a.Central.Jobs(), b.Central.Jobs()
	if len(ja) != len(jb) {
		t.Fatalf("job counts differ: %d vs %d", len(ja), len(jb))
	}
	for i := range ja {
		if *ja[i] != *jb[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, ja[i], jb[i])
		}
	}
	if !bytes.Equal(expoA, expoB) {
		t.Fatal("OpenMetrics expositions differ across same-seed fault runs")
	}
	if a.Faults.Stats().MachineCrashes == 0 {
		t.Fatal("determinism test vacuous: no crashes fired in a week at 3x intensity")
	}
}

func TestFaultsFireAndChargeWaste(t *testing.T) {
	reg := telemetry.New()
	cfg := faultConfig(11)
	cfg.Observers = append(cfg.Observers, LiveTelemetry(reg))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Faults.Stats()
	if st.MachineCrashes == 0 || st.GatewayFlaps == 0 {
		t.Fatalf("fault mix too quiet: %+v", st)
	}
	if st.CrashKills > 0 && st.Failovers+st.Requeues != st.CrashKills {
		t.Errorf("kills %d not conserved by failovers %d + requeues %d",
			st.CrashKills, st.Failovers, st.Requeues)
	}
	// Kills must surface as wasted work in the accounting stream.
	var wasted float64
	for _, r := range res.Central.Jobs() {
		if r.WastedNUs < 0 || r.WastedCoreSeconds < 0 {
			t.Fatalf("negative waste in record %+v", r)
		}
		wasted += r.WastedNUs
	}
	if st.CrashKills+st.NodeKills > 0 && wasted == 0 {
		t.Error("jobs were killed but no wasted NUs reached accounting")
	}
	// The accounting invariant holds under faults: bank charges == central NUs.
	if diff := res.Bank.TotalUsed() - res.Central.TotalNUs(); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("bank/accounting mismatch under faults: %v vs %v",
			res.Bank.TotalUsed(), res.Central.TotalNUs())
	}
	// Fault families appear in the exposition on fault-enabled runs.
	var buf bytes.Buffer
	if err := reg.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	expo := buf.String()
	for _, fam := range []string{"tg_fault_events_total", "tg_retry_attempts_total"} {
		if !strings.Contains(expo, fam) {
			t.Errorf("exposition missing %s on a fault-enabled run", fam)
		}
	}
}

// A fault-free run must not register fault families or build an injector:
// its exposition and behavior stay byte-identical to pre-fault builds.
func TestFaultsDisabledLeaveNoTrace(t *testing.T) {
	reg := telemetry.New()
	cfg := smallConfig(5)
	cfg.Observers = append(cfg.Observers, LiveTelemetry(reg))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != nil {
		t.Error("fault-free run built an injector")
	}
	var buf bytes.Buffer
	if err := reg.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	expo := buf.String()
	for _, fam := range []string{"tg_fault_", "tg_retry_"} {
		if strings.Contains(expo, fam) {
			t.Errorf("fault-free exposition contains %s family", fam)
		}
	}
	for _, r := range res.Central.Jobs() {
		if r.WastedCoreSeconds != 0 || r.WastedNUs != 0 {
			t.Fatalf("fault-free run charged waste: %+v", r)
		}
	}
}

func TestWithFaultOptions(t *testing.T) {
	cfg := New(1, WithFaultIntensity(2), WithCheckpointRestart(600, 30))
	if !cfg.Faults.Enabled || cfg.Faults.Intensity != 2 {
		t.Errorf("WithFaultIntensity: %+v", cfg.Faults)
	}
	if !cfg.CheckpointRestart || cfg.CheckpointInterval != 600 || cfg.CheckpointOverhead != 30 {
		t.Errorf("WithCheckpointRestart: %+v", cfg)
	}
}
