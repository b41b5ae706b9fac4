package scenario

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/faults"
	"github.com/tgsim/tgmod/internal/sched"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// matrixConfig trims the small scenario so the full engine × faults matrix
// stays fast while still exercising queues, campaigns, and urgent starts.
func matrixConfig(seed uint64, policy string, withFaults bool) Config {
	cfg := smallConfig(seed)
	cfg.Horizon = 4 * des.Day
	cfg.DrainTime = 2 * des.Day
	cfg.Policy = policy
	if withFaults {
		fc := faults.DefaultConfig()
		fc.Intensity = 3
		cfg.Faults = fc
		cfg.CheckpointRestart = true
	}
	return cfg
}

// TestPolicyMatrixDeterministic is the in-process cross-policy determinism
// matrix (the CI determinism job runs the tgsim/tgdiff version): for every
// registered engine, with and without fault injection, two same-seed runs
// must agree on every accounting record and on the full OpenMetrics
// exposition — the same byte-equality tgdiff checks over exported run dirs.
func TestPolicyMatrixDeterministic(t *testing.T) {
	engines := sched.EngineNames()
	if len(engines) < 6 {
		t.Fatalf("registry lists %d engines, want >= 6: %v", len(engines), engines)
	}
	for _, name := range engines {
		for _, withFaults := range []bool{false, true} {
			name, withFaults := name, withFaults
			label := name
			if withFaults {
				label += "+faults"
			}
			t.Run(label, func(t *testing.T) {
				t.Parallel()
				run := func() (*Result, []byte) {
					reg := telemetry.New()
					cfg := matrixConfig(23, name, withFaults)
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
				ja, jb := a.Central.Jobs(), b.Central.Jobs()
				if len(ja) != len(jb) {
					t.Fatalf("job counts differ: %d vs %d", len(ja), len(jb))
				}
				for i := range ja {
					if *ja[i] != *jb[i] {
						t.Fatalf("accounting record %d differs:\n%+v\n%+v", i, ja[i], jb[i])
					}
				}
				if !bytes.Equal(expoA, expoB) {
					t.Fatal("OpenMetrics expositions differ across same-seed runs")
				}
				if len(ja) == 0 {
					t.Fatal("matrix leg vacuous: no jobs reached accounting")
				}
				if withFaults && a.Faults.Stats().MachineCrashes == 0 {
					t.Fatal("faults leg vacuous: no crashes fired")
				}
			})
		}
	}
}

// TestPolicyMatrixEnginesDiverge guards against an engine silently falling
// back to another's behavior: at this load the six engines cannot all
// produce identical accounting streams.
func TestPolicyMatrixEnginesDiverge(t *testing.T) {
	digests := make(map[string]string)
	for _, name := range sched.EngineNames() {
		res, err := Run(matrixConfig(23, name, false))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, r := range res.Central.Jobs() {
			fmt.Fprintf(&buf, "%v|", r)
		}
		digests[name] = buf.String()
	}
	distinct := make(map[string]bool)
	for _, d := range digests {
		distinct[d] = true
	}
	if len(distinct) < 2 {
		t.Errorf("all %d engines produced identical accounting streams", len(digests))
	}
	// The legacy backfill family must differ from strict FCFS here, or the
	// workload is too light to make the matrix meaningful.
	if digests["fcfs"] == digests["easy"] {
		t.Error("fcfs and easy agree byte-for-byte: matrix workload too light")
	}
}
