package scenario_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/tgsim/tgmod/internal/experiments"
	"github.com/tgsim/tgmod/internal/obs"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// TestAbortedTransfersCloseSpans: a WAN transfer killed by a partition
// ends its span with state=aborted and counts in tg_transfers_aborted_total,
// so every transfer span a run begins is also ended. Quick seed 7 at fault
// intensity 4 aborts transfers early enough that all others finish.
func TestAbortedTransfersCloseSpans(t *testing.T) {
	opts := append(experiments.StandardOptions(experiments.Quick), scenario.WithFaultIntensity(4))
	cfg := scenario.New(7, opts...)
	spans, reg := obs.NewBuffer(), telemetry.New()
	cfg.Observers = append(cfg.Observers, scenario.RecordSpans(spans), scenario.LiveTelemetry(reg))
	res, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aborts := res.Fabric.Aborted()
	if aborts == 0 {
		t.Fatal("no transfer was aborted; the case no longer covers aborts")
	}
	open := map[int64]bool{}
	begun, abortedEnds := 0, uint64(0)
	for _, ev := range spans.Events() {
		if ev.Cat != "net" || ev.Name != "transfer" {
			continue
		}
		switch ev.Phase {
		case obs.PhaseBegin:
			begun++
			open[ev.ID] = true
		case obs.PhaseEnd:
			if !open[ev.ID] {
				t.Errorf("transfer %d ended without an open span", ev.ID)
			}
			delete(open, ev.ID)
			if ev.ArgString("state") == "aborted" {
				abortedEnds++
			}
		}
	}
	if len(open) != 0 {
		t.Errorf("%d of %d transfer spans never ended", len(open), begun)
	}
	if abortedEnds != aborts {
		t.Errorf("%d spans ended aborted, fabric aborted %d transfers", abortedEnds, aborts)
	}
	var om bytes.Buffer
	if err := reg.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\ntg_transfers_aborted_total %d\n", aborts); !strings.Contains(om.String(), want) {
		t.Errorf("exposition lacks %q", strings.TrimSpace(want))
	}
}
