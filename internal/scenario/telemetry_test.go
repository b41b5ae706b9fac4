package scenario

import (
	"bytes"
	"strings"
	"testing"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/obs"
	"github.com/tgsim/tgmod/internal/perf"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// telemetryRun executes a small scenario with live telemetry on and returns
// the result, the final OpenMetrics exposition, and the final snapshot.
func telemetryRun(t *testing.T, seed uint64) (*Result, []byte, *telemetry.Snapshot) {
	t.Helper()
	cfg := smallConfig(seed)
	reg := telemetry.New()
	var last *telemetry.Snapshot
	cfg.Observers = []Observer{
		RecordSpans(obs.NewBuffer()),
		LiveTelemetry(reg),
		StreamSnapshots(func(s *telemetry.Snapshot) {
			last = s
		}),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var om bytes.Buffer
	if err := reg.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	return res, om.Bytes(), last
}

func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	// The acceptance bound of the telemetry layer: a same-seed run with the
	// registry and snapshot publisher installed produces a byte-identical
	// accounting database and Chrome trace.
	plain, err := Run(smallConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	instrumented, _, _ := telemetryRun(t, 21)

	var a, b bytes.Buffer
	if err := plain.Central.Export(&a); err != nil {
		t.Fatal(err)
	}
	if err := instrumented.Central.Export(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("telemetry perturbed the accounting export (%d vs %d bytes)", a.Len(), b.Len())
	}
	if plain.Kernel.Executed() != instrumented.Kernel.Executed() {
		t.Errorf("event counts differ: plain %d, instrumented %d",
			plain.Kernel.Executed(), instrumented.Kernel.Executed())
	}
}

func TestTelemetryTraceByteIdenticalWithRegistry(t *testing.T) {
	// Span and telemetry handlers share the seams' handler lists: the
	// Chrome trace with a registry installed matches the trace without one.
	_, noReg := observedRun(t, 13)

	cfg := smallConfig(13)
	cfg.MaintenanceEvery = 3 * des.Day
	cfg.MaintenanceLength = 4 * des.Hour
	buf := obs.NewBuffer()
	cfg.Observers = []Observer{
		RecordSpans(buf), SampleEvery(des.Hour), ProfilePhases(perf.New(nil)),
		LiveTelemetry(telemetry.New()), StreamSnapshots(func(*telemetry.Snapshot) {}),
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var withReg bytes.Buffer
	if err := buf.WriteChromeTrace(&withReg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(noReg, withReg.Bytes()) {
		t.Errorf("registry install changed the Chrome trace (%d vs %d bytes)",
			len(noReg), withReg.Len())
	}
}

func TestFinalExpositionStableAcrossRuns(t *testing.T) {
	_, a, _ := telemetryRun(t, 5)
	_, b, _ := telemetryRun(t, 5)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed final /metrics differ (%d vs %d bytes)", len(a), len(b))
	}
	if !bytes.HasSuffix(a, []byte("# EOF\n")) {
		t.Error("exposition missing # EOF terminator")
	}
}

func TestTelemetryFamiliesPopulated(t *testing.T) {
	res, om, last := telemetryRun(t, 9)
	text := string(om)
	for _, fam := range []string{
		"tg_jobs_total", "tg_queue_depth", "tg_running_jobs", "tg_utilization",
		"tg_queue_wait_seconds", "tg_sched_decisions_total",
		"tg_sched_queue_age_seconds", "tg_sched_backfill_skips",
		"tg_sched_age_escalations", "tg_sched_gang_holds", "tg_sched_gang_starts",
		"tg_jobs_by_modality_total", "tg_nus_by_modality_total",
		"tg_transfers_completed_total", "tg_transfer_duration_seconds",
		"tg_gateway_requests_total", "tg_kernel_events", "tg_jobs_finished",
		"tg_accounting_flushes_total", "tg_accounting_job_records_total",
	} {
		if !strings.Contains(text, "# TYPE "+fam+" ") {
			t.Errorf("exposition missing family %s", fam)
		}
	}
	// The per-machine families carry one series per federation machine.
	for _, m := range res.Federation.Machines() {
		if !strings.Contains(text, `tg_queue_depth{machine="`+m.ID+`"}`) {
			t.Errorf("no tg_queue_depth series for machine %s", m.ID)
		}
	}
	// The final snapshot agrees with the run result.
	if last == nil {
		t.Fatal("no final snapshot published")
	}
	if !last.Done || last.Progress != 1 {
		t.Errorf("final snapshot not done: %+v", last)
	}
	if last.JobsFinished != res.Finished {
		t.Errorf("snapshot finished %d, result %d", last.JobsFinished, res.Finished)
	}
	if last.Events != res.Kernel.Executed() {
		t.Errorf("snapshot events %d, kernel %d", last.Events, res.Kernel.Executed())
	}
	if len(last.Machines) != len(res.Federation.Machines()) {
		t.Errorf("snapshot has %d machines, federation %d",
			len(last.Machines), len(res.Federation.Machines()))
	}
}
