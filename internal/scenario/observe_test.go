package scenario

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/obs"
	"github.com/tgsim/tgmod/internal/perf"
)

// observedRun executes a small scenario with the full observability stack
// on and returns the result plus the serialized Chrome trace.
func observedRun(t *testing.T, seed uint64) (*Result, []byte) {
	t.Helper()
	cfg := smallConfig(seed)
	cfg.MaintenanceEvery = 3 * des.Day
	cfg.MaintenanceLength = 4 * des.Hour
	buf := obs.NewBuffer()
	cfg.Observers = []Observer{RecordSpans(buf), SampleEvery(des.Hour), ProfilePhases(perf.New(nil))}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := buf.WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	return res, out.Bytes()
}

func TestChromeTraceByteIdenticalAcrossRuns(t *testing.T) {
	_, a := observedRun(t, 11)
	_, b := observedRun(t, 11)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed runs produced different Chrome traces (%d vs %d bytes)",
			len(a), len(b))
	}
	// And the trace must be valid JSON of the expected shape.
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 100 {
		t.Errorf("trace has only %d events; expected a busy week", len(doc.TraceEvents))
	}
}

func TestObservabilityDoesNotPerturbResults(t *testing.T) {
	plain, err := Run(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(7)
	cfg.Observers = []Observer{RecordSpans(obs.NewBuffer()), SampleEvery(des.Hour), ProfilePhases(perf.New(nil))}
	observed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Finished != observed.Finished {
		t.Errorf("Finished: plain %d, observed %d", plain.Finished, observed.Finished)
	}
	if plain.Central.TotalNUs() != observed.Central.TotalNUs() {
		t.Errorf("TotalNUs: plain %v, observed %v",
			plain.Central.TotalNUs(), observed.Central.TotalNUs())
	}
	if plain.Central.DistinctUsers() != observed.Central.DistinctUsers() {
		t.Errorf("DistinctUsers: plain %d, observed %d",
			plain.Central.DistinctUsers(), observed.Central.DistinctUsers())
	}
}

func TestSamplerAndProfilerWiredIntoRun(t *testing.T) {
	res, _ := observedRun(t, 3)
	if res.Sampler == nil {
		t.Fatal("Result.Sampler is nil with SamplePeriod set")
	}
	groups := res.Sampler.Groups()
	want := map[string]bool{"queue_depth": false, "utilization": false, "federation": false}
	for _, g := range groups {
		if _, ok := want[g]; ok {
			want[g] = true
		}
	}
	for g, seen := range want {
		if !seen {
			t.Errorf("sampler missing group %q (have %v)", g, groups)
		}
	}
	for _, m := range res.Federation.Machines() {
		if res.Sampler.Series("queue_depth", m.ID) == nil {
			t.Errorf("no queue_depth series for machine %s", m.ID)
		}
		if res.Sampler.Series("utilization", m.ID) == nil {
			t.Errorf("no utilization series for machine %s", m.ID)
		}
	}
	var csv bytes.Buffer
	if err := res.Sampler.WriteCSV("federation", &csv); err != nil {
		t.Fatal(err)
	}
	if csv.Len() == 0 {
		t.Error("federation CSV is empty")
	}
	if res.Phases == nil {
		t.Fatal("Result.Phases is nil with ProfilePhases attached")
	}
	if res.Phases.Events() == 0 {
		t.Error("profiler recorded no events")
	}
	if res.Phases.Events() != res.Kernel.Executed() {
		t.Errorf("profiler saw %d events, kernel executed %d",
			res.Phases.Events(), res.Kernel.Executed())
	}
}
