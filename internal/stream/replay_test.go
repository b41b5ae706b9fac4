package stream

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/obs"
	"github.com/tgsim/tgmod/internal/regress"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/users"
	"github.com/tgsim/tgmod/internal/workload"
)

// smallConfig is a fast mixed-modality scenario (a few simulated days at
// reduced rates) with a processor tapped in.
func smallConfig(seed uint64, proc *Processor) scenario.Config {
	cfg := scenario.New(seed,
		scenario.WithHorizon(4*des.Day),
		scenario.WithDrain(des.Day),
		scenario.WithUsers(users.Config{Projects: 30, UsersPerProjMu: 0.7, UsersPerProjSd: 0.6, ActivityAlpha: 1.5}),
		scenario.WithGenerators(
			&workload.BatchGen{JobsPerDay: 100, CapabilityFrac: 0.02, MedianRuntime: 3600},
			&workload.EnsembleGen{CampaignsPerDay: 4, JobsPerCampaign: 10, TagCoverage: 0.5, MedianRuntime: 900},
			&workload.WorkflowGen{CampaignsPerDay: 3, TaggedFrac: 0.5, Workers: 4, MedianTask: 600},
			&workload.GatewayGen{Gateway: "nanohub", RequestsPerDay: 60, EndUsers: 200, MedianRuntime: 300},
			&workload.UrgentGen{EventsPerWeek: 3, MedianRuntime: 1800},
			&workload.InteractiveGen{SessionsPerDay: 10, MedianSession: 1200},
			&workload.DataCentricGen{JobsPerDay: 6, MedianInputGB: 20, MedianRuntime: 1800},
			&workload.MetaschedGen{JobsPerDay: 10, CoAllocFrac: 0.05, MedianRuntime: 1800},
		),
	)
	if proc != nil {
		cfg.Observers = append(cfg.Observers, Tap(proc))
	}
	return cfg
}

// runTapped runs the small scenario with a fresh processor attached and
// returns both, with the processor advanced to the end of the run.
func runTapped(t *testing.T, seed uint64) (*scenario.Result, *Processor, scenario.Config) {
	t.Helper()
	cfg := smallConfig(seed, nil)
	largest := 0
	// Build the processor with the federation the run will use.
	fed, err := scenario.TG9()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range fed.Machines() {
		if m.BatchCores() > largest {
			largest = m.BatchCores()
		}
	}
	proc := New(Config{LargestCores: largest})
	cfg.Observers = append(cfg.Observers, Tap(proc))
	res, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	proc.Advance(cfg.Horizon + cfg.DrainTime)
	return res, proc, cfg
}

// TestTapSeesEveryRecord: the live tap ingests exactly the records the
// central database holds.
func TestTapSeesEveryRecord(t *testing.T) {
	res, proc, _ := runTapped(t, 11)
	c := res.Central
	wantRecords := c.Len() + c.Transfers().Len() + c.GatewayAttrs().Len() + c.StorageRecords().Len()
	if int(proc.Ingested()) != wantRecords {
		t.Errorf("stream ingested %d records, central holds %d", proc.Ingested(), wantRecords)
	}
	if jobs := acceptedJobs(proc); len(jobs) != c.Len() {
		t.Errorf("stream accepted %d jobs, central %d", len(jobs), c.Len())
	}
}

// TestTapDoesNotPerturbRun: attaching the observatory must not change a
// same-seed run (the determinism contract for every observer).
func TestTapDoesNotPerturbRun(t *testing.T) {
	plain, err := scenario.Run(smallConfig(7, nil))
	if err != nil {
		t.Fatal(err)
	}
	tapped, err := scenario.Run(smallConfig(7, New(Config{LargestCores: 512})))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := plain.Central.Export(&a); err != nil {
		t.Fatal(err)
	}
	if err := tapped.Central.Export(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("accounting export differs with the stream tap attached")
	}
	if plain.Kernel.Executed() != tapped.Kernel.Executed() {
		t.Errorf("kernel events %d vs %d with tap", plain.Kernel.Executed(), tapped.Kernel.Executed())
	}
}

// TestReplayEquivalence is the tentpole contract: replaying an export
// reproduces the live run's post-run modality report exactly, and the
// replayed stream's own view matches the live stream's.
func TestReplayEquivalence(t *testing.T) {
	res, liveProc, cfg := runTapped(t, 3)

	// Export and re-import the accounting trace (the acct.jsonl round trip).
	var buf bytes.Buffer
	if err := res.Central.Export(&buf); err != nil {
		t.Fatal(err)
	}
	imported := accounting.NewCentral(nil)
	if err := imported.Import(&buf); err != nil {
		t.Fatal(err)
	}

	// The byte-identical path: classify the imported central with the
	// live run's parameters and compare the built reports field-for-field.
	ccfg := core.Config{LargestCores: res.LargestCores}
	liveRep := core.BuildReport(res.Central, core.NewClassifier(ccfg).Classify(res.Central))
	replayRep := core.BuildReport(imported, core.NewClassifier(ccfg).Classify(imported))
	if !reflect.DeepEqual(liveRep, replayRep) {
		t.Errorf("replayed modality report differs:\nlive   %+v\nreplay %+v", liveRep, replayRep)
	}

	// The streaming path: the replayed stream's end-of-run batch view
	// equals the live stream's (the online windows are approximate and
	// order-sensitive — Finalize is the order-free contract).
	feed := func() *Processor {
		p := New(Config{LargestCores: res.LargestCores})
		rp := &Replay{
			Run:     &regress.Run{Central: imported},
			EndTime: cfg.Horizon + cfg.DrainTime,
		}
		records, spans, err := rp.Feed(p)
		if err != nil {
			t.Fatal(err)
		}
		if spans != 0 {
			t.Errorf("replay without obs fed %d span events", spans)
		}
		if uint64(records) != liveProc.Ingested() {
			t.Errorf("replay fed %d records, live ingested %d", records, liveProc.Ingested())
		}
		return p
	}
	replayProc := feed()
	liveFin, err := liveProc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	replayFin, err := replayProc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(liveFin.Report, replayFin.Report) {
		t.Errorf("stream finalize reports differ:\nlive   %+v\nreplay %+v",
			liveFin.Report, replayFin.Report)
	}

	// Replay is itself deterministic: two replays of one export render
	// byte-identical console documents.
	again := feed()
	if !bytes.Equal(replayProc.ModalitiesJSON(), again.ModalitiesJSON()) {
		t.Error("two replays of the same export render different /modalities")
	}
	if !bytes.Equal(replayProc.DriftJSON(), again.DriftJSON()) {
		t.Error("two replays of the same export render different /drift")
	}
}

// TestPayloadsDeterministic: same-seed runs render byte-identical console
// documents (the golden-JSON acceptance gate).
func TestPayloadsDeterministic(t *testing.T) {
	_, a, _ := runTapped(t, 21)
	_, b, _ := runTapped(t, 21)
	if !bytes.Equal(a.ModalitiesJSON(), b.ModalitiesJSON()) {
		t.Error("same-seed /modalities payloads differ")
	}
	if !bytes.Equal(a.DriftJSON(), b.DriftJSON()) {
		t.Error("same-seed /drift payloads differ")
	}
	// And the documents carry the expected shape.
	m := a.Modalities()
	if len(m.Windows) != numWindows || m.Windows[0].Window != "1h" {
		t.Fatalf("modalities windows = %+v", m.Windows)
	}
	if m.Lifetime.TotalJobs == 0 || m.Ingested == 0 {
		t.Errorf("empty lifetime usage: %+v", m.Lifetime)
	}
	d := a.Drift()
	if d.Events == 0 || len(d.Windows) != numWindows || len(d.History) == 0 {
		t.Errorf("drift payload: events=%d windows=%d history=%d",
			d.Events, len(d.Windows), len(d.History))
	}
}

// TestFinalizeMatchesLiveBatch: the stream's end-of-run batch view over a
// real scenario matches the post-run classification.
func TestFinalizeMatchesLiveBatch(t *testing.T) {
	res, proc, _ := runTapped(t, 13)
	fin, err := proc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	want := core.NewClassifier(core.Config{LargestCores: res.LargestCores}).Classify(res.Central)
	got := make(map[int64]string, len(fin.Results))
	for _, r := range fin.Results {
		got[r.JobID] = string(r.Rule.Modality())
	}
	mismatch := 0
	for _, r := range want {
		if got[r.JobID] != string(r.Rule.Modality()) {
			mismatch++
		}
	}
	if mismatch != 0 {
		t.Errorf("%d/%d per-job classifications differ between stream finalize and post-run batch",
			mismatch, len(want))
	}
}

// TestReplayPacing: -replay-speed sleeps in proportion to virtual time.
func TestReplayPacing(t *testing.T) {
	c := accounting.NewCentral(nil)
	sym := c.Syms().Intern
	if err := c.Ingest(&accounting.Packet{Site: "s", Seq: 1, Syms: c.Syms(), Jobs: []accounting.JobRecord{
		{JobID: 1, Cores: 1, SubmitTime: 0, EndTime: 600, ExitStatus: sym("completed")},
		{JobID: 2, Cores: 1, SubmitTime: 0, EndTime: 1800, ExitStatus: sym("completed")},
		{JobID: 3, Cores: 1, SubmitTime: 0, EndTime: 3600, ExitStatus: sym("completed")},
	}}); err != nil {
		t.Fatal(err)
	}
	var slept time.Duration
	rp := &Replay{
		Run:   &regress.Run{Central: c},
		Speed: 600, // 10 virtual minutes per wall second
		Sleep: func(d time.Duration) { slept += d },
	}
	p := New(Config{LargestCores: 512})
	if _, _, err := rp.Feed(p); err != nil {
		t.Fatal(err)
	}
	// 3000 virtual seconds elapse after the first record: 5s of wall.
	if want := 5 * time.Second; slept != want {
		t.Errorf("slept %v, want %v", slept, want)
	}
	// Unpaced replay never sleeps.
	slept = 0
	rp.Speed = 0
	if _, _, err := rp.Feed(New(Config{LargestCores: 512})); err != nil {
		t.Fatal(err)
	}
	if slept != 0 {
		t.Errorf("unpaced replay slept %v", slept)
	}
}

// TestReplayNeedsAccounting: a run dir without acct.jsonl cannot replay.
func TestReplayNeedsAccounting(t *testing.T) {
	rp := &Replay{Run: &regress.Run{}}
	if _, _, err := rp.Feed(New(Config{})); err == nil {
		t.Error("replay without accounting succeeded")
	}
}

// TestRebuildObsBuffer: decoded events re-encode byte-identically.
func TestRebuildObsBuffer(t *testing.T) {
	src := obs.NewBuffer()
	src.Record(obs.Event{At: 1, Phase: obs.PhaseBegin, Cat: "job", Name: "run", ID: 7,
		Args: []obs.KV{{Key: "user", Value: "u1"}, {Key: "cores", Value: 8}}})
	src.Record(obs.Event{At: 2, Phase: obs.PhaseEnd, Cat: "job", Name: "run", ID: 7})
	var a bytes.Buffer
	if err := src.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJSONL(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := RebuildObsBuffer(events).WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("obs round trip differs:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
}
