package observatory

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/stream"
	"github.com/tgsim/tgmod/internal/telemetry"
	"github.com/tgsim/tgmod/internal/users"
	"github.com/tgsim/tgmod/internal/workload"
)

// smallConfig is a fast mixed-modality scenario, the same shape the
// stream package's tests use.
func smallConfig(seed uint64) scenario.Config {
	return scenario.New(seed,
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
}

func largestCores(t *testing.T) int {
	t.Helper()
	largest, err := scenario.LargestBatchCores(scenario.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return largest
}

// startDaemon spins an in-process daemon listening on loopback.
func startDaemon(t *testing.T) (*Daemon, string) {
	t.Helper()
	d := NewDaemon(Config{})
	addr, err := d.ListenIngest("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, addr
}

// pushRun runs one small scenario pushed to addr and returns the local
// result plus the pusher (already finished).
func pushRun(t *testing.T, addr string, seed uint64, id string) (*scenario.Result, *Pusher, scenario.Config) {
	t.Helper()
	cfg := smallConfig(seed)
	end := float64(cfg.Horizon + cfg.DrainTime)
	p, err := DialPush(addr, Hello{
		Run: id, Seed: seed, LargestCores: largestCores(t),
		EndTimeS: end, Source: "test",
	}, DefaultPushOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observers = append(cfg.Observers, p.Observer(nil))
	res, err := scenario.Run(cfg)
	if err != nil {
		p.Abort()
		t.Fatal(err)
	}
	if err := p.Finish(end); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if p.Lossy() {
		t.Fatalf("push lossy: %+v", p.Stats())
	}
	return res, p, cfg
}

// TestPushDoesNotPerturbRun: the determinism contract — a pushed run's
// accounting database is byte-identical to the same seed without push.
func TestPushDoesNotPerturbRun(t *testing.T) {
	_, addr := startDaemon(t)
	pushed, _, _ := pushRun(t, addr, 7, "det")
	plain, err := scenario.Run(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := pushed.Central.Export(&a); err != nil {
		t.Fatal(err)
	}
	if err := plain.Central.Export(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("pushed run's accounting export differs from the plain same-seed run")
	}
}

// TestDaemonReportByteMatch: the daemon's per-run final report and
// accounting export byte-match what the producer computes locally.
func TestDaemonReportByteMatch(t *testing.T) {
	d, addr := startDaemon(t)
	res, p, _ := pushRun(t, addr, 11, "bytematch")

	// The producer's own report path.
	cl := core.NewClassifier(core.Config{LargestCores: largestCores(t)})
	rep := core.BuildReport(res.Central, cl.Classify(res.Central))
	var want bytes.Buffer
	if err := core.ModalityTable(rep).WriteText(&want); err != nil {
		t.Fatal(err)
	}

	got := d.RunReport(p.RunID())
	if got == nil {
		t.Fatal("daemon has no final report after Finish")
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("daemon report differs from producer's:\n--- daemon ---\n%s\n--- producer ---\n%s", got, want.Bytes())
	}

	var dExport, pExport bytes.Buffer
	if err := d.RunCentralExport(p.RunID(), &dExport); err != nil {
		t.Fatal(err)
	}
	if err := res.Central.Export(&pExport); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dExport.Bytes(), pExport.Bytes()) {
		t.Fatal("daemon-side accounting export differs from the producer's")
	}
}

// TestConcurrentCentralExport: no read of a Central writes, and nothing
// ingests into a run once it is finalized, so concurrent exports of a
// finalized run only read (run under -race) and agree byte for byte.
func TestConcurrentCentralExport(t *testing.T) {
	d, addr := startDaemon(t)
	_, p, _ := pushRun(t, addr, 5, "concurrent")
	var outs [2]bytes.Buffer
	errs := make(chan error, len(outs))
	for i := range outs {
		go func() { errs <- d.RunCentralExport(p.RunID(), &outs[i]) }()
	}
	for range outs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if outs[0].Len() == 0 || !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Fatalf("concurrent exports differ or are empty (%d and %d bytes)", outs[0].Len(), outs[1].Len())
	}
}

// TestPusherChainsExistingSnapshotSink pins Pusher.Observer's composition
// contract: a snapshot sink attached before the pusher's observer keeps
// receiving every snapshot, and the pusher forwards each one to the daemon.
// Attaching the local sink after the pusher would replace the pusher's
// sink instead, so the order below is the one callers must use.
func TestPusherChainsExistingSnapshotSink(t *testing.T) {
	d, addr := startDaemon(t)
	cfg := smallConfig(5)
	end := float64(cfg.Horizon + cfg.DrainTime)
	p, err := DialPush(addr, Hello{
		Run: "chain", Seed: 5, LargestCores: largestCores(t),
		EndTimeS: end, Source: "test",
	}, DefaultPushOptions())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	var local uint64
	var last *telemetry.Snapshot
	cfg.Observers = append(cfg.Observers,
		scenario.LiveTelemetry(reg),
		scenario.StreamSnapshots(func(s *telemetry.Snapshot) {
			local++
			last = s
		}),
		p.Observer(reg),
	)
	if _, err := scenario.Run(cfg); err != nil {
		p.Abort()
		t.Fatal(err)
	}
	if err := p.Finish(end); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if local == 0 || last == nil || !last.Done {
		t.Fatalf("local sink got %d snapshots (last %+v), want at least the final one", local, last)
	}
	st := p.Stats()
	if st.Snapshots != local {
		t.Errorf("pusher forwarded %d snapshots, local sink saw %d", st.Snapshots, local)
	}
	// Snapshot and metrics frames are droppable: each one the pusher
	// enqueued either reached the daemon or was counted as dropped.
	got := d.frameSnaps.Load()
	if got == 0 {
		t.Fatal("daemon received no snapshot frames")
	}
	if sum := got + d.frameMetrics.Load() + st.SnapsDropped; sum != st.Snapshots+st.Metrics {
		t.Errorf("daemon frames + dropped = %d, pusher sent %d", sum, st.Snapshots+st.Metrics)
	}
	if rs := d.run(p.RunID()); rs == nil || rs.lastSnap.Load() == nil {
		t.Error("daemon holds no snapshot for the run")
	}
}

// TestConcurrentRunsAndFederation: two concurrent pushed runs; the daemon
// serves both drill-downs, and the fleet /modalities document equals the
// deterministic merge of the per-run payloads.
func TestConcurrentRunsAndFederation(t *testing.T) {
	d, addr := startDaemon(t)
	var wg sync.WaitGroup
	seeds := []uint64{21, 22}
	ids := []string{"fed-a", "fed-b"}
	for i := range seeds {
		wg.Add(1)
		go func(seed uint64, id string) {
			defer wg.Done()
			cfg := smallConfig(seed)
			end := float64(cfg.Horizon + cfg.DrainTime)
			p, err := DialPush(addr, Hello{Run: id, Seed: seed, LargestCores: 4096, EndTimeS: end}, DefaultPushOptions())
			if err != nil {
				t.Error(err)
				return
			}
			cfg.Observers = append(cfg.Observers, p.Observer(nil))
			if _, err := scenario.Run(cfg); err != nil {
				p.Abort()
				t.Error(err)
				return
			}
			if err := p.Finish(end); err != nil {
				t.Error(err)
			}
		}(seeds[i], ids[i])
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if got := d.RunIDs(); len(got) != 2 || got[0] != "fed-a" || got[1] != "fed-b" {
		t.Fatalf("RunIDs = %v, want [fed-a fed-b]", got)
	}

	// Drill-down endpoints serve per-run payloads.
	for _, id := range ids {
		for _, sub := range []string{"status", "modalities", "drift", "stream", "report"} {
			rec := httptest.NewRecorder()
			d.ServeHTTP(rec, httptest.NewRequest("GET", "/runs/"+id+"/"+sub, nil))
			if rec.Code != http.StatusOK {
				t.Errorf("GET /runs/%s/%s = %d", id, sub, rec.Code)
			}
		}
	}

	// /runs lists both, finalized.
	rec := httptest.NewRecorder()
	d.ServeHTTP(rec, httptest.NewRequest("GET", "/runs", nil))
	var infos []RunInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatalf("parse /runs: %v", err)
	}
	if len(infos) != 2 || !infos[0].Finalized || !infos[1].Finalized {
		t.Fatalf("/runs = %+v", infos)
	}

	// Fleet /modalities equals the deterministic merge of the per-run
	// payloads (served bytes vs a re-merge of the drill-down documents).
	perRun := make([]*stream.ModalitiesPayload, len(ids))
	for i, id := range ids {
		rec := httptest.NewRecorder()
		d.ServeHTTP(rec, httptest.NewRequest("GET", "/runs/"+id+"/modalities", nil))
		p, err := ParseModalities(rec.Body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		perRun[i] = p
	}
	want := stream.MarshalPayload(MergeModalities(ids, perRun))
	rec = httptest.NewRecorder()
	d.ServeHTTP(rec, httptest.NewRequest("GET", "/modalities", nil))
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatal("fleet /modalities differs from the deterministic merge of per-run payloads")
	}

	// Sums federate: fleet lifetime jobs = sum of per-run lifetime jobs.
	var fleet FleetModalities
	if err := json.Unmarshal(rec.Body.Bytes(), &fleet); err != nil {
		t.Fatal(err)
	}
	var wantJobs int64
	for _, p := range perRun {
		wantJobs += p.Lifetime.TotalJobs
	}
	if fleet.Lifetime.TotalJobs != wantJobs {
		t.Fatalf("fleet lifetime jobs = %d, want %d", fleet.Lifetime.TotalJobs, wantJobs)
	}

	// The daemon's own /metrics exposes the tg_obsd_* families.
	rec = httptest.NewRecorder()
	d.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	om := rec.Body.String()
	for _, want := range []string{
		"tg_obsd_connections_total 2",
		"tg_obsd_frames_total{kind=\"packet\"}",
		"tg_obsd_runs{state=\"finalized\"} 2",
		"tg_obsd_ingest_lag_seconds{run=\"fed-a\"}",
	} {
		if !strings.Contains(om, want) {
			t.Errorf("/metrics missing %q:\n%s", want, om)
		}
	}
	// OpenMetrics: every sample sits under its own family's TYPE line, and
	// no family is declared twice.
	family, declared := "", map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(om), "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family = strings.Fields(f)[0]
			if declared[family] {
				t.Errorf("/metrics declares %s twice", family)
			}
			declared[family] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := strings.FieldsFunc(line, func(r rune) bool { return r == '{' || r == ' ' })[0]
		switch strings.TrimPrefix(name, family) {
		case "", "_total", "_bucket", "_sum", "_count":
		default:
			t.Errorf("/metrics sample %q sits under family %s", line, family)
		}
	}
}

// TestRunIDUniquified: a second live connection requesting a taken ID
// gets a #2-suffixed identity instead of corrupting the first run.
func TestRunIDUniquified(t *testing.T) {
	_, addr := startDaemon(t)
	a, err := DialPush(addr, Hello{Run: "dup", Seed: 1}, DefaultPushOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Abort()
	b, err := DialPush(addr, Hello{Run: "dup", Seed: 2}, DefaultPushOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Abort()
	if a.RunID() != "dup" {
		t.Fatalf("first run got %q, want dup", a.RunID())
	}
	if b.RunID() != "dup#2" {
		t.Fatalf("second run got %q, want dup#2", b.RunID())
	}
}

// TestMergeModalitiesDeterministic: merging the same payload set twice
// yields byte-identical documents, and the fold sums correctly.
func TestMergeModalitiesDeterministic(t *testing.T) {
	mk := func(jobs int64, nus, conf float64) *stream.ModalitiesPayload {
		return &stream.ModalitiesPayload{
			At:       100,
			Ingested: uint64(jobs),
			Windows: []stream.ModalityWindow{{
				Window: "24h", TotalJobs: jobs, TotalNUs: nus,
				Rows: []stream.ModalityRow{{Modality: "batch", Jobs: jobs, NUs: nus, Confidence: conf}},
			}},
			Lifetime: stream.ModalityWindow{
				Window: "lifetime", TotalJobs: jobs, TotalNUs: nus,
				Rows: []stream.ModalityRow{{Modality: "batch", Jobs: jobs, NUs: nus, Confidence: conf}},
			},
		}
	}
	ids := []string{"a", "b"}
	ps := []*stream.ModalitiesPayload{mk(10, 100, 0.8), mk(30, 50, 0.6)}
	m1 := stream.MarshalPayload(MergeModalities(ids, ps))
	m2 := stream.MarshalPayload(MergeModalities(ids, ps))
	if !bytes.Equal(m1, m2) {
		t.Fatal("merge is not deterministic")
	}
	merged := MergeModalities(ids, ps)
	if merged.Lifetime.TotalJobs != 40 || merged.Lifetime.TotalNUs != 150 {
		t.Fatalf("lifetime totals = %d jobs / %v NUs, want 40 / 150", merged.Lifetime.TotalJobs, merged.Lifetime.TotalNUs)
	}
	// Confidence is jobs-weighted: (0.8*10 + 0.6*30) / 40 = 0.65.
	got := merged.Lifetime.Rows[0].Confidence
	if fmt.Sprintf("%.4f", got) != "0.6500" {
		t.Fatalf("weighted confidence = %v, want 0.65", got)
	}
	if merged.Ingested != 40 {
		t.Fatalf("ingested = %d, want 40", merged.Ingested)
	}
}

// TestMergeDrift: events and disagreements sum; rate recomputes; peak is
// the max.
func TestMergeDrift(t *testing.T) {
	mk := func(events, disagree int64, peak float64) *stream.DriftPayload {
		return &stream.DriftPayload{
			At: 50, Events: events, Disagree: disagree,
			Rate:    float64(disagree) / float64(events),
			Windows: []stream.DriftWindow{{Window: "24h", Events: events, Disagree: disagree, Peak: peak}},
		}
	}
	m := MergeDrift([]string{"a", "b"}, []*stream.DriftPayload{mk(100, 10, 0.2), mk(300, 6, 0.5)})
	if m.Events != 400 || m.Disagree != 16 {
		t.Fatalf("merged events/disagree = %d/%d, want 400/16", m.Events, m.Disagree)
	}
	if m.Rate != 0.04 {
		t.Fatalf("merged rate = %v, want 0.04", m.Rate)
	}
	if len(m.Windows) != 1 || m.Windows[0].Peak != 0.5 {
		t.Fatalf("merged windows = %+v", m.Windows)
	}
}
