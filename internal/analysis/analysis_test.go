package analysis

import (
	"github.com/tgsim/tgmod/internal/job"
	"math"
	"testing"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/obs"
)

// rec builds the canonical event stream of one job lifecycle.
type streamBuilder struct{ buf *obs.Buffer }

func newStream() *streamBuilder { return &streamBuilder{buf: obs.NewBuffer()} }

func (s *streamBuilder) queue(at float64, id int64, machine, mod string, cores int) {
	s.buf.Begin(obsTime(at), "job", "wait", machine, id,
		obs.KV{Key: "user", Value: "u"},
		obs.KV{Key: "cores", Value: cores},
		obs.KV{Key: "qos", Value: "normal"},
		obs.KV{Key: "mod", Value: mod})
}

func (s *streamBuilder) start(at float64, id int64, machine string) {
	s.buf.End(obsTime(at), "job", "wait", machine, id)
	s.buf.Begin(obsTime(at), "job", "run", machine, id)
}

func (s *streamBuilder) finish(at float64, id int64, machine, state string) {
	s.buf.End(obsTime(at), "job", "run", machine, id,
		obs.KV{Key: "state", Value: state})
}

func (s *streamBuilder) preempt(at float64, id int64, machine, mod string, cores int) {
	s.buf.End(obsTime(at), "job", "run", machine, id,
		obs.KV{Key: "state", Value: "preempted"})
	s.buf.Begin(obsTime(at), "job", "wait", machine, id,
		obs.KV{Key: "user", Value: "u"},
		obs.KV{Key: "cores", Value: cores},
		obs.KV{Key: "mod", Value: mod},
		obs.KV{Key: "requeued", Value: true})
}

func (s *streamBuilder) restart(at float64, id int64, machine string) { s.start(at, id, machine) }

func obsTime(at float64) des.Time { return des.Time(at) }

func TestReconstructSimpleLifecycle(t *testing.T) {
	s := newStream()
	s.queue(10, 1, "m1", "batch-capacity", 8)
	s.start(25, 1, "m1")
	s.finish(125, 1, "m1", "completed")
	ts, err := Reconstruct(s.buf.Events())
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Jobs) != 1 {
		t.Fatalf("got %d jobs", len(ts.Jobs))
	}
	tl := ts.Job(1)
	if tl == nil || !tl.Complete() {
		t.Fatal("job 1 missing or incomplete")
	}
	if got := float64(tl.FirstWait()); got != 15 {
		t.Errorf("FirstWait = %v, want 15", got)
	}
	if got := float64(tl.FinalRun()); got != 100 {
		t.Errorf("FinalRun = %v, want 100", got)
	}
	if got := float64(tl.EndToEnd()); got != 115 {
		t.Errorf("EndToEnd = %v, want 115", got)
	}
	if tl.Modality != "batch-capacity" || tl.Machine != "m1" || tl.Cores != 8 {
		t.Errorf("metadata lost: %+v", tl)
	}
	if tl.Preemptions() != 0 || tl.RequeueWait() != 0 || tl.LostRun() != 0 {
		t.Error("unpreempted job has preemption components")
	}
}

func TestReconstructPreemptionRequeue(t *testing.T) {
	s := newStream()
	s.queue(0, 2, "m1", "batch-capacity", 16)
	s.start(10, 2, "m1")                         // waited 10
	s.preempt(40, 2, "m1", "batch-capacity", 16) // ran 30, lost
	s.restart(100, 2, "m1")                      // requeue-waited 60
	s.finish(250, 2, "m1", "completed")          // ran 150
	ts, err := Reconstruct(s.buf.Events())
	if err != nil {
		t.Fatal(err)
	}
	tl := ts.Job(2)
	if tl == nil || !tl.Complete() {
		t.Fatal("job 2 missing or incomplete")
	}
	if got := float64(tl.FirstWait()); got != 10 {
		t.Errorf("FirstWait = %v", got)
	}
	if got := float64(tl.RequeueWait()); got != 60 {
		t.Errorf("RequeueWait = %v", got)
	}
	if got := float64(tl.LostRun()); got != 30 {
		t.Errorf("LostRun = %v", got)
	}
	if got := float64(tl.FinalRun()); got != 150 {
		t.Errorf("FinalRun = %v", got)
	}
	if tl.Preemptions() != 1 {
		t.Errorf("Preemptions = %d", tl.Preemptions())
	}
	if got := float64(tl.LastStart()); got != 100 {
		t.Errorf("LastStart = %v", got)
	}
	// The decomposition identity: components sum exactly to end-to-end.
	sum := float64(tl.FirstWait() + tl.RequeueWait() + tl.LostRun() + tl.FinalRun())
	if e2e := float64(tl.EndToEnd()); sum != e2e {
		t.Errorf("components sum %v != end-to-end %v", sum, e2e)
	}
}

func TestReconstructTransferAttribution(t *testing.T) {
	s := newStream()
	// Stage-in completes before the job is submitted (data-centric shape).
	s.buf.Begin(5, "net", "transfer", "wan", 900,
		obs.KV{Key: "src", Value: "harbor"}, obs.KV{Key: "dst", Value: "mesa"},
		obs.KV{Key: "bytes", Value: int64(1 << 30)}, obs.KV{Key: "job", Value: int64(3)})
	s.buf.End(45, "net", "transfer", "wan", 900)
	// An unbound transfer.
	s.buf.Begin(6, "net", "transfer", "wan", 901,
		obs.KV{Key: "bytes", Value: int64(10)}, obs.KV{Key: "job", Value: int64(0)})
	s.buf.End(7, "net", "transfer", "wan", 901)
	s.queue(50, 3, "m2", "data-centric", 4)
	s.start(60, 3, "m2")
	s.finish(100, 3, "m2", "completed")

	ts, err := Reconstruct(s.buf.Events())
	if err != nil {
		t.Fatal(err)
	}
	tl := ts.Job(3)
	if tl == nil || len(tl.Transfers) != 1 {
		t.Fatalf("job 3 has %d transfers, want 1", len(tl.Transfers))
	}
	if got := tl.TransferSeconds(); got != 40 {
		t.Errorf("TransferSeconds = %v", got)
	}
	if tl.Transfers[0].Bytes != 1<<30 {
		t.Errorf("bytes = %d", tl.Transfers[0].Bytes)
	}
	if ts.UnattributedTransfers != 1 {
		t.Errorf("UnattributedTransfers = %d", ts.UnattributedTransfers)
	}
}

func TestReconstructTruncatedAndRejected(t *testing.T) {
	s := newStream()
	s.queue(0, 4, "m1", "ensemble", 1)
	s.start(5, 4, "m1")                // run never ends: truncated trace
	s.queue(1, 5, "m1", "ensemble", 1) // still waiting
	s.buf.Instant(2, "job", "reject", "m1", obs.KV{Key: "job", Value: int64(6)})
	ts, err := Reconstruct(s.buf.Events())
	if err != nil {
		t.Fatal(err)
	}
	if ts.Incomplete != 2 {
		t.Errorf("Incomplete = %d, want 2", ts.Incomplete)
	}
	if ts.Rejected != 1 {
		t.Errorf("Rejected = %d", ts.Rejected)
	}
	if ds := Decompose(ts); len(ds) != 0 {
		t.Errorf("incomplete jobs leaked into decomposition: %+v", ds)
	}
}

func TestReconstructRejectsMalformedStreams(t *testing.T) {
	// End with no begin.
	b := obs.NewBuffer()
	b.End(1, "job", "wait", "m1", 9)
	if _, err := Reconstruct(b.Events()); err == nil {
		t.Error("dangling end accepted")
	}
	// Run begin with no wait.
	b2 := obs.NewBuffer()
	b2.Begin(1, "job", "run", "m1", 9)
	if _, err := Reconstruct(b2.Events()); err == nil {
		t.Error("run-without-wait accepted")
	}
	// Nested begin inside an open segment.
	b3 := obs.NewBuffer()
	b3.Begin(1, "job", "wait", "m1", 9)
	b3.Begin(2, "job", "run", "m1", 9)
	if _, err := Reconstruct(b3.Events()); err == nil {
		t.Error("begin inside open segment accepted")
	}
}

func TestDecomposeAggregatesPerModality(t *testing.T) {
	s := newStream()
	s.queue(0, 1, "m1", "gateway", 1)
	s.start(30, 1, "m1")
	s.finish(90, 1, "m1", "completed")
	s.queue(0, 2, "m1", "gateway", 1)
	s.start(50, 2, "m1")
	s.finish(80, 2, "m1", "completed")
	s.queue(0, 3, "m1", "urgent", 64)
	s.start(0, 3, "m1")
	s.finish(600, 3, "m1", "completed")
	ts, err := Reconstruct(s.buf.Events())
	if err != nil {
		t.Fatal(err)
	}
	ds := Decompose(ts)
	if len(ds) != 2 {
		t.Fatalf("got %d modalities", len(ds))
	}
	// Canonical order puts gateway before urgent.
	if ds[0].Modality != "gateway" || ds[1].Modality != "urgent" {
		t.Fatalf("order: %s, %s", ds[0].Modality, ds[1].Modality)
	}
	gw := ds[0]
	if gw.Jobs != 2 || gw.WaitSeconds != 80 || gw.RunSeconds != 90 || gw.EndToEndSeconds != 170 {
		t.Errorf("gateway decomp: %+v", gw)
	}
	if gw.MeanWait() != 40 {
		t.Errorf("MeanWait = %v", gw.MeanWait())
	}
	if math.Abs(gw.WaitShare()-80.0/170.0) > 1e-12 {
		t.Errorf("WaitShare = %v", gw.WaitShare())
	}
	urgent := ds[1]
	if urgent.WaitSeconds != 0 || urgent.RunSeconds != 600 {
		t.Errorf("urgent decomp: %+v", urgent)
	}
	tab := DecompositionTable(ds)
	if tab.Rows() != 3 { // 2 modalities + ALL
		t.Errorf("table rows = %d", tab.Rows())
	}
}

// testSyms is the table the package's test records index.
var testSyms = job.NewSymbols()

// sym interns s into testSyms.
func sym(s string) job.Sym { return testSyms.Intern(s) }

// mkRec builds a campaign member record.
func mkRec(id int64, campaign, mod string, submit, start, end float64) *accounting.JobRecord {
	return &accounting.JobRecord{
		JobID: id, TruthCampaign: sym(campaign), TruthModality: sym(mod),
		SubmitTime: submit, StartTime: start, EndTime: end,
		WallSeconds: end - start, Cores: 1, User: sym("u"), Project: sym("p"),
	}
}

func TestCriticalPathChain(t *testing.T) {
	// A diamond: a → (b ∥ c) → d, plus queue gaps. Spans (submit→end):
	// a: 0→100, b: 100→250, c: 100→180, d: 250→400.
	recs := []*accounting.JobRecord{
		mkRec(1, "wf-1", "workflow", 0, 10, 100),
		mkRec(2, "wf-1", "workflow", 100, 130, 250),
		mkRec(3, "wf-1", "workflow", 100, 110, 180),
		mkRec(4, "wf-1", "workflow", 250, 260, 400),
	}
	paths := CriticalPaths(recs, testSyms)
	if len(paths) != 1 {
		t.Fatalf("got %d paths", len(paths))
	}
	p := paths[0]
	if p.Jobs != 4 || p.Kind != "workflow" {
		t.Errorf("path: %+v", p)
	}
	if p.MakespanSeconds != 400 {
		t.Errorf("makespan = %v", p.MakespanSeconds)
	}
	// Chain a(100) + b(150) + d(150) = 400; c's branch is shorter.
	if p.CriticalPathSeconds != 400 || p.ChainJobs != 3 {
		t.Errorf("critical path = %v over %d jobs", p.CriticalPathSeconds, p.ChainJobs)
	}
	if p.CPShare() != 1.0 {
		t.Errorf("CPShare = %v", p.CPShare())
	}
	wantWork := 90.0 + 120 + 70 + 140
	if p.SumWorkSeconds != wantWork {
		t.Errorf("sum work = %v, want %v", p.SumWorkSeconds, wantWork)
	}
}

func TestCriticalPathsGroupingAndOrder(t *testing.T) {
	recs := []*accounting.JobRecord{
		// Ensemble of 3 fully parallel jobs: CP = one span.
		mkRec(10, "ens-1", "ensemble", 0, 5, 100),
		mkRec(11, "ens-1", "ensemble", 0, 6, 90),
		mkRec(12, "ens-1", "ensemble", 0, 7, 110),
		// Workflow pair via instrumented tag only (no truth campaign).
		{JobID: 20, WorkflowID: sym("wf-x"), TruthModality: sym("workflow"),
			SubmitTime: 0, StartTime: 1, EndTime: 50, WallSeconds: 49},
		{JobID: 21, WorkflowID: sym("wf-x"), TruthModality: sym("workflow"),
			SubmitTime: 50, StartTime: 52, EndTime: 90, WallSeconds: 38},
		// Singleton: excluded.
		mkRec(30, "solo", "ensemble", 0, 1, 10),
		// Untagged: excluded.
		{JobID: 31, SubmitTime: 0, StartTime: 1, EndTime: 10},
	}
	paths := CriticalPaths(recs, testSyms)
	if len(paths) != 2 {
		t.Fatalf("got %d paths: %+v", len(paths), paths)
	}
	// Sorted by descending makespan: ens-1 (110) before wf-x (90).
	if paths[0].Campaign != "ens-1" || paths[1].Campaign != "wf-x" {
		t.Errorf("order: %s, %s", paths[0].Campaign, paths[1].Campaign)
	}
	if paths[0].CriticalPathSeconds != 110 || paths[0].ChainJobs != 1 {
		t.Errorf("ensemble CP: %+v", paths[0])
	}
	if paths[1].CriticalPathSeconds != 90 || paths[1].ChainJobs != 2 {
		t.Errorf("workflow CP: %+v", paths[1])
	}
	tab := CriticalPathTable(paths, 1)
	if tab.Rows() != 3 { // 2 kind summaries + top-1 campaign
		t.Errorf("table rows = %d", tab.Rows())
	}
}
