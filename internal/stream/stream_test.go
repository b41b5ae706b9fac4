package stream

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/regress"
	"github.com/tgsim/tgmod/internal/simrand"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// randomRecords builds a random but internally consistent record set with
// a mix of attribute evidence, bursts, and plain batch jobs (the core
// property-test generator, duplicated to keep the packages decoupled),
// indexing syms.
func randomRecords(rng *simrand.Stream, n int, syms *job.Symbols) []accounting.JobRecord {
	sym := syms.Intern
	recs := make([]accounting.JobRecord, 0, n)
	tm := 0.0
	for i := 0; i < n; i++ {
		r := accounting.JobRecord{
			JobID:   int64(i + 1),
			Name:    sym(fmt.Sprintf("app-%d", rng.Intn(5))),
			User:    sym(fmt.Sprintf("u%d", rng.Intn(8))),
			Project: sym("p"), Site: sym("s"), Machine: sym("m"),
			Cores:      1 << uint(rng.Intn(10)),
			SubmitTime: tm,
			QOS:        sym("normal"),
			ExitStatus: sym("completed"),
			NUs:        float64(rng.Intn(100)),
		}
		r.StartTime = r.SubmitTime + float64(rng.Intn(500))
		r.EndTime = r.StartTime + float64(60+rng.Intn(5000))
		r.WallSeconds = r.EndTime - r.StartTime
		switch rng.Intn(8) {
		case 0:
			r.QOS = sym("urgent")
		case 1:
			r.GatewayID = sym("gw")
		case 2:
			r.EnsembleID = sym(fmt.Sprintf("ens-%d", rng.Intn(3)))
		case 3:
			r.WorkflowID = sym(fmt.Sprintf("wf-%d", rng.Intn(3)))
		case 4:
			r.BrokerJobID = sym("b")
		}
		tm += float64(rng.Intn(600))
		recs = append(recs, r)
	}
	return recs
}

func TestInboxBackpressure(t *testing.T) {
	p := New(Config{LargestCores: 512, InboxCap: 3})
	sym := p.Syms().Intern
	for i := 1; i <= 5; i++ {
		p.offerJob(&accounting.JobRecord{JobID: int64(i), Cores: 1, NUs: 1,
			EndTime: float64(i), ExitStatus: sym("completed")})
	}
	if got := p.Dropped(); got != 2 {
		t.Errorf("dropped = %d, want 2 (cap 3, offered 5)", got)
	}
	if got := p.Ingested(); got != 3 {
		t.Errorf("ingested = %d, want 3", got)
	}
	if hw := p.inbox.highWater; hw != 3 {
		t.Errorf("high water = %d, want 3", hw)
	}
	p.Advance(10)
	if d := p.inbox.depth(); d != 0 {
		t.Errorf("depth after drain = %d, want 0", d)
	}
	// Only the accepted records survive, in FIFO order.
	if jobs := acceptedJobs(p); len(jobs) != 3 || jobs[0].JobID != 1 || jobs[2].JobID != 3 {
		t.Errorf("accepted jobs = %+v, want IDs 1..3", jobs)
	}
	// Drained capacity is reusable.
	p.offerJob(&accounting.JobRecord{JobID: 6, Cores: 1, EndTime: 11})
	if p.Dropped() != 2 {
		t.Errorf("post-drain offer dropped; dropped = %d", p.Dropped())
	}
}

func TestOnlineDirectEvidence(t *testing.T) {
	o := newOnline(core.Config{LargestCores: 1000})
	sym := job.NewSymbols().Intern
	cases := []struct {
		rec  accounting.JobRecord
		want job.Modality
		conf float64
	}{
		{accounting.JobRecord{JobID: 1, QOS: sym("urgent")}, job.ModUrgent, 0.99},
		{accounting.JobRecord{JobID: 2, QOS: sym("interactive")}, job.ModInteractive, 0.99},
		{accounting.JobRecord{JobID: 3, GatewayID: sym("nanohub")}, job.ModGateway, 0.97},
		{accounting.JobRecord{JobID: 4, SubmitVia: sym("gateway")}, job.ModGateway, 0.97},
		{accounting.JobRecord{JobID: 5, CoAllocID: sym("co")}, job.ModMetascheduled, 0.97},
		{accounting.JobRecord{JobID: 6, BrokerJobID: sym("b")}, job.ModMetascheduled, 0.97},
		{accounting.JobRecord{JobID: 7, WorkflowID: sym("wf")}, job.ModWorkflow, 0.97},
		{accounting.JobRecord{JobID: 8, EnsembleID: sym("e")}, job.ModEnsemble, 0.97},
		{accounting.JobRecord{JobID: 9, Cores: 600}, job.ModBatchCapability, 0.60},
		{accounting.JobRecord{JobID: 10, Cores: 4}, job.ModBatchCapacity, 0.55},
	}
	for _, c := range cases {
		d := o.classify(&c.rec)
		if d.Modality != c.want || confidence[d.Evidence] != c.conf {
			t.Errorf("job %d: got (%s, %.2f), want (%s, %.2f)",
				c.rec.JobID, d.Modality, confidence[d.Evidence], c.want, c.conf)
		}
	}
	// Gateway attribute records reclassify later jobs by the same ID.
	o.ev.AddGatewayAttr(&accounting.GatewayAttrRecord{JobID: 11})
	if d := o.classify(&accounting.JobRecord{JobID: 11, Cores: 4}); d.Modality != job.ModGateway {
		t.Errorf("attr-evidenced job: %s, want gateway", d.Modality)
	}
	// Staged bytes past the threshold mark data-centric.
	o.ev.AddTransfer(&accounting.TransferRecord{JobID: 12, Bytes: 6 << 30})
	if d := o.classify(&accounting.JobRecord{JobID: 12, Cores: 4}); d.Modality != job.ModDataCentric {
		t.Errorf("staged job: %s, want data-centric", d.Modality)
	}
}

func TestOnlineBurstAndChain(t *testing.T) {
	o := newOnline(core.Config{LargestCores: 100000})
	sym := job.NewSymbols().Intern
	// Five same-shape submissions inside the window: the fifth classifies
	// as ensemble, the first four lag as batch (no retroactive relabel).
	var got []job.Modality
	for i := 0; i < 6; i++ {
		// Overlapping members (end long after the next submit) so the
		// chain detector never sees a dependent-submission gap.
		d := o.classify(&accounting.JobRecord{
			JobID: int64(i + 1), User: sym("alice"), Name: sym("sweep"), Cores: 8,
			SubmitTime: float64(i * 60), EndTime: float64(i*60 + 5000),
		})
		got = append(got, d.Modality)
	}
	for i := 0; i < 4; i++ {
		if got[i] != job.ModBatchCapacity {
			t.Errorf("burst member %d = %s, want batch-capacity (inference lag)", i, got[i])
		}
	}
	if got[4] != job.ModEnsemble || got[5] != job.ModEnsemble {
		t.Errorf("burst members 5,6 = %s,%s, want ensemble", got[4], got[5])
	}

	// Back-to-back dependent jobs (submit just after the previous end)
	// chain into workflow at the configured link count.
	o2 := newOnline(core.Config{LargestCores: 100000})
	end := 0.0
	got = got[:0]
	for i := 0; i < 4; i++ {
		sub := end + 10  // within ChainSlack
		end = sub + 7200 // long stages: never inside one ensemble burst run
		d := o2.classify(&accounting.JobRecord{
			JobID: int64(i + 1), User: sym("bob"), Name: sym(fmt.Sprintf("stage-%d", i)),
			Cores: 4, SubmitTime: sub, EndTime: end,
		})
		got = append(got, d.Modality)
	}
	if got[0] != job.ModBatchCapacity || got[1] != job.ModBatchCapacity {
		t.Errorf("chain heads = %s,%s, want batch-capacity", got[0], got[1])
	}
	if got[2] != job.ModWorkflow || got[3] != job.ModWorkflow {
		t.Errorf("chain links 3,4 = %s,%s, want workflow", got[2], got[3])
	}
}

// TestOnlineNeverReadsTruth: two records differing only in their
// ground-truth labels must classify identically.
func TestOnlineNeverReadsTruth(t *testing.T) {
	a := newOnline(core.Config{LargestCores: 512})
	b := newOnline(core.Config{LargestCores: 512})
	syms := job.NewSymbols()
	sym := syms.Intern
	rng := simrand.New(5)
	for _, r := range randomRecords(rng, 120, syms) {
		labeled := r
		labeled.TruthModality = sym("gateway")
		labeled.TruthCampaign = sym("c")
		da, db := a.classify(&r), b.classify(&labeled)
		if da != db {
			t.Fatalf("job %d: truth labels changed the decision: %+v vs %+v", r.JobID, da, db)
		}
	}
}

// TestFinalizeMatchesBatch: no matter what order records stream in, the
// end-of-stream batch view classifies every job exactly as a post-run
// Classify over the live accounting database does.
func TestFinalizeMatchesBatch(t *testing.T) {
	p := New(Config{LargestCores: 512})
	rng := simrand.New(42)
	recs := randomRecords(rng, 250, p.Syms())

	// The live database ingests in record order.
	live := accounting.NewCentral(p.Syms())
	if err := live.Ingest(&accounting.Packet{Site: "s", Seq: 1, Jobs: recs, Syms: p.Syms()}); err != nil {
		t.Fatal(err)
	}
	want := core.NewClassifier(core.Config{LargestCores: 512}).Classify(live)

	// The stream sees them in completion order (shuffled relative to
	// submission), as the live tap would.
	perm := rng.Perm(len(recs))
	for _, i := range perm {
		p.offerJob(&recs[i])
	}
	p.Advance(des.Time(1 << 30))
	fin, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(fin.Results) != len(want) {
		t.Fatalf("finalize classified %d jobs, want %d", len(fin.Results), len(want))
	}
	byID := make(map[int64]job.Modality, len(want))
	for _, r := range want {
		byID[r.JobID] = r.Modality
	}
	for _, r := range fin.Results {
		if byID[r.JobID] != r.Modality {
			t.Errorf("job %d: stream finalize %s, batch %s", r.JobID, r.Modality, byID[r.JobID])
		}
	}
	if fin.Report.TotalNUs != live.TotalNUs() {
		t.Errorf("finalize total NUs %.3f, live %.3f", fin.Report.TotalNUs, live.TotalNUs())
	}
}

// TestDriftDetectsDisagreement: a surge of truth-labeled records the
// online rules cannot recognize pushes the trailing drift windows up.
func TestDriftDetectsDisagreement(t *testing.T) {
	p := New(Config{LargestCores: 100000})
	sym := p.Syms().Intern
	at := des.Time(0)
	// Phase 1: a day of plain capacity jobs, correctly labeled.
	for i := 0; i < 200; i++ {
		at += 6 * des.Minute
		p.offerJob(&accounting.JobRecord{
			JobID: int64(i + 1), User: sym(fmt.Sprintf("u%d", i%20)), Name: sym(fmt.Sprintf("a%d", i%17)),
			Cores: 4, SubmitTime: float64(at), EndTime: float64(at) + 60,
			NUs: 1, TruthModality: sym(string(job.ModBatchCapacity)),
		})
		p.Advance(at)
	}
	if r := p.drift.windowRate(0, at); r != 0 {
		t.Fatalf("agreeing phase drift = %.3f, want 0", r)
	}
	// Phase 2: untagged gateway-truth jobs with no attribute evidence —
	// the online classifier cannot see their modality.
	for i := 0; i < 100; i++ {
		at += 2 * des.Minute
		p.offerJob(&accounting.JobRecord{
			JobID: int64(1000 + i), User: sym(fmt.Sprintf("g%d", i%30)), Name: sym(fmt.Sprintf("t%d", i%23)),
			Cores: 2, SubmitTime: float64(at), EndTime: float64(at) + 30,
			NUs: 1, TruthModality: sym(string(job.ModGateway)),
		})
		p.Advance(at)
	}
	if r := p.drift.windowRate(0, at); r < 0.5 {
		t.Errorf("1h drift after shift = %.3f, want > 0.5", r)
	}
	if p.drift.peaks[0] < 0.5 {
		t.Errorf("1h peak = %.3f, want > 0.5", p.drift.peaks[0])
	}
	if lr := p.drift.lifetimeRate(); lr < 0.2 || lr > 0.5 {
		t.Errorf("lifetime drift = %.3f, want ~1/3", lr)
	}
	// The hourly history localizes the shift: early hours clean, late dirty.
	hist := p.DriftHistory()
	if len(hist) < 2 {
		t.Fatalf("history has %d cells", len(hist))
	}
	if hist[0].Disagree != 0 {
		t.Errorf("first history hour has %d disagreements", hist[0].Disagree)
	}
	last := hist[len(hist)-1]
	if last.Disagree == 0 {
		t.Error("last history hour shows no disagreement")
	}
}

// TestWindowExpiry: usage and drift counted in a trailing window vanish
// once the clock moves a full span past it.
func TestWindowExpiry(t *testing.T) {
	p := New(Config{LargestCores: 512})
	sym := p.Syms().Intern
	p.offerJob(&accounting.JobRecord{JobID: 1, Cores: 4, EndTime: 60, NUs: 5,
		TruthModality: sym(string(job.ModBatchCapacity))})
	p.Advance(des.Minute)
	if jobs, _ := p.usage.windowTotals(0, job.ModBatchCapacity, des.Minute); jobs != 1 {
		t.Fatalf("fresh 1h window jobs = %d, want 1", jobs)
	}
	p.Advance(3 * des.Hour)
	if jobs, _ := p.usage.windowTotals(0, job.ModBatchCapacity, 3*des.Hour); jobs != 0 {
		t.Errorf("expired 1h window jobs = %d, want 0", jobs)
	}
	// The 24h window still holds it; lifetime always does.
	if jobs, _ := p.usage.windowTotals(2, job.ModBatchCapacity, 3*des.Hour); jobs != 1 {
		t.Errorf("24h window jobs = %d, want 1", jobs)
	}
	if p.usage.lifeJobs[job.ModBatchCapacity] != 1 {
		t.Errorf("lifetime jobs = %d, want 1", p.usage.lifeJobs[job.ModBatchCapacity])
	}
}

// TestStreamMetricsExposed: the processor's registry families appear in
// the OpenMetrics exposition with deterministic values.
func TestStreamMetricsExposed(t *testing.T) {
	reg := telemetry.New()
	p := New(Config{LargestCores: 512, InboxCap: 2, Registry: reg})
	sym := p.Syms().Intern
	for i := 0; i < 4; i++ {
		p.offerJob(&accounting.JobRecord{JobID: int64(i + 1), Cores: 4,
			EndTime: float64(i + 1), NUs: 1, TruthModality: sym(string(job.ModBatchCapacity))})
	}
	p.Advance(10)
	var sb strings.Builder
	if err := reg.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	om := sb.String()
	for _, want := range []string{
		`tg_stream_ingested_total{kind="job"} 2`,
		`tg_stream_dropped_total 2`,
		`tg_stream_inbox_depth 0`,
		`tg_stream_inbox_high_water 2`,
		`tg_stream_classified_total{modality="batch-capacity",source="accounting"} 2`,
		`tg_drift_events_total{result="agree"} 2`,
		`tg_drift_rate{window="1h"} 0`,
	} {
		if !strings.Contains(om, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// acceptedJobs copies the processor's accepted job records out, in
// arrival order.
func acceptedJobs(p *Processor) []accounting.JobRecord {
	out := make([]accounting.JobRecord, len(p.jobs))
	for i, r := range p.jobs {
		out[i] = *r
	}
	return out
}

// TestJobStorePointers: the pointer store keeps arrival order, and
// Finalize rebuilds every record in JobID order into an exact-size slice.
func TestJobStorePointers(t *testing.T) {
	p := New(Config{LargestCores: 512})
	sym := p.Syms().Intern
	const n = 2*256 + 7
	for i := 0; i < n; i++ {
		// Descending IDs, so canonical order reverses arrival order.
		p.offerJob(&accounting.JobRecord{JobID: int64(n - i), Cores: 1, NUs: 1,
			EndTime: float64(i), ExitStatus: sym("completed")})
	}
	p.Advance(des.Time(n))
	if len(p.jobs) != n {
		t.Fatalf("store holds %d jobs, want %d", len(p.jobs), n)
	}
	for i, r := range acceptedJobs(p) {
		if r.JobID != int64(n-i) {
			t.Fatalf("accepted job %d has ID %d, want %d", i, r.JobID, n-i)
		}
	}
	fin, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	jobs := fin.Central.Jobs()
	if len(jobs) != n || cap(jobs) != n {
		t.Fatalf("finalize central holds %d jobs (cap %d), want %d", len(jobs), cap(jobs), n)
	}
	for i, r := range jobs {
		if r.JobID != int64(i+1) {
			t.Fatalf("finalize job %d has ID %d, want %d", i, r.JobID, i+1)
		}
	}
}

// TestOfferPacketBorrows: the processor keeps pointers into the offered
// packets instead of copies, never changes them, and Finalize's database
// holds records of its own.
func TestOfferPacketBorrows(t *testing.T) {
	p := New(Config{LargestCores: 512})
	recs := randomRecords(simrand.New(5), 300, p.Syms())
	var packets, clones []*accounting.Packet
	for i := 0; i < len(recs); i += 100 {
		pkt := &accounting.Packet{Site: "s", Seq: uint64(i/100 + 1), Jobs: recs[i : i+100 : i+100], Syms: p.Syms(),
			Transfers:    []accounting.TransferRecord{{TransferID: int64(i), User: "u", JobID: recs[i].JobID}},
			GatewayAttrs: []accounting.GatewayAttrRecord{{GatewayID: "gw", GatewayUser: "e", JobID: recs[i].JobID}},
			Storage:      []accounting.StorageRecord{{Site: "s", Project: "p", Bytes: int64(i)}},
		}
		packets = append(packets, pkt)
		clones = append(clones, clonePacket(pkt))
		p.OfferPacket(des.Time(recs[i+99].EndTime), pkt)
	}
	if len(p.jobs) != len(recs) || p.jobs[0] != &packets[0].Jobs[0] {
		t.Fatal("the job store does not point into the offered packet")
	}
	fin, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	borrowed := map[*accounting.JobRecord]bool{}
	for _, pkt := range packets {
		for i := range pkt.Jobs {
			borrowed[&pkt.Jobs[i]] = true
		}
	}
	jobs := fin.Central.Jobs()
	if len(jobs) != len(recs) {
		t.Fatalf("finalize central holds %d jobs, want %d", len(jobs), len(recs))
	}
	for i := range jobs {
		if borrowed[&jobs[i]] {
			t.Fatalf("finalize record %d aliases an offered packet", i)
		}
	}
	for i := range packets {
		if !reflect.DeepEqual(packets[i], clones[i]) {
			t.Fatalf("packet %d changed after Finalize", i)
		}
	}
}

// clonePacket deep-copies a packet's record slices.
func clonePacket(p *accounting.Packet) *accounting.Packet {
	q := *p
	q.Jobs = slices.Clone(p.Jobs)
	q.Transfers = slices.Clone(p.Transfers)
	q.GatewayAttrs = slices.Clone(p.GatewayAttrs)
	q.Storage = slices.Clone(p.Storage)
	return &q
}

// TestFinalizeKeepsFirstDuplicate: of several accepted records with one
// JobID, Finalize keeps the first, as a live Central does, whatever the
// sort does with equal JobIDs.
func TestFinalizeKeepsFirstDuplicate(t *testing.T) {
	p := New(Config{LargestCores: 512})
	sym := p.Syms().Intern
	const ids = 2500
	for second := 0; second < 2; second++ {
		for i := 0; i < ids; i++ {
			// The first copy of every JobID has even NUs, the second odd.
			p.offerJob(&accounting.JobRecord{JobID: int64(i*7919%ids + 1), Cores: 1,
				NUs: float64(2*i + second), EndTime: float64(i), ExitStatus: sym("completed")})
		}
	}
	p.Advance(des.Time(ids))
	fin, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	jobs := fin.Central.Jobs()
	if len(jobs) != ids {
		t.Fatalf("finalize central holds %d jobs, want %d", len(jobs), ids)
	}
	later := 0
	for _, r := range jobs {
		if int(r.NUs)%2 != 0 {
			later++
		}
	}
	if later != 0 {
		t.Fatalf("%d of %d kept records are a later copy, want 0", later, ids)
	}
	if fin.Central.Duplicates() != ids {
		t.Fatalf("finalize counted %d duplicates, want %d", fin.Central.Duplicates(), ids)
	}
}

// BenchmarkOfferFinalize times a stream's life over 5000 job records: the
// offers, the online layers, and Finalize's rebuild of the accepted records
// into a central database plus the batch classify.
func BenchmarkOfferFinalize(b *testing.B) {
	const n = 5000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := New(Config{LargestCores: 512})
		sym := p.Syms().Intern
		r := accounting.JobRecord{User: sym("u"), Project: sym("p"), Site: sym("s"), Machine: sym("m"),
			NUs: 1, ExitStatus: sym("completed"), SubmitVia: sym("login")}
		for j := 0; j < n; j++ {
			r.JobID, r.Cores, r.EndTime = int64(n-j), 1+j%64, float64(j)
			rec := r // the processor keeps a pointer to each record
			p.offerJob(&rec)
		}
		p.Advance(des.Time(n))
		if _, err := p.Finalize(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestProcessorSymbolTable: a processor adopts the first packet's table,
// refuses a packet or a replay of another table, and finalizes into a
// database sharing its table.
func TestProcessorSymbolTable(t *testing.T) {
	p := New(Config{LargestCores: 512})
	syms := job.NewSymbols()
	p.OfferPacket(10, &accounting.Packet{Site: "s", Seq: 1, Syms: syms,
		Jobs: []accounting.JobRecord{{JobID: 1, Cores: 1, EndTime: 10, User: syms.Intern("u")}}})
	if p.Syms() != syms {
		t.Fatal("the processor did not adopt the first packet's table")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a packet of another table was accepted")
			}
		}()
		p.OfferPacket(20, &accounting.Packet{Site: "s", Seq: 2, Syms: job.NewSymbols(),
			Jobs: []accounting.JobRecord{{JobID: 2, Cores: 1, EndTime: 20}}})
	}()
	rp := &Replay{Run: &regress.Run{Central: accounting.NewCentral(nil)}}
	if _, _, err := rp.Feed(p); err == nil {
		t.Error("a replay of another table was accepted")
	}
	fin, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if fin.Central.Syms() != syms || len(fin.Central.Jobs()) != 1 {
		t.Fatalf("finalized database: %d jobs, shares the table %v", len(fin.Central.Jobs()), fin.Central.Syms() == syms)
	}
}
