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
		if d.Rule.Modality() != c.want || confidence[d.Rule] != c.conf {
			t.Errorf("job %d: got (%s, %.2f), want (%s, %.2f)",
				c.rec.JobID, d.Rule.Modality(), confidence[d.Rule], c.want, c.conf)
		}
	}
	// Gateway attribute records reclassify later jobs by the same ID.
	o.ev.AddGatewayAttr(&accounting.GatewayAttrRecord{JobID: 11})
	if d := o.classify(&accounting.JobRecord{JobID: 11, Cores: 4}); d.Rule.Modality() != job.ModGateway {
		t.Errorf("attr-evidenced job: %s, want gateway", d.Rule.Modality())
	}
	// Staged bytes past the threshold mark data-centric.
	o.ev.AddTransfer(&accounting.TransferRecord{JobID: 12, Bytes: 6 << 30})
	if d := o.classify(&accounting.JobRecord{JobID: 12, Cores: 4}); d.Rule.Modality() != job.ModDataCentric {
		t.Errorf("staged job: %s, want data-centric", d.Rule.Modality())
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
		got = append(got, d.Rule.Modality())
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
		got = append(got, d.Rule.Modality())
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

// packetsOf cuts recs into packets of site s, numbered from 1, with n
// records each except the last.
func packetsOf(recs []accounting.JobRecord, n int, syms *job.Symbols) []*accounting.Packet {
	var out []*accounting.Packet
	for i := 0; i < len(recs); i += n {
		j := min(i+n, len(recs))
		out = append(out, &accounting.Packet{Site: "s", Seq: uint64(len(out) + 1), Syms: syms, Jobs: recs[i:j:j]})
	}
	return out
}

// TestFinalizeMatchesBatch: offered the packets the live database
// ingested, in the same order, the end-of-stream batch view is the live
// database's batch view: the same records in the same order, the same
// per-job results and the same report, bit for bit.
func TestFinalizeMatchesBatch(t *testing.T) {
	p := New(Config{LargestCores: 512})
	rng := simrand.New(42)
	recs := randomRecords(rng, 250, p.Syms())
	// Records flush in completion order, not JobID order.
	for i := len(recs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		recs[i], recs[j] = recs[j], recs[i]
	}

	live := accounting.NewCentral(p.Syms())
	for _, pkt := range packetsOf(recs, 40, p.Syms()) {
		if err := live.Ingest(pkt); err != nil {
			t.Fatal(err)
		}
		p.OfferPacket(des.Time(pkt.Jobs[len(pkt.Jobs)-1].EndTime), pkt)
	}
	want := core.NewClassifier(core.Config{LargestCores: 512}).Classify(live)
	fin, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fin.Central.Jobs(), live.Jobs()) {
		t.Error("finalize database differs from the live one")
	}
	if !reflect.DeepEqual(fin.Results, want) {
		t.Error("finalize results differ from the live batch classification")
	}
	if !reflect.DeepEqual(fin.Report, core.BuildReport(live, want)) {
		t.Errorf("finalize report differs from the live batch report: NUs %v vs %v",
			fin.Report.TotalNUs, live.TotalNUs())
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
	p := New(Config{LargestCores: 512, Registry: reg})
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
		`tg_stream_ingested_total{kind="job"} 4`,
		`tg_stream_classified_total{modality="batch-capacity",source="accounting"} 4`,
		`tg_drift_events_total{result="agree"} 4`,
		`tg_drift_rate{window="1h"} 0`,
	} {
		if !strings.Contains(om, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// acceptedJobs copies the job records of the processor's offered
// packets out, in offer order.
func acceptedJobs(p *Processor) []accounting.JobRecord {
	var out []accounting.JobRecord
	for _, pkt := range p.packets {
		out = append(out, pkt.Jobs...)
	}
	return out
}

// TestJobStorePointers: the processor keeps the offered packets
// themselves, in offer order, and Finalize's database reads every record
// in that order, in the packets' own arrays.
func TestJobStorePointers(t *testing.T) {
	p := New(Config{LargestCores: 512})
	sym := p.Syms().Intern
	const n = 2*256 + 7
	recs := make([]accounting.JobRecord, n)
	for i := range recs {
		// Descending IDs: arrival order is not JobID order.
		recs[i] = accounting.JobRecord{JobID: int64(n - i), Cores: 1, NUs: 1,
			EndTime: float64(i), ExitStatus: sym("completed")}
	}
	packets := packetsOf(recs, 100, p.Syms())
	for _, pkt := range packets {
		p.OfferPacket(des.Time(pkt.Jobs[len(pkt.Jobs)-1].EndTime), pkt)
	}
	if !slices.Equal(p.packets, packets) {
		t.Fatalf("processor holds %d packets, not the %d offered", len(p.packets), len(packets))
	}
	fin, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	jobs := fin.Central.Jobs()
	if len(jobs) != n {
		t.Fatalf("finalize central holds %d jobs, want %d", len(jobs), n)
	}
	i := 0
	for _, pkt := range packets {
		for k := range pkt.Jobs {
			if jobs[i] != &pkt.Jobs[k] || jobs[i].JobID != int64(n-i) {
				t.Fatalf("finalize job %d has ID %d, want %d in the offered packet", i, jobs[i].JobID, n-i)
			}
			i++
		}
	}
}

// TestOfferPacketBorrows: the processor keeps the offered packets instead
// of copies of their records, and neither offering nor Finalize changes
// them.
func TestOfferPacketBorrows(t *testing.T) {
	p := New(Config{LargestCores: 512})
	recs := randomRecords(simrand.New(5), 300, p.Syms())
	s := p.Syms().Intern
	var packets, clones []*accounting.Packet
	for i := 0; i < len(recs); i += 100 {
		pkt := &accounting.Packet{Site: "s", Seq: uint64(i/100 + 1), Jobs: recs[i : i+100 : i+100], Syms: p.Syms(),
			Transfers:    []accounting.TransferRecord{{TransferID: int64(i), User: s("u"), JobID: recs[i].JobID}},
			GatewayAttrs: []accounting.GatewayAttrRecord{{GatewayID: s("gw"), GatewayUser: s("e"), JobID: recs[i].JobID}},
			Storage:      []accounting.StorageRecord{{Site: s("s"), Project: s("p"), Bytes: int64(i)}},
		}
		packets = append(packets, pkt)
		clones = append(clones, clonePacket(pkt))
		p.OfferPacket(des.Time(recs[i+99].EndTime), pkt)
	}
	if !slices.Equal(p.packets, packets) {
		t.Fatal("the processor does not hold the offered packets")
	}
	fin, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if fin.Central.Len() != len(recs) {
		t.Fatalf("finalize central holds %d jobs, not the %d offered", fin.Central.Len(), len(recs))
	}
	for i, r := range fin.Central.Jobs() {
		if r != &recs[i] {
			t.Fatalf("finalize job %d is not the offered record %d in place", i, i)
		}
	}
	if got := fin.Central.Transfers().Len() + fin.Central.GatewayAttrs().Len() + fin.Central.StorageRecords().Len(); got != 3*len(packets) {
		t.Fatalf("finalize central holds %d evidence records, want %d", got, 3*len(packets))
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

// TestFinalizeKeepsFirstDuplicate: of several offered records with one
// JobID, Finalize keeps the first, as a live Central does, whether the
// later copy comes in the same packet or a later one.
func TestFinalizeKeepsFirstDuplicate(t *testing.T) {
	p := New(Config{LargestCores: 512})
	sym := p.Syms().Intern
	const ids = 2500
	recs := make([]accounting.JobRecord, 0, 2*ids)
	for second := 0; second < 2; second++ {
		for i := 0; i < ids; i++ {
			// The first copy of every JobID has even NUs, the second odd.
			recs = append(recs, accounting.JobRecord{JobID: int64(i*7919%ids + 1), Cores: 1,
				NUs: float64(2*i + second), EndTime: float64(i), ExitStatus: sym("completed")})
		}
	}
	// The first packet carries both copies of 500 IDs, the second the later
	// copies of the rest.
	for _, pkt := range packetsOf(recs, 3000, p.Syms()) {
		p.OfferPacket(des.Time(ids), pkt)
	}
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

// BenchmarkOfferFinalize times a stream's life over 5000 job records in
// packets of 100, offered through OfferPacket as every mount offers them:
// the online layers, and Finalize's ingest of the offered packets into a
// central database plus the batch classify. A flushed packet never
// changes, so every iteration offers the same packets.
func BenchmarkOfferFinalize(b *testing.B) {
	const n, perPacket = 5000, 100
	syms := job.NewSymbols()
	sym := syms.Intern
	recs := make([]accounting.JobRecord, n)
	for j := range recs {
		recs[j] = accounting.JobRecord{JobID: int64(n - j), Cores: 1 + j%64, EndTime: float64(j),
			User: sym("u"), Project: sym("p"), Site: sym("s"), Machine: sym("m"),
			NUs: 1, ExitStatus: sym("completed"), SubmitVia: sym("login")}
	}
	var packets []*accounting.Packet
	for j := 0; j < n; j += perPacket {
		packets = append(packets, &accounting.Packet{Site: "s", Seq: uint64(j/perPacket + 1),
			Syms: syms, Jobs: recs[j : j+perPacket : j+perPacket]})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := New(Config{LargestCores: 512})
		for _, pkt := range packets {
			p.OfferPacket(des.Time(pkt.Jobs[len(pkt.Jobs)-1].EndTime), pkt)
		}
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
	if fin.Central.Syms() != syms || fin.Central.Len() != 1 {
		t.Fatalf("finalized database: %d jobs, shares the table %v", fin.Central.Len(), fin.Central.Syms() == syms)
	}
}
