package accounting

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/grid"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/simrand"
)

func testMachine() *grid.Machine {
	return &grid.Machine{ID: "m", Site: "s", Nodes: 10, CoresPerNode: 8,
		NUPerCoreHour: 2}
}

func finishedJob(syms *job.Symbols, id int64) *job.Job {
	return &job.Job{
		ID: job.ID(id), Name: syms.Intern("n"), User: syms.Intern("alice"), Project: syms.Intern("p"),
		Site: syms.Intern("s"), Machine: syms.Intern("m"), Cores: 10,
		ReqWalltime: 200, RunTime: 100,
		SubmitTime: 0, StartTime: 50, EndTime: 150,
		State: job.StateCompleted,
		Attr:  job.Attributes{SubmitVia: job.SymLogin, ScienceField: syms.Intern("physics")},
		Truth: job.Truth{Modality: job.SymBatchCapacity},
	}
}

func TestRecordOf(t *testing.T) {
	syms := job.NewSymbols()
	r := RecordOf(finishedJob(syms, 1), testMachine())
	if r.JobID != 1 || syms.Str(r.User) != "alice" || r.Cores != 10 {
		t.Errorf("identity fields wrong: %+v", r)
	}
	if r.WallSeconds != 100 || r.CoreSeconds != 1000 {
		t.Errorf("usage fields wrong: wall=%v core=%v", r.WallSeconds, r.CoreSeconds)
	}
	// 1000 core-seconds at 2 NU/core-hour = 1000/3600*2.
	want := 1000.0 / 3600 * 2
	if r.NUs != want {
		t.Errorf("NUs = %v, want %v", r.NUs, want)
	}
	if r.ExitStatus != job.SymCompleted || r.QOS != job.SymNormal {
		t.Errorf("status fields wrong: %+v", r)
	}
	if r.SubmitVia != job.SymLogin || syms.Str(r.ScienceField) != "physics" {
		t.Errorf("attributes not carried: %+v", r)
	}
	if r.TruthModality != job.SymBatchCapacity {
		t.Errorf("truth not carried: %q", syms.Str(r.TruthModality))
	}
	if r.WaitSeconds() != 50 {
		t.Errorf("WaitSeconds = %v, want 50", r.WaitSeconds())
	}
}

func TestLedgerFlush(t *testing.T) {
	syms := job.NewSymbols()
	l := NewLedger("s", syms)
	if p := l.Flush(0); p != nil {
		t.Error("empty flush should return nil")
	}
	l.AddJob(JobRecord{JobID: 1})
	l.AddTransfer(TransferRecord{TransferID: 2})
	l.AddGatewayAttr(GatewayAttrRecord{JobID: 1, GatewayUser: syms.Intern("end-user")})
	l.AddStorage(StorageRecord{Site: syms.Intern("s"), Project: syms.Intern("p"), Bytes: 10})
	if l.Pending() != 4 {
		t.Errorf("Pending = %d, want 4", l.Pending())
	}
	p := l.Flush(des.Time(99))
	if p == nil || p.Seq != 1 || p.SentAt != 99 {
		t.Fatalf("flush packet wrong: %+v", p)
	}
	if len(p.Jobs) != 1 || len(p.Transfers) != 1 || len(p.GatewayAttrs) != 1 || len(p.Storage) != 1 {
		t.Errorf("packet contents wrong: %+v", p)
	}
	if l.Pending() != 0 {
		t.Error("ledger not drained")
	}
	l.AddJob(JobRecord{JobID: 2})
	if p2 := l.Flush(100); p2.Seq != 2 {
		t.Errorf("second packet seq = %d, want 2", p2.Seq)
	}
}

func TestPacketRoundTrip(t *testing.T) {
	p := &Packet{Site: "s", Seq: 7, Jobs: []JobRecord{{JobID: 3, NUs: 1.5}}, Syms: job.NewSymbols()}
	data := p.AppendWire(nil)
	got, err := DecodePacket(data, job.NewSymbols())
	if err != nil {
		t.Fatal(err)
	}
	if got.Site != "s" || got.Seq != 7 || len(got.Jobs) != 1 || got.Jobs[0].NUs != 1.5 {
		t.Errorf("round trip lost data: %+v", got)
	}
	if _, err := DecodePacket([]byte("not json"), job.NewSymbols()); err == nil {
		t.Error("garbage packet accepted")
	}
}

func TestCentralIngestIdempotent(t *testing.T) {
	c := NewCentral(nil)
	p1 := &Packet{Site: "s", Seq: 1, Jobs: []JobRecord{{JobID: 1, NUs: 10}}, Syms: c.Syms()}
	if err := c.Ingest(p1); err != nil {
		t.Fatal(err)
	}
	// Re-delivery is a no-op.
	if err := c.Ingest(p1); err != nil {
		t.Fatal(err)
	}
	if c.Duplicates() != 1 {
		t.Errorf("Duplicates = %d, want 1", c.Duplicates())
	}
	if c.Len() != 1 || c.TotalNUs() != 10 {
		t.Errorf("duplicate ingest changed state: %d jobs, %v NUs", c.Len(), c.TotalNUs())
	}
	// Gap detection.
	p3 := &Packet{Site: "s", Seq: 3}
	if err := c.Ingest(p3); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Errorf("gap not detected: %v", err)
	}
	// nil is harmless.
	if err := c.Ingest(nil); err != nil {
		t.Error("nil packet errored")
	}
}

// TestCentralIngestDecoded: a decoded packet ingests like the one encoded,
// and Central borrows the decoded job slice.
func TestCentralIngestDecoded(t *testing.T) {
	data := (&Packet{Site: "s", Seq: 1, Jobs: []JobRecord{{JobID: 5}}, Syms: job.NewSymbols()}).AppendWire(nil)
	c := NewCentral(nil)
	p, err := DecodePacket(data, c.Syms())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(p); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Job(5); !ok || c.At(0) != &p.Jobs[0] {
		t.Error("decoded job not found, or copied")
	}
	if _, err := DecodePacket([]byte("{"), c.Syms()); err == nil {
		t.Error("bad wire data accepted")
	}
}

func TestCentralQueries(t *testing.T) {
	c := NewCentral(nil)
	s := c.Syms()
	a, b, m1, m2 := s.Intern("a"), s.Intern("b"), s.Intern("m1"), s.Intern("m2")
	jobs := []JobRecord{
		{JobID: 1, User: a, Machine: m1, NUs: 10, Cores: 1},
		{JobID: 2, User: a, Machine: m2, NUs: 20, Cores: 64},
		{JobID: 3, User: b, Machine: m1, NUs: 5, Cores: 2000},
	}
	if err := c.Ingest(&Packet{Site: "s", Seq: 1, Jobs: jobs, Syms: s}); err != nil {
		t.Fatal(err)
	}
	if c.TotalNUs() != 35 {
		t.Errorf("TotalNUs = %v, want 35", c.TotalNUs())
	}
	if c.DistinctUsers() != 2 {
		t.Errorf("DistinctUsers = %d, want 2", c.DistinctUsers())
	}
	if _, ok := c.Job(99); ok {
		t.Error("missing job found")
	}
}

func TestSizeBin(t *testing.T) {
	cases := map[int]string{
		1: "1", 2: "2-16", 16: "2-16", 17: "17-128", 128: "17-128",
		129: "129-1024", 1024: "129-1024", 1025: "1025-8192",
		8192: "1025-8192", 8193: ">8192", 100000: ">8192",
	}
	for cores, want := range cases {
		if got := SizeBin(cores); got != want {
			t.Errorf("SizeBin(%d) = %q, want %q", cores, got, want)
		}
	}
	// Every bin label is reachable and listed.
	seen := map[string]bool{}
	for cores := 1; cores <= 10000; cores++ {
		seen[SizeBin(cores)] = true
	}
	for _, b := range SizeBins {
		if !seen[b] {
			t.Errorf("bin %q unreachable", b)
		}
	}
}

// TestIngestDedupProperty: random flush/retransmit sequences never change
// aggregate totals versus exactly-once delivery.
func TestIngestDedupProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := simrand.New(seed)
		syms := job.NewSymbols()
		l := NewLedger("s", syms)
		exactly := NewCentral(syms)
		flaky := NewCentral(syms)
		var packets []*Packet
		id := int64(0)
		for i := 0; i < 20; i++ {
			n := r.Intn(5)
			for j := 0; j < n; j++ {
				id++
				l.AddJob(JobRecord{JobID: id, NUs: float64(r.Intn(100))})
			}
			if p := l.Flush(des.Time(i)); p != nil {
				packets = append(packets, p)
			}
		}
		for _, p := range packets {
			if err := exactly.Ingest(p); err != nil {
				return false
			}
			if err := flaky.Ingest(p); err != nil {
				return false
			}
			// Random retransmissions of any earlier packet.
			for r.Bool(0.4) {
				dup := packets[r.Intn(posOf(packets, p)+1)]
				if err := flaky.Ingest(dup); err != nil {
					return false
				}
			}
		}
		return exactly.TotalNUs() == flaky.TotalNUs() &&
			exactly.Len() == flaky.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func posOf(ps []*Packet, p *Packet) int {
	for i, q := range ps {
		if q == p {
			return i
		}
	}
	return 0
}
