package accounting

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
)

// sampleJob is a job record with every string field set; its Syms index
// sampleSyms.
var (
	sample     = samplePacket()
	sampleJob  = sample.Jobs[0]
	sampleSyms = sample.Syms
)

// spoolOne spools jobs job records (IDs from id) and one record of every
// other kind.
func spoolOne(l *Ledger, id int64, jobs int) {
	for i := 0; i < jobs; i++ {
		r := sampleJob
		r.JobID = id + int64(i)
		l.AddJob(r)
	}
	s := l.syms.Intern
	l.AddTransfer(TransferRecord{TransferID: id, Src: s("ridge"), Dst: s("mesa"), Bytes: id})
	l.AddGatewayAttr(GatewayAttrRecord{GatewayID: s("nanohub"), GatewayUser: s("u"), JobID: id})
	l.AddStorage(StorageRecord{Site: s("ridge"), Project: s("p"), Bytes: id})
}

func clonePacket(p *Packet) *Packet {
	q := *p
	q.Jobs = slices.Clone(p.Jobs)
	q.Transfers = slices.Clone(p.Transfers)
	q.GatewayAttrs = slices.Clone(p.GatewayAttrs)
	q.Storage = slices.Clone(p.Storage)
	return &q
}

// TestFlushedPacketIsImmutable pins the packet-ownership contract: the
// ledger reuses its spools, but a packet it flushed never changes again, so
// taps may keep packets (spill journals, recorded corpora) for a whole run.
func TestFlushedPacketIsImmutable(t *testing.T) {
	l := NewLedger("ridge", sampleSyms)
	spoolOne(l, 1, 3)
	first := l.Flush(10)
	snap := clonePacket(first)
	spoolOne(l, 100, 5) // more records than the first flush: overwrites every spool slot
	second := l.Flush(20)
	if !reflect.DeepEqual(first, snap) {
		t.Fatalf("first packet changed after the ledger was reused:\nnow:  %+v\nwant: %+v", first, snap)
	}
	if second.Seq != 2 || len(second.Jobs) != 5 || second.Jobs[0].JobID != 100 {
		t.Fatalf("second packet wrong: seq %d, %d jobs", second.Seq, len(second.Jobs))
	}
	if cap(first.Jobs) != len(first.Jobs) {
		t.Errorf("packet jobs cap %d, want exact size %d", cap(first.Jobs), len(first.Jobs))
	}
	l.Release()
	if second.Jobs[4].JobID != 104 || l.Pending() != 0 {
		t.Fatal("Release disturbed a flushed packet or left records pending")
	}
	spoolOne(l, 200, 1)
	if p := l.Flush(30); p.Seq != 3 || len(p.Jobs) != 1 {
		t.Fatalf("ledger after Release: %+v", p)
	}
}

// TestFlushIngestAllocations pins the allocations of the accounting path's
// steps in steady state.
func TestFlushIngestAllocations(t *testing.T) {
	// Encoding into a warm buffer allocates nothing.
	p := samplePacket()
	buf := p.AppendWire(nil)
	if n := testing.AllocsPerRun(20, func() { buf = p.AppendWire(buf[:0]) }); n != 0 {
		t.Errorf("AppendWire into a warm buffer: %v allocs, want 0", n)
	}

	// A steady-state flush allocates the packet and one exact-size copy per
	// non-empty record kind; spooling reuses the drained spools.
	l := NewLedger("ridge", sampleSyms)
	id := int64(0)
	flush := func() {
		id += 100
		spoolOne(l, id, 10)
		if l.Flush(des.Time(id)) == nil {
			t.Fatal("nothing flushed")
		}
	}
	if n := testing.AllocsPerRun(20, flush); n != 1+4 {
		t.Errorf("steady-state flush: %v allocs, want 5 (packet + 4 record kinds)", n)
	}

	// Ingest borrows the job records, so once the position table and the
	// index have room for every record its allocations do not depend on the
	// packet's size: a 60-job and a 600-job packet cost the same, at most
	// one run-list growth.
	const runs = 20
	allocs := map[int]float64{}
	for _, jobs := range []int{60, 600} {
		packets := make([]*Packet, runs+1)
		for i := range packets {
			packets[i] = &Packet{Site: "ridge", Seq: uint64(i + 1), Syms: sampleSyms}
			for j := 0; j < jobs; j++ {
				r := sampleJob
				r.JobID = int64(i*jobs + j)
				packets[i].Jobs = append(packets[i].Jobs, r)
			}
		}
		c := NewCentral(sampleSyms)
		c.recs = make([]*JobRecord, 0, len(packets)*jobs)
		c.ids.dense = make([]int32, 0, len(packets)*jobs)
		next := 0
		allocs[jobs] = testing.AllocsPerRun(runs, func() {
			if err := c.Ingest(packets[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if got := c.Len(); got != len(packets)*jobs || len(c.ids.far) != 0 {
			t.Fatalf("ingested %d jobs (%d IDs in the map), want %d, all in the dense slice", got, len(c.ids.far), len(packets)*jobs)
		}
	}
	if allocs[60] != allocs[600] || allocs[600] > 1 {
		t.Errorf("Ingest allocs: %v for 60 jobs, %v for 600; want equal and at most 1", allocs[60], allocs[600])
	}
}

// BenchmarkFlushIngest times one periodic report of a site: a ledger flush
// of 60 jobs and the central ingest that borrows its records.
func BenchmarkFlushIngest(b *testing.B) {
	l := NewLedger("ridge", sampleSyms)
	c := NewCentral(sampleSyms)
	id := int64(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id += 100
		spoolOne(l, id, 60)
		if err := c.Ingest(l.Flush(des.Time(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCentralIngest times filling a fresh database from a run's
// packets: 100 flushes of 60 jobs (JobIDs counting up from 1, as in a run)
// and one record of every other kind, taken as flushed packets (Ingest) or
// as their wire form (IngestWire, which also decodes and interns). It
// reports the heap bytes per record ingested.
func BenchmarkCentralIngest(b *testing.B) {
	l := NewLedger("ridge", sampleSyms)
	var packets []*Packet
	var wire [][]byte
	records := 0
	for i := 0; i < 100; i++ {
		spoolOne(l, int64(i*60+1), 60)
		p := l.Flush(des.Time(i))
		packets = append(packets, p)
		wire = append(wire, p.AppendWire(nil))
		records += len(p.Jobs) + len(p.Transfers) + len(p.GatewayAttrs) + len(p.Storage)
	}
	for _, bc := range []struct {
		name   string
		syms   *job.Symbols // the fresh database's table; nil for a new one
		ingest func(c *Central, i int) error
	}{
		{"Ingest", sampleSyms, func(c *Central, i int) error { return c.Ingest(packets[i]) }},
		{"IngestWire", nil, func(c *Central, i int) error { _, err := c.IngestWire(wire[i]); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for n := 0; n < b.N; n++ {
				c := NewCentral(bc.syms)
				for i := range packets {
					if err := bc.ingest(c, i); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*records), "B/record")
		})
	}
}
