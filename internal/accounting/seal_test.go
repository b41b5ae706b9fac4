package accounting

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// sealModel drives a Central and a plain append-only reference of the job
// records it must hold side by side. It keeps every packet it offered with
// a deep copy, because Central borrows the packets' job records and must
// never write to them.
type sealModel struct {
	c       *Central
	ref     []JobRecord
	seq     uint64
	nextID  int64
	offered []*Packet
	clones  []*Packet
}

// packet returns the next in-sequence packet of site "ridge" with n new
// jobs. With dup in 1..n it also repeats the first job at index dup, which
// Central must drop as a duplicate; dup 0 repeats nothing.
func (m *sealModel) packet(n, dup int) *Packet {
	m.seq++
	p := &Packet{Site: "ridge", Seq: m.seq, Syms: sampleSyms}
	for i := 0; i < n; i++ {
		m.nextID++
		r := sampleJob
		r.JobID, r.NUs = m.nextID, float64(m.nextID)
		p.Jobs = append(p.Jobs, r)
	}
	m.ref = append(m.ref, p.Jobs...)
	if dup > 0 {
		p.Jobs = slices.Insert(p.Jobs, dup, p.Jobs[0])
	}
	m.offered = append(m.offered, p)
	m.clones = append(m.clones, clonePacket(p))
	return p
}

// ingest offers a packet and checks it added want pending segments.
func (m *sealModel) ingest(t *testing.T, p *Packet, want int) {
	t.Helper()
	before := len(m.c.segs)
	if err := m.c.Ingest(p); err != nil {
		t.Fatal(err)
	}
	if got := len(m.c.segs) - before; got != want {
		t.Fatalf("packet of %d jobs added %d segments, want %d", len(p.Jobs), got, want)
	}
}

// sealOp is one step of a seal table case.
type sealOp func(t *testing.T, m *sealModel)

// ingestOp ingests n new jobs, with n > 1 followed by a repeat: the repeat
// ends the packet's one segment.
func ingestOp(n int) sealOp {
	return func(t *testing.T, m *sealModel) { m.ingest(t, m.packet(n, repeatLast(n)), 1) }
}

// repeatLast places a packet's repeat after its n new jobs, if n > 1.
func repeatLast(n int) int {
	if n > 1 {
		return n
	}
	return 0
}

// splitOp ingests n > 1 new jobs with a repeat in the middle, which splits
// the packet into two segments.
func splitOp(n int) sealOp {
	return func(t *testing.T, m *sealModel) { m.ingest(t, m.packet(n, n/2), 2) }
}

// adoptOp ingests n new jobs into an empty Central, whose first read must
// adopt the packet's job slice instead of copying it.
func adoptOp(n int) sealOp {
	return func(t *testing.T, m *sealModel) {
		p := m.packet(n, 0)
		m.ingest(t, p, 1)
		if jobs := m.c.Jobs(); &jobs[0] != &p.Jobs[0] || cap(jobs) != n {
			t.Fatalf("lone segment not adopted: shared %v, cap %d, want %d", &jobs[0] == &p.Jobs[0], cap(jobs), n)
		}
	}
}

// rejectOp offers a re-delivery of the last packet and then the packet
// after the next, past a sequence gap. The first is skipped, the second
// fails, and neither leaves a segment behind.
func rejectOp(n int) sealOp {
	return func(t *testing.T, m *sealModel) {
		ref, seq, id, segs := m.ref, m.seq, m.nextID, len(m.c.segs)
		p := m.packet(n, 0)
		p.Seq, m.clones[len(m.clones)-1].Seq = seq, seq
		if err := m.c.Ingest(p); err != nil {
			t.Fatalf("re-delivered packet: %v", err)
		}
		p = m.packet(n, repeatLast(n))
		if err := m.c.Ingest(p); err == nil || !strings.Contains(err.Error(), "gap") {
			t.Fatalf("packet past a sequence gap: %v, want a gap error", err)
		}
		m.ref, m.seq, m.nextID = ref, seq, id
		if len(m.c.segs) != segs {
			t.Fatalf("rejected packets left %d segments, want %d", len(m.c.segs), segs)
		}
	}
}

func jobsOp(t *testing.T, m *sealModel) {
	if !reflect.DeepEqual(m.c.Jobs(), m.ref) {
		t.Fatal("Jobs differs from the reference")
	}
}

func jobOp(t *testing.T, m *sealModel) {
	for _, want := range m.ref {
		if got, ok := m.c.Job(want.JobID); !ok || got != want {
			t.Fatalf("Job(%d) = %+v, %v; want %+v", want.JobID, got, ok, want)
		}
	}
}

func totalOp(t *testing.T, m *sealModel) {
	want := 0.0
	for _, r := range m.ref {
		want += r.NUs
	}
	if got := m.c.TotalNUs(); got != want {
		t.Fatalf("TotalNUs = %v, want %v", got, want)
	}
}

func exportOp(t *testing.T, m *sealModel) {
	var buf bytes.Buffer
	if err := m.c.Export(&buf); err != nil {
		t.Fatal(err)
	}
	// Importing into the same table gives every string its Sym back.
	back := NewCentral(m.c.Syms())
	if err := back.Import(&buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Jobs(), m.ref) {
		t.Fatal("exported jobs differ from the reference")
	}
}

// TestSealInterleaved alternates ingests that borrow one or two segments,
// rejected packets and every kind of read. After every step Jobs must
// equal a plain append-only reference, the first seal must size the slice
// exactly, no segment may survive a read, and every packet offered must
// still equal its copy.
func TestSealInterleaved(t *testing.T) {
	for _, tc := range []struct {
		name  string
		steps [][]sealOp
	}{
		{"adopt then ingest", [][]sealOp{
			{adoptOp(5)}, {ingestOp(3), jobOp}, {splitOp(300)}, {totalOp}, {exportOp},
		}},
		{"ingest only", [][]sealOp{
			{ingestOp(1)}, {ingestOp(600), ingestOp(3)}, {jobOp}, {ingestOp(256)}, {exportOp},
		}},
		{"splits and rejects", [][]sealOp{
			{splitOp(300), rejectOp(1)}, {splitOp(2), rejectOp(300)}, {rejectOp(2)}, {ingestOp(1)}, {totalOp, jobOp},
		}},
		{"many small seals", [][]sealOp{
			{ingestOp(1)}, {splitOp(2), jobsOp}, {ingestOp(3), jobOp}, {splitOp(4), totalOp}, {ingestOp(5), exportOp}, {splitOp(6)},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &sealModel{c: NewCentral(sampleSyms)}
			for i, step := range tc.steps {
				for _, op := range step {
					op(t, m)
				}
				jobs := m.c.Jobs()
				if !reflect.DeepEqual(jobs, m.ref) {
					t.Fatalf("step %d: Jobs holds %d records, reference %d", i, len(jobs), len(m.ref))
				}
				if i == 0 && cap(jobs) != len(jobs) {
					t.Fatalf("first seal: cap %d, want exact size %d", cap(jobs), len(jobs))
				}
				if len(m.c.segs) != 0 {
					t.Fatalf("step %d: a read left %d segments", i, len(m.c.segs))
				}
				for j, p := range m.offered {
					if !reflect.DeepEqual(p, m.clones[j]) {
						t.Fatalf("step %d: packet seq %d changed after ingest", i, p.Seq)
					}
				}
			}
		})
	}
}

// TestImportRefusesUnsealedRecords: records still in pending segments count
// as held records.
func TestImportRefusesUnsealedRecords(t *testing.T) {
	c := NewCentral(nil)
	if err := c.Ingest(&Packet{Site: "ridge", Seq: 1, Jobs: []JobRecord{{JobID: 1}}, Syms: c.Syms()}); err != nil {
		t.Fatal(err)
	}
	if len(c.segs) != 1 || len(c.jobs) != 0 {
		t.Fatalf("want one pending segment, have %d segments and %d sealed", len(c.segs), len(c.jobs))
	}
	err := c.Import(strings.NewReader(`{"kind":"job","data":{"job_id":2}}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "non-empty") {
		t.Fatalf("Import into a database with unsealed records: %v", err)
	}
}

// TestSealAdoptsLoneSegment: the seal of an empty Central holding one
// segment keeps the packet's job slice, capped at its length, so a later
// seal reallocates instead of writing into the packet's spare capacity. A
// packet split by a duplicate is copied, and left as it was.
func TestSealAdoptsLoneSegment(t *testing.T) {
	jobs := make([]JobRecord, 3, 8)
	copy(jobs, []JobRecord{{JobID: 3, NUs: 1}, {JobID: 1}, {JobID: 2}})
	c := NewCentral(nil)
	if err := c.Ingest(&Packet{Site: "stream", Seq: 1, Jobs: jobs, Syms: c.Syms()}); err != nil {
		t.Fatal(err)
	}
	got := c.Jobs()
	if &got[0] != &jobs[0] || cap(got) != 3 {
		t.Fatalf("seal copied the lone segment or kept its spare capacity: cap %d", cap(got))
	}
	if r, ok := c.Job(2); !ok || r.JobID != 2 {
		t.Fatalf("Job(2) = %+v, %v", r, ok)
	}
	if err := c.Ingest(&Packet{Site: "stream", Seq: 2, Jobs: []JobRecord{{JobID: 4}}, Syms: c.Syms()}); err != nil {
		t.Fatal(err)
	}
	if got := c.Jobs(); len(got) != 4 || &got[0] == &jobs[0] || got[3].JobID != 4 {
		t.Fatalf("seal after adoption: %d jobs, shares the adopted slice %v", len(got), &got[0] == &jobs[0])
	}
	if spare := jobs[:8]; !reflect.DeepEqual(spare[3:], make([]JobRecord, 5)) {
		t.Fatal("seal wrote into the adopted packet's spare capacity")
	}

	split := []JobRecord{{JobID: 3, NUs: 1}, {JobID: 1}, {JobID: 3, NUs: 2}, {JobID: 2}}
	want := slices.Clone(split)
	c = NewCentral(nil)
	if err := c.Ingest(&Packet{Site: "stream", Seq: 1, Jobs: split, Syms: c.Syms()}); err != nil {
		t.Fatal(err)
	}
	got = c.Jobs()
	if &got[0] == &split[0] || !reflect.DeepEqual(got, []JobRecord{{JobID: 3, NUs: 1}, {JobID: 1}, {JobID: 2}}) {
		t.Fatalf("split packet sealed to %+v (shared %v)", got, &got[0] == &split[0])
	}
	if c.Duplicates() != 1 || !reflect.DeepEqual(split, want) {
		t.Fatalf("%d duplicates, packet now %+v", c.Duplicates(), split)
	}
}
