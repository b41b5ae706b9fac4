package accounting

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// sealModel drives a Central and a plain append-only reference of the job
// records it must hold side by side.
type sealModel struct {
	c      *Central
	ref    []JobRecord
	seq    uint64
	nextID int64
}

// packet returns the next in-sequence packet of site "ridge" with n new
// jobs; with n > 1 it also repeats the first job at the end, which Central
// must drop as a duplicate.
func (m *sealModel) packet(n int) *Packet {
	m.seq++
	p := &Packet{Site: "ridge", Seq: m.seq}
	for i := 0; i < n; i++ {
		m.nextID++
		r := sampleJob
		r.JobID, r.NUs = m.nextID, float64(m.nextID)
		p.Jobs = append(p.Jobs, r)
	}
	m.ref = append(m.ref, p.Jobs...)
	if n > 1 {
		p.Jobs = append(p.Jobs, p.Jobs[0])
	}
	return p
}

// sealOp is one step of a seal table case.
type sealOp func(t *testing.T, m *sealModel)

func ingestOp(n int) sealOp {
	return func(t *testing.T, m *sealModel) {
		if err := m.c.Ingest(m.packet(n)); err != nil {
			t.Fatal(err)
		}
	}
}

func wireOp(n int) sealOp {
	return func(t *testing.T, m *sealModel) {
		if err := m.c.IngestWire(m.packet(n).AppendWire(nil)); err != nil {
			t.Fatal(err)
		}
	}
}

// rejectOp offers a truncated next packet and then one past a sequence
// gap; both must fail and leave the records as they were.
func rejectOp(n int) sealOp {
	return func(t *testing.T, m *sealModel) {
		ref, seq, id := m.ref, m.seq, m.nextID
		data := m.packet(n).AppendWire(nil)
		if err := m.c.IngestWire(data[:len(data)-1]); !errors.Is(err, ErrBadPacket) {
			t.Fatalf("truncated packet: %v, want ErrBadPacket", err)
		}
		m.seq++
		if err := m.c.IngestWire(m.packet(n).AppendWire(nil)); err == nil {
			t.Fatal("packet past a sequence gap was accepted")
		}
		m.ref, m.seq, m.nextID = ref, seq, id
		if !zeroTail(m.c) {
			t.Fatal("rejected packet left records behind the end of the store")
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
	back := NewCentral()
	if err := back.Import(&buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Jobs(), m.ref) {
		t.Fatal("exported jobs differ from the reference")
	}
}

// TestSealInterleaved alternates ingests on both paths with every kind of
// read. After every step Jobs must equal a plain append-only reference,
// the first seal must size the slice exactly, and rejected packets must
// leave nothing behind.
func TestSealInterleaved(t *testing.T) {
	for _, tc := range []struct {
		name  string
		steps [][]sealOp
	}{
		{"wire across chunks", [][]sealOp{
			{wireOp(300)}, {jobsOp}, {wireOp(5)}, {jobOp}, {wireOp(251), ingestOp(10)}, {totalOp}, {exportOp},
		}},
		{"ingest only", [][]sealOp{
			{ingestOp(1)}, {ingestOp(600), ingestOp(3)}, {jobOp}, {ingestOp(256)}, {exportOp},
		}},
		{"rejects at chunk edges", [][]sealOp{
			{wireOp(255), rejectOp(1)}, {wireOp(1), rejectOp(300)}, {rejectOp(2)}, {wireOp(1)}, {totalOp, jobOp},
		}},
		{"many small seals", [][]sealOp{
			{wireOp(1)}, {wireOp(2), jobsOp}, {ingestOp(3), jobOp}, {wireOp(4), totalOp}, {ingestOp(5), exportOp}, {wireOp(6)},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &sealModel{c: NewCentral()}
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
				if m.c.live.Len() != 0 || len(m.c.live.chunks) != 0 {
					t.Fatalf("step %d: a read left %d live records in %d chunks", i, m.c.live.Len(), len(m.c.live.chunks))
				}
				if !zeroTail(m.c) {
					t.Fatalf("step %d: records behind the end of the store", i)
				}
			}
		})
	}
}

// TestImportRefusesUnsealedRecords: records still in the live chunks count
// as held records.
func TestImportRefusesUnsealedRecords(t *testing.T) {
	c := NewCentral()
	if err := c.Ingest(&Packet{Site: "ridge", Seq: 1, Jobs: []JobRecord{{JobID: 1}}}); err != nil {
		t.Fatal(err)
	}
	if c.live.Len() != 1 || len(c.jobs) != 0 {
		t.Fatalf("want one unsealed record, have %d live and %d sealed", c.live.Len(), len(c.jobs))
	}
	err := c.Import(strings.NewReader(`{"kind":"job","data":{"job_id":2}}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "non-empty") {
		t.Fatalf("Import into a database with unsealed records: %v", err)
	}
}

// TestIngestOwnedKeepsSlice: into an empty database IngestOwned keeps the
// handed-over job slice and applies Ingest's keep-first dedup in place;
// into a non-empty one it copies as Ingest does.
func TestIngestOwnedKeepsSlice(t *testing.T) {
	jobs := []JobRecord{{JobID: 3, NUs: 1}, {JobID: 1}, {JobID: 3, NUs: 2}, {JobID: 2}}
	c := NewCentral()
	if err := c.IngestOwned(&Packet{Site: "stream", Seq: 1, Jobs: jobs}); err != nil {
		t.Fatal(err)
	}
	got := c.Jobs()
	if &got[0] != &jobs[0] {
		t.Fatal("IngestOwned copied the job slice into an empty database")
	}
	want := []JobRecord{{JobID: 3, NUs: 1}, {JobID: 1}, {JobID: 2}}
	if !reflect.DeepEqual(got, want) || c.Duplicates() != 1 || jobs[3] != (JobRecord{}) {
		t.Fatalf("IngestOwned kept %+v (%d duplicates), want %+v and the tail zeroed", got, c.Duplicates(), want)
	}
	if r, ok := c.Job(2); !ok || r.JobID != 2 {
		t.Fatalf("Job(2) = %+v, %v", r, ok)
	}
	if err := c.IngestOwned(&Packet{Site: "stream", Seq: 1, Jobs: []JobRecord{{JobID: 9}}}); err != nil || len(c.Jobs()) != 3 {
		t.Fatalf("re-delivered packet: %v, %d jobs", err, len(c.Jobs()))
	}
	more := []JobRecord{{JobID: 4}}
	if err := c.IngestOwned(&Packet{Site: "stream", Seq: 2, Jobs: more}); err != nil {
		t.Fatal(err)
	}
	if got := c.Jobs(); len(got) != 4 || &got[3] == &more[0] {
		t.Fatalf("IngestOwned into a non-empty database: %d jobs, slice shared %v", len(got), &got[3] == &more[0])
	}
}
