package accounting

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// readModel drives a Central and a plain append-only reference of the
// records it must hold side by side. It keeps every packet it offered with
// a deep copy, because Central borrows the packets' records and must never
// write to them.
type readModel struct {
	c         *Central
	ref       []JobRecord
	transfers []TransferRecord
	seq       uint64
	nextID    int64
	offered   []*Packet
	clones    []*Packet
}

// packet returns the next in-sequence packet of site "ridge" with n new
// jobs and one transfer. With dup in 1..n it also repeats the first job at
// index dup, which Central must drop as a duplicate; dup 0 repeats nothing.
func (m *readModel) packet(n, dup int) *Packet {
	m.seq++
	p := &Packet{Site: "ridge", Seq: m.seq, Syms: sampleSyms,
		Transfers: []TransferRecord{{TransferID: int64(m.seq), Bytes: int64(m.seq)}}}
	for i := 0; i < n; i++ {
		m.nextID++
		r := sampleJob
		r.JobID, r.NUs = m.nextID, float64(m.nextID)
		p.Jobs = append(p.Jobs, r)
	}
	m.ref = append(m.ref, p.Jobs...)
	m.transfers = append(m.transfers, p.Transfers...)
	if dup > 0 {
		p.Jobs = slices.Insert(p.Jobs, dup, p.Jobs[0])
	}
	m.offered = append(m.offered, p)
	m.clones = append(m.clones, clonePacket(p))
	return p
}

// ingest offers a packet and checks that it added want job runs, that At
// points every kept record into the packet's own array, in order and
// without the repeat, and that the transfer run is the packet's.
func (m *readModel) ingest(t *testing.T, p *Packet, want int) {
	t.Helper()
	runs, held := len(m.c.JobRuns()), m.c.Len()
	if err := m.c.Ingest(p); err != nil {
		t.Fatal(err)
	}
	if got := len(m.c.JobRuns()) - runs; got != want {
		t.Fatalf("packet of %d jobs added %d job runs, want %d", len(p.Jobs), got, want)
	}
	k := held
	for i := range p.Jobs {
		if i > 0 && p.Jobs[i].JobID == p.Jobs[0].JobID {
			continue
		}
		if m.c.At(k) != &p.Jobs[i] {
			t.Fatalf("At(%d) does not point at the packet's record %d", k, i)
		}
		k++
	}
	if k != m.c.Len() {
		t.Fatalf("Central holds %d records, want %d", m.c.Len(), k)
	}
	tr := m.c.Transfers()
	if last := tr[len(tr)-1]; &last[0] != &p.Transfers[0] {
		t.Fatal("the transfer run is not the packet's array")
	}
}

// readOp is one step of a read table case.
type readOp func(t *testing.T, m *readModel)

// ingestOp ingests n new jobs, with n > 1 followed by a repeat: the repeat
// ends the packet's one job run.
func ingestOp(n int) readOp {
	return func(t *testing.T, m *readModel) { m.ingest(t, m.packet(n, repeatLast(n)), 1) }
}

// repeatLast places a packet's repeat after its n new jobs, if n > 1.
func repeatLast(n int) int {
	if n > 1 {
		return n
	}
	return 0
}

// splitOp ingests n > 1 new jobs with a repeat in the middle, which splits
// the packet into two job runs.
func splitOp(n int) readOp {
	return func(t *testing.T, m *readModel) { m.ingest(t, m.packet(n, n/2), 2) }
}

// adoptOp ingests n new jobs without a repeat: the packet's whole job
// slice becomes one run, capped at its length.
func adoptOp(n int) readOp {
	return func(t *testing.T, m *readModel) {
		p := m.packet(n, 0)
		m.ingest(t, p, 1)
		runs := m.c.JobRuns()
		if last := runs[len(runs)-1]; &last[0] != &p.Jobs[0] || cap(last) != n {
			t.Fatalf("packet not kept as it is: shared %v, cap %d, want %d", &last[0] == &p.Jobs[0], cap(last), n)
		}
	}
}

// rejectOp offers a re-delivery of the last packet and then the packet
// after the next, past a sequence gap. The first is skipped, the second
// fails, and neither leaves a record or a run behind.
func rejectOp(n int) readOp {
	return func(t *testing.T, m *readModel) {
		ref, transfers, seq, id := m.ref, m.transfers, m.seq, m.nextID
		held, runs, tr := m.c.Len(), len(m.c.JobRuns()), len(m.c.Transfers())
		p := m.packet(n, 0)
		p.Seq, m.clones[len(m.clones)-1].Seq = seq, seq
		if err := m.c.Ingest(p); err != nil {
			t.Fatalf("re-delivered packet: %v", err)
		}
		p = m.packet(n, repeatLast(n))
		if err := m.c.Ingest(p); err == nil || !strings.Contains(err.Error(), "gap") {
			t.Fatalf("packet past a sequence gap: %v, want a gap error", err)
		}
		m.ref, m.transfers, m.seq, m.nextID = ref, transfers, seq, id
		if m.c.Len() != held || len(m.c.JobRuns()) != runs || len(m.c.Transfers()) != tr {
			t.Fatalf("rejected packets left %d records, %d job runs and %d transfer runs, want %d, %d and %d",
				m.c.Len(), len(m.c.JobRuns()), len(m.c.Transfers()), held, runs, tr)
		}
	}
}

func jobOp(t *testing.T, m *readModel) {
	for _, want := range m.ref {
		if got, ok := m.c.Job(want.JobID); !ok || got != want {
			t.Fatalf("Job(%d) = %+v, %v; want %+v", want.JobID, got, ok, want)
		}
	}
}

func totalOp(t *testing.T, m *readModel) {
	want := 0.0
	for _, r := range m.ref {
		want += r.NUs
	}
	if got := m.c.TotalNUs(); got != want {
		t.Fatalf("TotalNUs = %v, want %v", got, want)
	}
}

func exportOp(t *testing.T, m *readModel) {
	var buf bytes.Buffer
	if err := m.c.Export(&buf); err != nil {
		t.Fatal(err)
	}
	// Importing into the same table gives every string its Sym back.
	back := NewCentral(m.c.Syms())
	if err := back.Import(&buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(values(back.Jobs()), m.ref) || !reflect.DeepEqual(flat(back.JobRuns()), m.ref) {
		t.Fatal("exported jobs differ from the reference")
	}
	if !reflect.DeepEqual(flat(back.Transfers()), m.transfers) {
		t.Fatal("exported transfers differ from the reference")
	}
}

// TestSealInterleaved checks that reads need no seal: it alternates
// ingests that keep one or two job runs, rejected packets and every kind
// of read. After every step At, Jobs and the job runs must equal a
// plain append-only reference, the transfer runs the reference's
// transfers, and every packet offered must still equal its copy.
func TestSealInterleaved(t *testing.T) {
	for _, tc := range []struct {
		name  string
		steps [][]readOp
	}{
		{"adopt then ingest", [][]readOp{
			{adoptOp(5)}, {ingestOp(3), jobOp}, {splitOp(300)}, {totalOp}, {exportOp},
		}},
		{"ingest only", [][]readOp{
			{ingestOp(1)}, {ingestOp(600), ingestOp(3)}, {jobOp}, {ingestOp(256)}, {exportOp},
		}},
		{"splits and rejects", [][]readOp{
			{splitOp(300), rejectOp(1)}, {splitOp(2), rejectOp(300)}, {rejectOp(2)}, {ingestOp(1)}, {totalOp, jobOp},
		}},
		{"many small seals", [][]readOp{
			{ingestOp(1)}, {splitOp(2)}, {ingestOp(3), jobOp}, {splitOp(4), totalOp}, {ingestOp(5), exportOp}, {splitOp(6)},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &readModel{c: NewCentral(sampleSyms)}
			for i, step := range tc.steps {
				for _, op := range step {
					op(t, m)
				}
				if m.c.Len() != len(m.ref) || len(m.c.Jobs()) != len(m.ref) {
					t.Fatalf("step %d: Central holds %d records, reference %d", i, m.c.Len(), len(m.ref))
				}
				for j, r := range m.c.Jobs() {
					if r != m.c.At(j) || *r != m.ref[j] {
						t.Fatalf("step %d: record %d differs from the reference", i, j)
					}
				}
				if !reflect.DeepEqual(flat(m.c.JobRuns()), m.ref) {
					t.Fatalf("step %d: the job runs differ from the reference", i)
				}
				if !reflect.DeepEqual(flat(m.c.Transfers()), m.transfers) {
					t.Fatalf("step %d: the transfer runs differ from the reference", i)
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

// TestImportRefusesHeldRecords: a database that holds borrowed records of
// any kind refuses an import.
func TestImportRefusesHeldRecords(t *testing.T) {
	for _, p := range []*Packet{
		{Site: "ridge", Seq: 1, Jobs: []JobRecord{{JobID: 1}}},
		{Site: "ridge", Seq: 1, Storage: []StorageRecord{{Bytes: 1}}},
	} {
		c := NewCentral(nil)
		p.Syms = c.Syms()
		if err := c.Ingest(p); err != nil {
			t.Fatal(err)
		}
		err := c.Import(strings.NewReader(`{"kind":"job","data":{"job_id":2}}` + "\n"))
		if err == nil || !strings.Contains(err.Error(), "non-empty") {
			t.Fatalf("Import into a database holding records: %v", err)
		}
		if c.Len() != len(p.Jobs) {
			t.Fatalf("the refused import left %d job records, want %d", c.Len(), len(p.Jobs))
		}
	}
}

// TestAtPointsIntoPacket: At reads a lone packet's records in place, and
// the packet's job run is capped at its length, so nothing written through
// a run reaches the packet's spare capacity. A packet split by a duplicate
// reads back in order without the duplicate, and is left as it was.
func TestAtPointsIntoPacket(t *testing.T) {
	jobs := make([]JobRecord, 3, 8)
	copy(jobs, []JobRecord{{JobID: 3, NUs: 1}, {JobID: 1}, {JobID: 2}})
	c := NewCentral(nil)
	if err := c.Ingest(&Packet{Site: "stream", Seq: 1, Jobs: jobs, Syms: c.Syms()}); err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if c.At(i) != &jobs[i] {
			t.Fatalf("At(%d) copied the packet's record", i)
		}
	}
	if run := c.JobRuns()[0]; cap(run) != 3 {
		t.Fatalf("the packet's job run kept its spare capacity: cap %d", cap(run))
	}
	if r, ok := c.Job(2); !ok || r.JobID != 2 {
		t.Fatalf("Job(2) = %+v, %v", r, ok)
	}
	if err := c.Ingest(&Packet{Site: "stream", Seq: 2, Jobs: []JobRecord{{JobID: 4}}, Syms: c.Syms()}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 4 || c.At(0) != &jobs[0] || c.At(3).JobID != 4 {
		t.Fatalf("after a second packet: %d jobs, first in place %v", c.Len(), c.At(0) == &jobs[0])
	}
	if spare := jobs[:8]; !reflect.DeepEqual(spare[3:], make([]JobRecord, 5)) {
		t.Fatal("an ingest wrote into the packet's spare capacity")
	}

	split := []JobRecord{{JobID: 3, NUs: 1}, {JobID: 1}, {JobID: 3, NUs: 2}, {JobID: 2}}
	want := slices.Clone(split)
	c = NewCentral(nil)
	if err := c.Ingest(&Packet{Site: "stream", Seq: 1, Jobs: split, Syms: c.Syms()}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 || c.At(0) != &split[0] || c.At(1) != &split[1] || c.At(2) != &split[3] {
		t.Fatalf("split packet reads back as %+v", values(c.Jobs()))
	}
	if got := flat(c.JobRuns()); !reflect.DeepEqual(got, []JobRecord{{JobID: 3, NUs: 1}, {JobID: 1}, {JobID: 2}}) {
		t.Fatalf("split packet's runs hold %+v", got)
	}
	if c.Duplicates() != 1 || !reflect.DeepEqual(split, want) {
		t.Fatalf("%d duplicates, packet now %+v", c.Duplicates(), split)
	}
}

// TestIDIndexBoundsDenseSlice: a JobID far past the records held, or
// below zero, goes to the index's map, so wire input cannot make the dense
// slice outgrow the records; in-process IDs counting up from 1 all go to
// the slice. Either way Job finds every record and a repeat is a
// duplicate, also once the slice has grown past an ID the map holds.
func TestIDIndexBoundsDenseSlice(t *testing.T) {
	c := NewCentral(nil)
	ids := []int64{1 << 62, -7, 3, 1, 2, 4*5 + denseReach, 0}
	p := &Packet{Site: "wire", Seq: 1, Syms: c.Syms()}
	for _, id := range append(ids, ids...) {
		p.Jobs = append(p.Jobs, JobRecord{JobID: id, NUs: float64(id)})
	}
	if err := c.Ingest(p); err != nil {
		t.Fatal(err)
	}
	if c.Len() != len(ids) || c.Duplicates() != uint64(len(ids)) {
		t.Fatalf("%d records and %d duplicates, want %d of each", c.Len(), c.Duplicates(), len(ids))
	}
	if len(c.ids.dense) != 4 || len(c.ids.far) != 3 {
		t.Fatalf("index has %d dense slots and %d map entries, want 4 and 3", len(c.ids.dense), len(c.ids.far))
	}
	for i, id := range ids {
		if r, ok := c.Job(id); !ok || r.NUs != float64(id) || c.At(i).JobID != id {
			t.Fatalf("Job(%d) = %+v, %v", id, r, ok)
		}
	}
	if _, ok := c.Job(5); ok {
		t.Fatal("Job(5) found a record never ingested")
	}

	// The slice grows past an ID the map holds: the ID stays found, and
	// its repeat stays a duplicate.
	far := ids[5]
	next := &Packet{Site: "wire", Seq: 2, Syms: c.Syms(), Jobs: []JobRecord{{JobID: far + 1}, {JobID: far}}}
	if err := c.Ingest(next); err != nil {
		t.Fatal(err)
	}
	if int64(len(c.ids.dense)) != far+2 || c.Len() != len(ids)+1 || c.Duplicates() != uint64(len(ids))+1 {
		t.Fatalf("%d dense slots, %d records, %d duplicates after the slice grew past JobID %d",
			len(c.ids.dense), c.Len(), c.Duplicates(), far)
	}
	if r, ok := c.Job(far); !ok || r.NUs != float64(far) {
		t.Fatalf("Job(%d) = %+v, %v after the slice grew past it", far, r, ok)
	}
}
