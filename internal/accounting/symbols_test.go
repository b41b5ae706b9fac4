package accounting

import (
	"reflect"
	"strings"
	"testing"

	"github.com/tgsim/tgmod/internal/job"
)

// pointerKinds are the kinds whose values hold pointers the garbage
// collector must scan.
var pointerKinds = map[reflect.Kind]bool{
	reflect.Pointer: true, reflect.UnsafePointer: true, reflect.String: true,
	reflect.Slice: true, reflect.Map: true, reflect.Chan: true,
	reflect.Func: true, reflect.Interface: true,
}

// pointerFields lists the paths of the fields of t that hold pointers.
func pointerFields(t reflect.Type, path string) []string {
	switch {
	case pointerKinds[t.Kind()]:
		return []string{path}
	case t.Kind() == reflect.Struct:
		var out []string
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			out = append(out, pointerFields(f.Type, path+"."+f.Name)...)
		}
		return out
	case t.Kind() == reflect.Array:
		return pointerFields(t.Elem(), path+"[]")
	}
	return nil
}

// TestJobRecordIsPointerFree pins the layout of every record kind: no
// field holds a pointer, so a slice of records is a no-scan span, and each
// record takes at most its pinned size.
func TestJobRecordIsPointerFree(t *testing.T) {
	for _, tc := range []struct {
		rec  any
		size uintptr
	}{
		{JobRecord{}, 160},
		{GatewayAttrRecord{}, 24},
		{TransferRecord{}, 56},
		{StorageRecord{}, 24},
	} {
		typ := reflect.TypeOf(tc.rec)
		if got := pointerFields(typ, typ.Name()); len(got) > 0 {
			t.Errorf("%s fields hold pointers: %s", typ.Name(), strings.Join(got, ", "))
		}
		if n := typ.Size(); n > tc.size {
			t.Errorf("%s takes %d bytes, want at most %d", typ.Name(), n, tc.size)
		}
	}
}

var recordSink JobRecord

// TestRecordOfInternsNothing: RecordOf copies a fully tagged job's Syms
// as they are, so it neither allocates nor adds to the run's table.
func TestRecordOfInternsNothing(t *testing.T) {
	syms := job.NewSymbols()
	j := finishedJob(syms, 1)
	j.Attr.GatewayID, j.Attr.GatewayUser = syms.Intern("nanohub"), syms.Intern("nanohub-user-00001")
	j.Attr.WorkflowID, j.Attr.WorkflowEngine = syms.Intern("wf-1"), syms.Intern("pegasus")
	j.Attr.EnsembleID, j.Attr.BrokerJobID = syms.Intern("ens-1"), syms.Intern("broker-1")
	j.Attr.CoAllocID, j.Truth.CampaignID = syms.Intern("coalloc-1"), syms.Intern("wf-1")
	m, n := testMachine(), syms.Len()
	if a := testing.AllocsPerRun(100, func() { recordSink = RecordOf(j, m) }); a != 0 {
		t.Errorf("RecordOf: %v allocs, want 0", a)
	}
	if got := syms.Len(); got != n {
		t.Errorf("RecordOf grew the table from %d to %d strings", n, got)
	}
	if syms.Str(recordSink.GatewayID) != "nanohub" || recordSink.TruthCampaign != j.Truth.CampaignID {
		t.Errorf("RecordOf did not carry the job's Syms: %+v", recordSink)
	}
}

// TestIngestRejectsForeignTable: Central refuses a packet whose records,
// of any kind, index another table, without admitting its sequence number.
func TestIngestRejectsForeignTable(t *testing.T) {
	c := NewCentral(nil)
	for _, syms := range []*job.Symbols{job.NewSymbols(), nil} {
		for _, p := range []*Packet{
			{Site: "s", Seq: 1, Jobs: []JobRecord{{JobID: 1}}, Syms: syms},
			{Site: "s", Seq: 1, Transfers: []TransferRecord{{TransferID: 1}}, Syms: syms},
			{Site: "s", Seq: 1, GatewayAttrs: []GatewayAttrRecord{{JobID: 1}}, Syms: syms},
			{Site: "s", Seq: 1, Storage: []StorageRecord{{Bytes: 1}}, Syms: syms},
		} {
			if err := c.Ingest(p); err == nil || !strings.Contains(err.Error(), "symbol table") {
				t.Fatalf("packet %+v ingested into a database with table %p: %v", p, c.Syms(), err)
			}
		}
	}
	if err := c.Ingest(&Packet{Site: "s", Seq: 1}); err != nil {
		t.Fatalf("a packet without records needs no table: %v", err)
	}
	if err := c.Ingest(&Packet{Site: "s", Seq: 2, Jobs: []JobRecord{{JobID: 1}}, Syms: c.Syms()}); err != nil {
		t.Fatalf("the next packet of the database's table: %v", err)
	}
	if c.Len() != 1 || c.Duplicates() != 0 {
		t.Fatalf("%d jobs and %d duplicates after the rejected packets", c.Len(), c.Duplicates())
	}
}

// TestRejectedWireLeavesTable: wire input that DecodePacket or IngestWire
// rejects (a truncated packet, a gap, a re-delivery) interns nothing, so a
// long-lived table fed bad bytes does not grow; an admitted packet adds
// its strings.
func TestRejectedWireLeavesTable(t *testing.T) {
	enc := func(seq uint64, user string) []byte {
		syms := job.NewSymbols()
		return (&Packet{Site: "s", Seq: seq, Syms: syms,
			Jobs:         []JobRecord{{JobID: int64(seq), User: syms.Intern(user), Project: syms.Intern("p-" + user)}},
			GatewayAttrs: []GatewayAttrRecord{{GatewayUser: syms.Intern("end-" + user), JobID: int64(seq)}}}).AppendWire(nil)
	}
	c := NewCentral(nil)
	n := c.Syms().Len()
	first := enc(1, "first")
	for cut := 0; cut < len(first); cut++ {
		if _, err := DecodePacket(first[:cut], c.Syms()); err == nil {
			t.Fatalf("%d-byte prefix decoded", cut)
		}
		if _, err := c.IngestWire(first[:cut]); err == nil {
			t.Fatalf("%d-byte prefix ingested", cut)
		}
	}
	if _, err := c.IngestWire(enc(2, "gap")); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gap packet: %v", err)
	}
	if got := c.Syms().Len(); got != n {
		t.Fatalf("rejected input grew the table from %d to %d strings", n, got)
	}
	p, err := c.IngestWire(first)
	if err != nil || p == nil || p.Syms != c.Syms() {
		t.Fatalf("IngestWire of the next packet: %v, %v", p, err)
	}
	if got := c.Syms().Len(); got != n+3 || c.Syms().Str(c.At(0).User) != "first" ||
		c.Syms().Str(p.GatewayAttrs[0].GatewayUser) != "end-first" {
		t.Fatalf("admitted packet: table holds %d strings, want %d", got, n+3)
	}
	if p, err := c.IngestWire(enc(1, "again")); p != nil || err != nil || c.Duplicates() != 1 {
		t.Fatalf("re-delivery: packet %v, error %v, %d duplicates", p, err, c.Duplicates())
	}
	if got := c.Syms().Len(); got != n+3 {
		t.Fatalf("re-delivery grew the table to %d strings, want %d", got, n+3)
	}
}
