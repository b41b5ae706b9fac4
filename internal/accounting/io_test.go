package accounting

import (
	"bytes"
	"errors"
	"github.com/tgsim/tgmod/internal/job"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func populated(t *testing.T) *Central {
	t.Helper()
	c := NewCentral(nil)
	s := c.Syms()
	err := c.Ingest(&Packet{
		Site: "s", Seq: 1, Syms: s,
		Jobs: []JobRecord{
			{JobID: 1, User: s.Intern("a"), NUs: 10, Cores: 4, TruthModality: job.SymBatchCapacity},
			{JobID: 2, User: s.Intern("b"), NUs: 20, Cores: 8, GatewayID: s.Intern("g")},
		},
		Transfers:    []TransferRecord{{TransferID: 9, Src: s.Intern("x"), Dst: s.Intern("y"), Bytes: 100, JobID: 1}},
		GatewayAttrs: []GatewayAttrRecord{{GatewayID: s.Intern("g"), GatewayUser: s.Intern("u"), JobID: 2}},
		Storage:      []StorageRecord{{Site: s.Intern("s"), Project: s.Intern("p"), Bytes: 7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestExportImportRoundTrip(t *testing.T) {
	c := populated(t)
	var buf bytes.Buffer
	if err := c.Export(&buf); err != nil {
		t.Fatal(err)
	}
	c2 := NewCentral(nil)
	if err := c2.Import(&buf); err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 2 || c2.Transfers().Len() != 1 ||
		c2.GatewayAttrs().Len() != 1 || c2.StorageRecords().Len() != 1 {
		t.Fatalf("round trip lost records: %d/%d/%d/%d",
			c2.Len(), c2.Transfers().Len(), c2.GatewayAttrs().Len(), c2.StorageRecords().Len())
	}
	if c2.TotalNUs() != 30 {
		t.Errorf("TotalNUs = %v, want 30", c2.TotalNUs())
	}
	if r, ok := c2.Job(1); !ok || r.TruthModality != job.SymBatchCapacity {
		t.Error("truth label lost in round trip")
	}
}

func TestImportRejectsNonEmpty(t *testing.T) {
	c := populated(t)
	var buf bytes.Buffer
	if err := c.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c.Import(&buf); err == nil {
		t.Error("import into populated database accepted")
	}
}

func TestImportDuplicateJobsSkipped(t *testing.T) {
	c := populated(t)
	var buf bytes.Buffer
	if err := c.Export(&buf); err != nil {
		t.Fatal(err)
	}
	// Duplicate the content: same job IDs twice.
	doubled := append(append([]byte{}, buf.Bytes()...), buf.Bytes()...)
	c2 := NewCentral(nil)
	if err := c2.Import(bytes.NewReader(doubled)); err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 2 {
		t.Errorf("duplicate import produced %d jobs, want 2", c2.Len())
	}
	if c2.Duplicates() != 2 {
		t.Errorf("Duplicates = %d, want 2", c2.Duplicates())
	}
}

func TestImportErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":      "not json\n",
		"unknown kind": `{"kind":"martian","data":{}}` + "\n",
		"bad job":      `{"kind":"job","data":"not-an-object"}` + "\n",
		"bad transfer": `{"kind":"transfer","data":[1]}` + "\n",
		"bad attr":     `{"kind":"gateway_attr","data":7}` + "\n",
		"bad storage":  `{"kind":"storage","data":true}` + "\n",
	}
	for name, in := range cases {
		c := NewCentral(nil)
		if err := c.Import(strings.NewReader(in)); !errors.Is(err, ErrBadImport) {
			t.Errorf("%s: error %v does not wrap ErrBadImport", name, err)
		}
	}
	// Blank lines are tolerated.
	c := NewCentral(nil)
	if err := c.Import(strings.NewReader("\n\n")); err != nil {
		t.Errorf("blank lines rejected: %v", err)
	}
}

// FuzzImport drives arbitrary bytes through Import. The invariants: Import
// never panics, every failure wraps ErrBadImport, and whatever it accepts
// round-trips: exporting it, importing that into a fresh database and
// exporting again gives the same bytes. The seeds are lines of a quick
// seed-7 run's acct.jsonl, whole and one by one, plus variants.
func FuzzImport(f *testing.F) {
	real, err := os.ReadFile(filepath.Join("testdata", "quick7-acct.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	for _, line := range bytes.SplitAfter(real, []byte("\n")) {
		f.Add(line)
	}
	f.Add(append(append([]byte{}, real...), real...)) // every JobID twice
	f.Add([]byte(`{"kind":"storage","data":{"site":"ridge","project":"p","bytes":7,"at":86400}}` + "\n"))
	f.Add([]byte(`{"kind":"job","data":{"job_id":1,"wasted_core_s":1.5,"preempts":2,"truth":"urgent"}}` + "\r\n\n"))
	f.Add([]byte(`{"kind":"job","data":null}`))
	f.Add([]byte(`{"kind":"martian","data":{}}`))
	f.Add([]byte("not json\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCentral(nil)
		if err := c.Import(bytes.NewReader(data)); err != nil {
			if !errors.Is(err, ErrBadImport) {
				t.Fatalf("error %v does not wrap ErrBadImport", err)
			}
			return
		}
		var first, second bytes.Buffer
		if err := c.Export(&first); err != nil {
			t.Fatalf("export of an accepted import: %v", err)
		}
		back := NewCentral(nil)
		if err := back.Import(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("import of an export: %v", err)
		}
		if err := back.Export(&second); err != nil {
			t.Fatalf("second export: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("export round trip differs:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
