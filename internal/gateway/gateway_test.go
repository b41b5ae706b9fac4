package gateway

import (
	"fmt"
	"testing"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/simrand"
)

type captureSubmitter struct{ jobs []*job.Job }

func (c *captureSubmitter) SubmitJob(j *job.Job) { c.jobs = append(c.jobs, j) }

func mkJob(syms *job.Symbols, id int64) *job.Job {
	return &job.Job{ID: job.ID(id), Name: syms.Intern("sim"), User: syms.Intern("end"), Project: syms.Intern("x"),
		Cores: 4, ReqWalltime: 100, RunTime: 50}
}

func TestNewValidation(t *testing.T) {
	k := des.New()
	rng := simrand.New(1)
	sub := &captureSubmitter{}
	syms := job.NewSymbols()
	l := accounting.NewLedger("s", syms)
	if _, err := New("", "acct", "proj", "f", 1, k, syms, rng, sub, l); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := New("g", "", "proj", "f", 1, k, syms, rng, sub, l); err == nil {
		t.Error("empty account accepted")
	}
	if _, err := New("g", "acct", "", "f", 1, k, syms, rng, sub, l); err == nil {
		t.Error("empty project accepted")
	}
	if _, err := New("g", "acct", "proj", "f", 1.5, k, syms, rng, sub, l); err == nil {
		t.Error("coverage > 1 accepted")
	}
	if _, err := New("g", "acct", "proj", "f", -0.1, k, syms, rng, sub, l); err == nil {
		t.Error("negative coverage accepted")
	}
}

func TestRequestRewritesIdentity(t *testing.T) {
	k := des.New()
	sub := &captureSubmitter{}
	syms := job.NewSymbols()
	l := accounting.NewLedger("s", syms)
	g, err := New("nanohub", "nanohub-community", "TG-GATEWAY1", "nanoscience",
		1.0, k, syms, simrand.New(1), sub, l)
	if err != nil {
		t.Fatal(err)
	}
	j := mkJob(syms, 1)
	g.Request("researcher-7", j)
	if len(sub.jobs) != 1 {
		t.Fatal("job not submitted")
	}
	if syms.Str(j.User) != "nanohub-community" || syms.Str(j.Project) != "TG-GATEWAY1" {
		t.Errorf("community identity not applied: %s/%s", syms.Str(j.User), syms.Str(j.Project))
	}
	if j.Attr.SubmitVia != job.SymGateway || syms.Str(j.Attr.GatewayID) != "nanohub" {
		t.Errorf("gateway attributes missing: %+v", j.Attr)
	}
	if syms.Str(j.Attr.GatewayUser) != "researcher-7" {
		t.Errorf("end-user attribute missing at full coverage: %+v", j.Attr)
	}
	if syms.Str(j.Attr.ScienceField) != "nanoscience" {
		t.Errorf("science field not defaulted: %q", syms.Str(j.Attr.ScienceField))
	}
	// Attribute record spooled.
	p := l.Flush(k.Now())
	if p == nil || len(p.GatewayAttrs) != 1 || syms.Str(p.GatewayAttrs[0].GatewayUser) != "researcher-7" {
		t.Errorf("attribute record not spooled: %+v", p)
	}
}

func TestCoverageControlsAttribution(t *testing.T) {
	k := des.New()
	sub := &captureSubmitter{}
	syms := job.NewSymbols()
	l := accounting.NewLedger("s", syms)
	g, err := New("g", "acct", "proj", "f", 0.5, k, syms, simrand.New(42), sub, l)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		g.Request(fmt.Sprintf("user-%d", i%100), mkJob(syms, int64(i)))
	}
	got := float64(g.Attributed()) / n
	if got < 0.45 || got > 0.55 {
		t.Errorf("attribution rate = %v, want ~0.5", got)
	}
	if g.Requests() != n {
		t.Errorf("Requests = %d, want %d", g.Requests(), n)
	}
	p := l.Flush(k.Now())
	if uint64(len(p.GatewayAttrs)) != g.Attributed() {
		t.Fatalf("%d attribute records spooled for %d attributed requests", len(p.GatewayAttrs), g.Attributed())
	}
	endUsers := map[job.Sym]bool{}
	for _, a := range p.GatewayAttrs {
		endUsers[a.GatewayUser] = true
	}
	if len(endUsers) != 100 {
		t.Errorf("attribute records name %d end users, want 100", len(endUsers))
	}
}

func TestZeroCoverageEmitsNothing(t *testing.T) {
	k := des.New()
	sub := &captureSubmitter{}
	syms := job.NewSymbols()
	l := accounting.NewLedger("s", syms)
	g, err := New("g", "acct", "proj", "f", 0, k, syms, simrand.New(1), sub, l)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		g.Request("u", mkJob(syms, int64(i)))
	}
	if g.Attributed() != 0 {
		t.Errorf("Attributed = %d at zero coverage", g.Attributed())
	}
	if l.Pending() != 0 {
		t.Error("attribute records spooled at zero coverage")
	}
	// Jobs still tagged as gateway submissions (that attribute is free).
	if syms.Str(sub.jobs[0].Attr.GatewayID) != "g" || sub.jobs[0].Attr.GatewayUser != job.SymNone {
		t.Errorf("attribute state wrong: %+v", sub.jobs[0].Attr)
	}
}
