package job

import (
	"math"
	"testing"
)

func TestPoolReusesReleasedJobs(t *testing.T) {
	var p Pool
	a, b := p.Get(), p.Get()
	if a == b || p.Made() != 2 {
		t.Fatalf("two Gets from an empty pool: same object %v, made %d", a == b, p.Made())
	}
	*a = *valid()
	p.Put(a)
	p.Put(b)
	// LIFO: the last job released is the first reused, and it comes back
	// zero, not with the released values.
	if got := p.Get(); got != b || *got != (Job{}) {
		t.Errorf("Get after Put = %p %+v, want %p zeroed", got, *got, b)
	}
	if got := p.Get(); got != a || *got != (Job{}) {
		t.Errorf("second Get = %p %+v, want %p zeroed", got, *got, a)
	}
	if p.Made() != 2 {
		t.Errorf("made %d after reuse, want 2", p.Made())
	}
	p.Drop()
	if got := p.Get(); got == a || got == b || p.Made() != 3 {
		t.Errorf("Get after Drop reused a dropped job (made %d)", p.Made())
	}
}

func TestPoolPutOverwritesJob(t *testing.T) {
	var p Pool
	syms := NewSymbols()
	j := p.Get()
	*j = *valid()
	j.Attr.GatewayUser = syms.Intern("someone")
	j.StartTime, j.EndTime = 10, 20
	p.Put(j)
	if j.ID != releasedID || j.Cores >= 0 || j.Preemptions >= 0 || j.InputBytes >= 0 {
		t.Errorf("released job keeps live values: ID %d, cores %d, preemptions %d, input %d",
			j.ID, j.Cores, j.Preemptions, j.InputBytes)
	}
	for name, v := range map[string]float64{
		"run": float64(j.RunTime), "walltime": float64(j.ReqWalltime), "submit": float64(j.SubmitTime),
		"start": float64(j.StartTime), "end": float64(j.EndTime), "wasted": j.WastedCoreSeconds,
	} {
		if !math.IsNaN(v) {
			t.Errorf("released job's %s is %v, want NaN", name, v)
		}
	}
	if j.Validate() == nil {
		t.Error("a released job validates")
	}
	if j.State.Terminal() || j.State.Sym() != SymUnknown || j.QOS.Sym() != SymUnknown {
		t.Errorf("released job has a real state %v or QOS %v", j.State, j.QOS)
	}
	for _, s := range []Sym{j.Name, j.User, j.Project, j.Site, j.Machine, j.Queue,
		j.Attr.SubmitVia, j.Attr.GatewayID, j.Attr.GatewayUser, j.Attr.WorkflowID,
		j.Attr.WorkflowEngine, j.Attr.EnsembleID, j.Attr.BrokerJobID, j.Attr.CoAllocID,
		j.Attr.ScienceField, j.Truth.Modality, j.Truth.CampaignID} {
		func() {
			defer func() { recover() }()
			t.Errorf("a released job's Sym %d reads as %q", s, syms.Str(s))
		}()
	}
}

func TestPoolDoublePutPanics(t *testing.T) {
	var p Pool
	j := p.Get()
	*j = *valid()
	p.Put(j)
	defer func() {
		if recover() == nil {
			t.Error("a job released twice did not panic")
		}
	}()
	p.Put(j)
}
