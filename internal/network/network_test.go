package network

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/tgsim/tgmod/internal/des"
)

// topo builds a 3-site star with generous 10 Gb/s access links and zero
// latency (so transfer times are pure bandwidth effects in tests).
func topo(t *testing.T) *Topology {
	t.Helper()
	tp := NewTopology()
	for _, s := range []string{"a", "b", "c"} {
		if err := tp.AddSite(s, 10); err != nil {
			t.Fatal(err)
		}
	}
	tp.SetRTT("a", "b", 0)
	tp.SetRTT("a", "c", 0)
	tp.SetRTT("b", "c", 0)
	return tp
}

func TestAddSiteErrors(t *testing.T) {
	tp := NewTopology()
	if err := tp.AddSite("a", 0); err == nil {
		t.Error("zero-bandwidth site accepted")
	}
	if err := tp.AddSite("a", 10); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSite("a", 10); err == nil {
		t.Error("duplicate site accepted")
	}
}

func TestRTTDefaults(t *testing.T) {
	tp := NewTopology()
	if got := tp.RTT("x", "x"); got != 0 {
		t.Errorf("intra-site RTT = %v, want 0", got)
	}
	if got := tp.RTT("x", "y"); got != 0.04 {
		t.Errorf("default RTT = %v, want 0.04", got)
	}
	tp.SetRTT("x", "y", 0.1)
	if tp.RTT("y", "x") != 0.1 {
		t.Error("RTT not symmetric")
	}
}

func TestSingleTransferSaturatesLink(t *testing.T) {
	k := des.New()
	f := NewFabric(k, topo(t))
	// 10 Gb/s = 1.25e9 B/s. 1.25 GB should take 1 s at link speed, but the
	// per-stream TCP cap is infinite at RTT 0, so the link is the limit.
	var done *Transfer
	_, err := f.Start("a", "b", 1_250_000_000, 4, func(tr *Transfer) { done = tr })
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if done == nil {
		t.Fatal("transfer did not complete")
	}
	if math.Abs(float64(done.Duration())-1) > 1e-6 {
		t.Errorf("duration = %v, want 1s", done.Duration())
	}
	if f.Completed() != 1 {
		t.Errorf("Completed = %d, want 1", f.Completed())
	}
}

func TestFairSharing(t *testing.T) {
	k := des.New()
	f := NewFabric(k, topo(t))
	// Two equal flows leaving site a: each gets half the egress link, so
	// each 1.25 GB transfer takes 2 s.
	var ends []des.Time
	for i := 0; i < 2; i++ {
		if _, err := f.Start("a", "b", 1_250_000_000, 1, func(tr *Transfer) {
			ends = append(ends, tr.EndedAt)
		}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	if len(ends) != 2 {
		t.Fatal("transfers did not complete")
	}
	for _, e := range ends {
		if math.Abs(float64(e)-2) > 1e-6 {
			t.Errorf("end = %v, want 2s under fair sharing", e)
		}
	}
}

func TestDistinctDestinationsShareEgressOnly(t *testing.T) {
	k := des.New()
	f := NewFabric(k, topo(t))
	// a→b and a→c share a's egress; ingress links are uncontended. Each
	// gets half of a's egress.
	var ends []des.Time
	for _, dst := range []string{"b", "c"} {
		if _, err := f.Start("a", dst, 625_000_000, 1, func(tr *Transfer) {
			ends = append(ends, tr.EndedAt)
		}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	for _, e := range ends {
		if math.Abs(float64(e)-1) > 1e-6 {
			t.Errorf("end = %v, want 1s (half of 10 Gb/s each)", e)
		}
	}
}

func TestEarlyFinisherReleasesBandwidth(t *testing.T) {
	k := des.New()
	f := NewFabric(k, topo(t))
	// Flow 1: 0.625 GB, flow 2: 1.25 GB, both a→b. Phase 1: both at
	// 0.625 GB/s; flow 1 done at t=1 having moved 0.625. Flow 2 has 0.625
	// left, now at full 1.25 GB/s → finishes at 1.5.
	var end2 des.Time
	if _, err := f.Start("a", "b", 625_000_000, 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Start("a", "b", 1_250_000_000, 1, func(tr *Transfer) { end2 = tr.EndedAt }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if math.Abs(float64(end2)-1.5) > 1e-6 {
		t.Errorf("large flow end = %v, want 1.5s", end2)
	}
}

func TestStreamCapLimits(t *testing.T) {
	k := des.New()
	tp := topo(t)
	tp.SetRTT("a", "b", 0.04) // 1 stream cap = 4MiB/0.04 = 104.86 MB/s
	f := NewFabric(k, tp)
	var tr1 *Transfer
	if _, err := f.Start("a", "b", 104_857_600, 1, func(tr *Transfer) { tr1 = tr }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if tr1 == nil {
		t.Fatal("no completion")
	}
	// 100 MiB at 104.86 MB/s ≈ 1 s (plus 3*RTT setup).
	want := 104_857_600.0/(4*1024*1024/0.04) + 3*0.04
	if math.Abs(float64(tr1.Duration())-want) > 0.01 {
		t.Errorf("duration = %v, want ~%v (stream-capped)", tr1.Duration(), want)
	}
	// Striping with 8 streams should be ~8x faster (still under link cap).
	k2 := des.New()
	f2 := NewFabric(k2, tp)
	var tr8 *Transfer
	if _, err := f2.Start("a", "b", 104_857_600, 8, func(tr *Transfer) { tr8 = tr }); err != nil {
		t.Fatal(err)
	}
	k2.Run()
	if tr8.Duration() >= tr1.Duration() {
		t.Errorf("striped duration %v not faster than single-stream %v", tr8.Duration(), tr1.Duration())
	}
}

func TestIntraSiteTransfer(t *testing.T) {
	k := des.New()
	f := NewFabric(k, topo(t))
	var done bool
	if _, err := f.Start("a", "a", 2_000_000_000, 1, func(*Transfer) { done = true }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !done {
		t.Fatal("intra-site transfer did not complete")
	}
	if k.Now() != 1 { // 2 GB at 2 GB/s
		t.Errorf("intra-site copy took %v, want 1s", k.Now())
	}
}

func TestStartErrors(t *testing.T) {
	k := des.New()
	f := NewFabric(k, topo(t))
	if _, err := f.Start("a", "b", 0, 1, nil); err == nil {
		t.Error("zero-byte transfer accepted")
	}
	if _, err := f.Start("nowhere", "b", 1, 1, nil); err == nil {
		t.Error("unknown source accepted")
	}
	if _, err := f.Start("a", "nowhere", 1, 1, nil); err == nil {
		t.Error("unknown destination accepted")
	}
}

// outOfOrderFabric starts three transfers on disjoint links whose RTTs
// make them join in ID order 2, 3, 1, sized so that at full link speed
// (1.25 GB/s) all three finish at t = 1.3 s.
func outOfOrderFabric(t *testing.T, scale int64) (*des.Kernel, *Fabric) {
	t.Helper()
	tp := topo(t)
	tp.SetRTT("a", "b", 0.1)  // joins at 0.3 s
	tp.SetRTT("b", "c", 0.05) // joins at 0.15 s
	k := des.New()
	f := NewFabric(k, tp)
	for _, x := range []struct {
		src, dst string
		bytes    int64
	}{{"a", "b", 1_250_000_000}, {"c", "a", 1_625_000_000}, {"b", "c", 1_437_500_000}} {
		if _, err := f.Start(x.src, x.dst, scale*x.bytes, 200, nil); err != nil {
			t.Fatal(err)
		}
	}
	return k, f
}

func TestOutOfOrderJoinsCompleteInIDOrder(t *testing.T) {
	k, f := outOfOrderFabric(t, 1)
	var ids []int64
	var ends []des.Time
	f.OnComplete = append(f.OnComplete, func(tr *Transfer) {
		ids = append(ids, tr.ID)
		ends = append(ends, tr.EndedAt)
	})
	k.Run()
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("OnComplete order %v, want [1 2 3]", ids)
	}
	for _, e := range ends {
		if e != ends[0] || math.Abs(float64(e)-1.3) > 1e-6 {
			t.Fatalf("ends %v, want all at the same instant 1.3 s", ends)
		}
	}
}

func TestAbortSiteVictimsInIDOrder(t *testing.T) {
	k, f := outOfOrderFabric(t, 100)
	// Two observers on each lifecycle hook: both must fire, in append order.
	var log []string
	for _, who := range []string{"x", "y"} {
		f.OnStart = append(f.OnStart, func(tr *Transfer) { log = append(log, fmt.Sprintf("start:%s:%d", who, tr.ID)) })
		f.OnComplete = append(f.OnComplete, func(tr *Transfer) { log = append(log, fmt.Sprintf("done:%s:%d", who, tr.ID)) })
		f.OnAbort = append(f.OnAbort, func(tr *Transfer) { log = append(log, fmt.Sprintf("abort:%s:%d", who, tr.ID)) })
	}
	k.RunUntil(1) // all three joined, none finished
	victims := f.AbortSite("a")
	if len(victims) != 2 || victims[0].ID != 1 || victims[1].ID != 2 {
		t.Fatalf("victims %v, want transfers 1 and 2", victims)
	}
	if f.Active() != 1 || f.active[0].ID != 3 || f.Aborted() != 2 {
		t.Errorf("after abort: %d active, %d aborted; want transfer 3 left", f.Active(), f.Aborted())
	}
	if _, err := f.Restart(victims[0]); err != nil {
		t.Fatal(err)
	}
	k.Run()
	want := []string{"abort:x:1", "abort:y:1", "abort:x:2", "abort:y:2",
		"start:x:4", "start:y:4", "done:x:4", "done:y:4", "done:x:3", "done:y:3"}
	if !slices.Equal(log, want) {
		t.Errorf("hook calls %v, want %v", log, want)
	}
}

func TestManyFlowsConservation(t *testing.T) {
	k := des.New()
	f := NewFabric(k, topo(t))
	const n = 20
	const each = 100_000_000
	var completed int
	for i := 0; i < n; i++ {
		src, dst := "a", "b"
		if i%3 == 1 {
			src, dst = "b", "c"
		} else if i%3 == 2 {
			src, dst = "c", "a"
		}
		at := des.Time(i) * 0.1
		k.At(at, func(*des.Kernel) {
			if _, err := f.Start(src, dst, each, 2, func(*Transfer) { completed++ }); err != nil {
				t.Error(err)
			}
		})
	}
	k.Run()
	if completed != n {
		t.Fatalf("completed %d of %d transfers", completed, n)
	}
	if math.Abs(f.BytesMoved()-n*each) > n {
		t.Errorf("BytesMoved = %v, want %v", f.BytesMoved(), n*each)
	}
	if f.Active() != 0 {
		t.Errorf("Active = %d at end, want 0", f.Active())
	}
}

func TestBackboneBottleneck(t *testing.T) {
	k := des.New()
	tp := topo(t)
	tp.SetBackbone(10) // backbone equals one access link
	f := NewFabric(k, tp)
	// Two flows on disjoint site pairs: a→b and b→c. Without a backbone
	// they would each run at 10 Gb/s; sharing a 10 Gb/s core halves them.
	var ends []des.Time
	for _, pair := range [][2]string{{"a", "b"}, {"b", "c"}} {
		if _, err := f.Start(pair[0], pair[1], 1_250_000_000, 1, func(tr *Transfer) {
			ends = append(ends, tr.EndedAt)
		}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	if len(ends) != 2 {
		t.Fatal("transfers did not complete")
	}
	for _, e := range ends {
		if math.Abs(float64(e)-2) > 1e-6 {
			t.Errorf("end = %v, want 2s (backbone-shared)", e)
		}
	}
	// Removing the backbone restores full speed.
	tp.SetBackbone(0)
	k2 := des.New()
	f2 := NewFabric(k2, tp)
	var end des.Time
	if _, err := f2.Start("a", "b", 1_250_000_000, 1, func(tr *Transfer) { end = tr.EndedAt }); err != nil {
		t.Fatal(err)
	}
	k2.Run()
	if math.Abs(float64(end)-1) > 1e-6 {
		t.Errorf("end = %v, want 1s without backbone", end)
	}
}
