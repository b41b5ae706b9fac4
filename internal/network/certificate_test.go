package network

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/simrand"
)

// certTol is the relative slack the max-min certificate allows for float
// rounding in progressive filling's running capacity sums.
const certTol = 1e-9

// certificate counts which clause certified each checked flow.
type certificate struct {
	atCap, atBottleneck int
}

// check verifies that f's current rates are max-min fair:
//   - no link carries more than Bps × scaleOf;
//   - no flow runs faster than its stream cap;
//   - every flow is at its stream cap, or crosses a saturated link on
//     which no flow runs faster than it.
func (c *certificate) check(f *Fabric) error {
	load := make(map[*Link]float64)
	top := make(map[*Link]float64)
	for _, tr := range f.active {
		for _, l := range tr.links {
			load[l] += tr.rate
			top[l] = math.Max(top[l], tr.rate)
		}
	}
	capOf := func(l *Link) float64 { return l.Bps * f.scaleOf(l) }
	for l, u := range load {
		if u > capOf(l)*(1+certTol) {
			return fmt.Errorf("link %s carries %g B/s over its %g capacity", l.ID, u, capOf(l))
		}
	}
	for _, tr := range f.active {
		rateCap := f.streamCap(tr)
		if tr.rate < -certTol*tr.links[0].Bps || tr.rate > rateCap*(1+certTol) {
			return fmt.Errorf("transfer %d: rate %g outside [0, stream cap %g]", tr.ID, tr.rate, rateCap)
		}
		if tr.rate >= rateCap*(1-certTol) {
			c.atCap++
			continue
		}
		bottleneck := false
		for _, l := range tr.links {
			saturated := load[l] >= capOf(l)-certTol*l.Bps
			if saturated && tr.rate >= top[l]-certTol*l.Bps {
				bottleneck = true
				break
			}
		}
		if !bottleneck {
			return fmt.Errorf("transfer %d at %g B/s is below its stream cap %g and has no bottleneck link",
				tr.ID, tr.rate, rateCap)
		}
		c.atBottleneck++
	}
	return nil
}

// randomFabric builds a random star topology — 2 to 6 sites with access
// links of 1 to 40 Gb/s, an optional backbone, and RTTs that make stream
// caps bind on some paths and vanish on others — and arms random
// transfers plus degradation, partition and restore windows on its kernel.
func randomFabric(r *simrand.Stream) (*des.Kernel, *Fabric) {
	tp := NewTopology()
	sites := make([]string, 2+r.Intn(5))
	for i := range sites {
		sites[i] = fmt.Sprintf("s%d", i)
		_ = tp.AddSite(sites[i], 1+39*r.Float64())
	}
	if r.Bool(0.5) {
		tp.SetBackbone(1 + 59*r.Float64())
	}
	for i := range sites {
		for j := i + 1; j < len(sites); j++ {
			if r.Bool(0.5) {
				tp.SetRTT(sites[i], sites[j], 0.2*r.Float64())
			}
		}
	}
	k := des.New()
	f := NewFabric(k, tp)
	for i := 0; i < 1+r.Intn(30); i++ {
		src, dst := sites[r.Intn(len(sites))], sites[r.Intn(len(sites))]
		bytes := int64(1e6 + r.Float64()*5e10)
		streams := 1 + r.Intn(8)
		k.At(des.Time(100*r.Float64()), func(*des.Kernel) { _, _ = f.Start(src, dst, bytes, streams, nil) })
	}
	for i := 0; i < r.Intn(6); i++ {
		site := sites[r.Intn(len(sites))]
		factor := 0.0
		if r.Bool(0.7) {
			factor = 0.05 + 0.9*r.Float64()
		}
		at := des.Time(120 * r.Float64())
		k.At(at, func(*des.Kernel) { _ = f.SetSiteDegraded(site, factor) })
		k.At(at+des.Time(60*r.Float64()), func(*des.Kernel) { _ = f.SetSiteDegraded(site, 1) })
	}
	return k, f
}

// TestMaxMinCertificate checks the max-min certificate after every kernel
// event of random fabrics. Every event that changes the flow set or a
// link's capacity ends in a reshare, so this checks every reshare's rates.
func TestMaxMinCertificate(t *testing.T) {
	var c certificate
	prop := func(seed uint64) bool {
		k, f := randomFabric(simrand.New(seed))
		for steps := 0; k.Step(); steps++ {
			if steps > 100_000 {
				t.Logf("seed %d: fabric still busy after %d events", seed, steps)
				return false
			}
			if err := c.check(f); err != nil {
				t.Logf("seed %d at %v: %v", seed, k.Now(), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Both clauses must have certified flows, or the property is vacuous.
	if c.atCap == 0 || c.atBottleneck == 0 {
		t.Fatalf("certified %d flows at their stream cap and %d at a bottleneck; want both nonzero",
			c.atCap, c.atBottleneck)
	}
	t.Logf("certified %d flows at their stream cap, %d at a bottleneck", c.atCap, c.atBottleneck)
}

// reshareFabric returns a fabric with 64 active flows between 8 sites
// with a shared backbone, every flow past its connection setup.
func reshareFabric(tb testing.TB) *Fabric {
	tp := NewTopology()
	const sites = 8
	for i := 0; i < sites; i++ {
		if err := tp.AddSite(fmt.Sprintf("s%d", i), float64(10*(1+i%3))); err != nil {
			tb.Fatal(err)
		}
	}
	tp.SetBackbone(100)
	k := des.New()
	f := NewFabric(k, tp)
	r := simrand.New(1)
	for i := 0; i < 64; i++ {
		src := r.Intn(sites)
		dst := (src + 1 + r.Intn(sites-1)) % sites
		if _, err := f.Start(fmt.Sprintf("s%d", src), fmt.Sprintf("s%d", dst), 1e15, 1+r.Intn(8), nil); err != nil {
			tb.Fatal(err)
		}
	}
	k.RunUntil(1)
	if f.Active() != 64 {
		tb.Fatalf("%d active flows, want 64", f.Active())
	}
	return f
}

// TestSolverAllocationFree pins a warm reshare and a warm advance at zero
// allocations: the solver works on link and flow fields, and the wake
// handler is bound once.
func TestSolverAllocationFree(t *testing.T) {
	f := reshareFabric(t)
	if n := testing.AllocsPerRun(20, f.reshare); n != 0 {
		t.Errorf("warm reshare: %v allocs, want 0", n)
	}
	advance := func() {
		f.lastAdvance -= 1e-3
		f.advance()
	}
	if n := testing.AllocsPerRun(20, advance); n != 0 {
		t.Errorf("warm advance: %v allocs, want 0", n)
	}
}

// BenchmarkReshare measures one max-min reshare of 64 active flows between
// 8 sites with a shared backbone, the fabric state held fixed.
func BenchmarkReshare(b *testing.B) {
	f := reshareFabric(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.reshare()
	}
}
