package network

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/simrand"
)

// referenceRates is the progressive-filling solver the fabric used while
// it kept its flows in a map: it sorts a copy of the active flows by ID,
// keys link state by *Link in maps, and returns every flow's rate without
// touching the fabric. reshare must reproduce it bit for bit.
func referenceRates(f *Fabric) map[*Transfer]float64 {
	unfixed := append([]*Transfer(nil), f.active...)
	sort.Slice(unfixed, func(i, j int) bool { return unfixed[i].ID < unfixed[j].ID })
	rate := make(map[*Transfer]float64)
	remCap := make(map[*Link]float64)
	flowsOn := make(map[*Link][]*Transfer)
	for _, tr := range unfixed {
		rate[tr] = 0
		for _, l := range tr.links {
			flowsOn[l] = append(flowsOn[l], tr)
			remCap[l] = l.Bps * f.scaleOf(l)
		}
	}
	fixed := make(map[*Transfer]bool)
	for len(fixed) < len(unfixed) {
		var bottleneck *Link
		share := math.Inf(1)
		for l, flows := range flowsOn {
			n := 0
			for _, tr := range flows {
				if !fixed[tr] {
					n++
				}
			}
			if n == 0 {
				continue
			}
			s := remCap[l] / float64(n)
			if s < share || (s == share && (bottleneck == nil || l.ID < bottleneck.ID)) {
				share = s
				bottleneck = l
			}
		}
		if bottleneck == nil {
			break
		}
		capped := false
		for _, tr := range unfixed {
			if fixed[tr] {
				continue
			}
			if c := f.streamCap(tr); c < share {
				rate[tr] = c
				fixed[tr] = true
				for _, l := range tr.links {
					remCap[l] -= c
				}
				capped = true
			}
		}
		if capped {
			continue
		}
		for _, tr := range flowsOn[bottleneck] {
			if fixed[tr] {
				continue
			}
			rate[tr] = share
			fixed[tr] = true
			for _, l := range tr.links {
				remCap[l] -= share
			}
		}
	}
	return rate
}

// TestReshareMatchesReference checks, after every kernel event of random
// fabrics, that every active flow's rate equals the reference solver's
// bit for bit, and that the active list stays in ascending ID order.
func TestReshareMatchesReference(t *testing.T) {
	var checked int
	prop := func(seed uint64) bool {
		k, f := randomFabric(simrand.New(seed))
		for steps := 0; k.Step(); steps++ {
			if steps > 100_000 {
				t.Logf("seed %d: fabric still busy after %d events", seed, steps)
				return false
			}
			want := referenceRates(f)
			for i, tr := range f.active {
				if i > 0 && f.active[i-1].ID >= tr.ID {
					t.Logf("seed %d at %v: active flow %d follows %d", seed, k.Now(), tr.ID, f.active[i-1].ID)
					return false
				}
				if math.Float64bits(tr.rate) != math.Float64bits(want[tr]) {
					t.Logf("seed %d at %v: transfer %d rate %v, reference %v", seed, k.Now(), tr.ID, tr.rate, want[tr])
					return false
				}
				checked++
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no active flow was checked")
	}
	t.Logf("checked %d rates against the reference", checked)
}

// TestBottleneckTieBreak builds a tie that progressive filling must break
// by link ID: a-out and b-in each carry three flows at the same fair share
// and share one flow, so whichever is filled first leaves the other's
// flows a share that differs from it by float rounding.
func TestBottleneckTieBreak(t *testing.T) {
	tp := NewTopology()
	sites := []string{"a", "b", "c", "d", "e"}
	for i, s := range sites {
		if err := tp.AddSite(s, 10); err != nil {
			t.Fatal(err)
		}
		for _, o := range sites[i+1:] {
			tp.SetRTT(s, o, 0)
		}
	}
	k := des.New()
	f := NewFabric(k, tp)
	for _, p := range [][2]string{{"a", "b"}, {"a", "c"}, {"a", "d"}, {"e", "b"}, {"c", "b"}} {
		if _, err := f.Start(p[0], p[1], 1e12, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	k.RunUntil(1)
	want := referenceRates(f)
	for _, tr := range f.active {
		if math.Float64bits(tr.rate) != math.Float64bits(want[tr]) {
			t.Errorf("transfer %d rate %v, reference %v", tr.ID, tr.rate, want[tr])
		}
	}
	if f.active[1].rate == f.active[3].rate {
		t.Fatalf("a-out's and b-in's second flows both run at %v: the tie is not observable", f.active[1].rate)
	}
}
