package alloc

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/tgsim/tgmod/internal/simrand"
)

func TestAwardAndLookup(t *testing.T) {
	b := NewBank()
	p, err := b.Award("TG-MCA001", "smith", "astronomy", 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if p.Remaining() != 1e6 || p.Exhausted() {
		t.Errorf("fresh project: remaining %v exhausted %v", p.Remaining(), p.Exhausted())
	}
}

func TestAwardErrors(t *testing.T) {
	b := NewBank()
	if _, err := b.Award("", "pi", "f", 1); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := b.Award("p", "", "f", 1); err == nil {
		t.Error("empty PI accepted")
	}
	if _, err := b.Award("p", "pi", "f", 0); err == nil {
		t.Error("zero award accepted")
	}
	if _, err := b.Award("p", "pi", "f", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Award("p", "pi", "f", 1); err == nil {
		t.Error("duplicate project accepted")
	}
}

func TestChargeAndExhaustion(t *testing.T) {
	b := NewBank()
	p, err := b.Award("p", "pi", "f", 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Charge("p", 60); err != nil {
		t.Fatal(err)
	}
	// Overdraft allowed but reported.
	err = b.Charge("p", 60)
	if !errors.Is(err, ErrExhausted) {
		t.Errorf("overdraft not reported: %v", err)
	}
	if !p.Exhausted() {
		t.Error("project should be exhausted")
	}
	if p.Remaining() != -20 {
		t.Errorf("Remaining = %v, want -20", p.Remaining())
	}
	if err := b.Charge("none", 1); err == nil {
		t.Error("charge to missing project accepted")
	}
	if err := b.Charge("p", -1); err == nil {
		t.Error("negative charge accepted")
	}
}

func TestBankAggregates(t *testing.T) {
	b := NewBank()
	for i, nus := range []float64{100, 200, 300} {
		id := string(rune('a' + i))
		if _, err := b.Award(id, "pi", "f", nus); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Charge("a", 10); err != nil {
		t.Fatal(err)
	}
	if err := b.Charge("c", 30); err != nil {
		t.Fatal(err)
	}
	if b.TotalAwarded() != 600 {
		t.Errorf("TotalAwarded = %v", b.TotalAwarded())
	}
	if b.TotalUsed() != 40 {
		t.Errorf("TotalUsed = %v", b.TotalUsed())
	}
	ps := b.Projects()
	if len(ps) != 3 || ps[0].ID != "a" || ps[2].ID != "c" {
		t.Errorf("Projects not sorted: %v", ps)
	}
}

// TestConservation: for any sequence of awards and charges the bank
// balances: remaining = awarded - charged, and never exceeds the award.
func TestConservation(t *testing.T) {
	f := func(seed uint64) bool {
		r := simrand.New(seed)
		b := NewBank()
		const n = 5
		awarded := make([]float64, n)
		for i := 0; i < n; i++ {
			awarded[i] = float64(100 + r.Intn(1000))
			if _, err := b.Award(string(rune('a'+i)), "pi", "f", awarded[i]); err != nil {
				return false
			}
		}
		charged := make([]float64, n)
		for op := 0; op < 200; op++ {
			i := r.Intn(n)
			amt := float64(r.Intn(50))
			_ = b.Charge(string(rune('a'+i)), amt) // overdraft errors are fine
			charged[i] += amt
		}
		for i, p := range b.Projects() {
			if p.AwardedNUs != awarded[i] {
				return false
			}
			if p.Remaining() > p.AwardedNUs || p.Remaining() != awarded[i]-charged[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
