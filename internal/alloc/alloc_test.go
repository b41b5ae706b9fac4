package alloc

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/tgsim/tgmod/internal/simrand"
)

func TestAwardAndLookup(t *testing.T) {
	b := NewBank()
	p, err := b.Award("TG-MCA001", "smith", "astronomy", 1e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Remaining() != 1e6 || p.Exhausted() {
		t.Errorf("fresh project: remaining %v exhausted %v", p.Remaining(), p.Exhausted())
	}
	if got, ok := b.Project("TG-MCA001"); !ok || got != p {
		t.Error("Project lookup failed")
	}
	if _, ok := b.Project("nope"); ok {
		t.Error("lookup of missing project succeeded")
	}
	// PI is automatically a project user.
	if u := p.Users(); len(u) != 1 || u[0] != "smith" {
		t.Errorf("Users = %v, want [smith]", u)
	}
}

func TestAwardErrors(t *testing.T) {
	b := NewBank()
	if _, err := b.Award("", "pi", "f", 1, 0); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := b.Award("p", "", "f", 1, 0); err == nil {
		t.Error("empty PI accepted")
	}
	if _, err := b.Award("p", "pi", "f", 0, 0); err == nil {
		t.Error("zero award accepted")
	}
	if _, err := b.Award("p", "pi", "f", 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Award("p", "pi", "f", 1, 0); err == nil {
		t.Error("duplicate project accepted")
	}
}

func TestChargeAndExhaustion(t *testing.T) {
	b := NewBank()
	if _, err := b.Award("p", "pi", "f", 100, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Charge("p", 60); err != nil {
		t.Fatal(err)
	}
	// Overdraft allowed but reported.
	err := b.Charge("p", 60)
	if !errors.Is(err, ErrExhausted) {
		t.Errorf("overdraft not reported: %v", err)
	}
	p, _ := b.Project("p")
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

func TestRefund(t *testing.T) {
	b := NewBank()
	if _, err := b.Award("p", "pi", "f", 100, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Charge("p", 50); err != nil {
		t.Fatal(err)
	}
	if err := b.Refund("p", 20); err != nil {
		t.Fatal(err)
	}
	p, _ := b.Project("p")
	if p.Remaining() != 70 {
		t.Errorf("Remaining after refund = %v, want 70", p.Remaining())
	}
	if err := b.Refund("p", 40); err == nil {
		t.Error("refund beyond charges accepted")
	}
	if err := b.Refund("none", 1); err == nil {
		t.Error("refund to missing project accepted")
	}
	if err := b.Refund("p", -1); err == nil {
		t.Error("negative refund accepted")
	}
}

func TestSupplementAndUsers(t *testing.T) {
	b := NewBank()
	if _, err := b.Award("p", "pi", "f", 100, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Supplement("p", 50); err != nil {
		t.Fatal(err)
	}
	p, _ := b.Project("p")
	if p.Remaining() != 150 {
		t.Errorf("Remaining after supplement = %v, want 150", p.Remaining())
	}
	if err := b.Supplement("p", 0); err == nil {
		t.Error("zero supplement accepted")
	}
	if err := b.Supplement("none", 1); err == nil {
		t.Error("supplement to missing project accepted")
	}
	if err := b.AddUser("p", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddUser("none", "bob"); err == nil {
		t.Error("AddUser to missing project accepted")
	}
	users := p.Users()
	if len(users) != 2 || users[0] != "bob" || users[1] != "pi" {
		t.Errorf("Users = %v", users)
	}
}

func TestBankAggregates(t *testing.T) {
	b := NewBank()
	for i, nus := range []float64{100, 200, 300} {
		id := string(rune('a' + i))
		if _, err := b.Award(id, "pi", "f", nus, 0); err != nil {
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

// TestConservation: for any sequence of awards/charges/refunds the bank
// balances: remaining = awarded - used + refunded, and refunds ≤ charges.
func TestConservation(t *testing.T) {
	f := func(seed uint64) bool {
		r := simrand.New(seed)
		b := NewBank()
		const n = 5
		awarded := make([]float64, n)
		for i := 0; i < n; i++ {
			awarded[i] = float64(100 + r.Intn(1000))
			if _, err := b.Award(string(rune('a'+i)), "pi", "f", awarded[i], 0); err != nil {
				return false
			}
		}
		for op := 0; op < 200; op++ {
			id := string(rune('a' + r.Intn(n)))
			amt := float64(r.Intn(50))
			if r.Bool(0.7) {
				_ = b.Charge(id, amt) // overdraft errors are fine
			} else {
				_ = b.Refund(id, amt) // over-refund errors are rejected internally
			}
		}
		for i, p := range b.Projects() {
			if p.AwardedNUs != awarded[i] {
				return false
			}
			if p.Remaining() > p.AwardedNUs {
				return false // refunds exceeded charges
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
