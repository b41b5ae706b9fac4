package users

import (
	"strings"
	"testing"

	"github.com/tgsim/tgmod/internal/simrand"
)

func TestRoleString(t *testing.T) {
	names := map[Role]string{
		RolePI: "pi", RoleResearcher: "researcher", RoleStudent: "student",
		RoleGatewayEndUser: "gateway-end-user", Role(9): "role(9)",
	}
	for r, want := range names {
		if r.String() != want {
			t.Errorf("Role(%d) = %q, want %q", int(r), r.String(), want)
		}
	}
}

func TestFieldsConsistent(t *testing.T) {
	if len(Fields) != len(FieldWeights) {
		t.Fatalf("Fields (%d) and FieldWeights (%d) length mismatch", len(Fields), len(FieldWeights))
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a, err := Synthesize(cfg, simrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(cfg, simrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Users) != len(b.Users) {
		t.Fatalf("non-deterministic population size: %d vs %d", len(a.Users), len(b.Users))
	}
	for i := range a.Users {
		if a.Users[i].Name != b.Users[i].Name || a.Users[i].Activity != b.Users[i].Activity {
			t.Fatalf("user %d differs between runs", i)
		}
	}
}

func TestSynthesizeStructure(t *testing.T) {
	cfg := DefaultConfig()
	p, err := Synthesize(cfg, simrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Projects) != cfg.Projects {
		t.Errorf("projects = %d, want %d", len(p.Projects), cfg.Projects)
	}
	if len(p.Users) < cfg.Projects {
		t.Errorf("users (%d) fewer than projects (%d)", len(p.Users), cfg.Projects)
	}
	for _, proj := range p.Projects {
		if !strings.HasPrefix(proj, "TG-") {
			t.Errorf("project id %q lacks TG- prefix", proj)
		}
		team := p.byProj[proj]
		if len(team) == 0 {
			t.Errorf("project %s has no team", proj)
		}
		pi, ok := p.PI(proj)
		if !ok || pi.Role != RolePI {
			t.Errorf("project %s has no PI", proj)
		}
		for _, u := range team {
			if u.Project != proj {
				t.Errorf("user %s in wrong team", u.Name)
			}
			if u.Activity < 1 {
				t.Errorf("activity %v < Pareto minimum 1", u.Activity)
			}
		}
	}
	if _, ok := p.PI("no-such-project"); ok {
		t.Error("PI of missing project found")
	}
}

func TestSynthesizeErrors(t *testing.T) {
	if _, err := Synthesize(Config{Projects: 0, ActivityAlpha: 1}, simrand.New(1)); err == nil {
		t.Error("zero projects accepted")
	}
	if _, err := Synthesize(Config{Projects: 5, ActivityAlpha: 0}, simrand.New(1)); err == nil {
		t.Error("zero alpha accepted")
	}
}

func TestWeightedPickFavorsActive(t *testing.T) {
	heavy := &User{Name: "heavy", Activity: 100}
	light := &User{Name: "light", Activity: 1}
	w, err := NewWeightedPick([]*User{heavy, light})
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(3)
	heavyCount := 0
	const draws = 10000
	for i := 0; i < draws; i++ {
		if w.Pick(rng) == 0 { // heavy
			heavyCount++
		}
	}
	frac := float64(heavyCount) / draws
	if frac < 0.97 || frac > 1.0 {
		t.Errorf("heavy user picked %v of draws, want ~0.99", frac)
	}
	if _, err := NewWeightedPick(nil); err == nil {
		t.Error("empty user set accepted")
	}
}

func TestFieldCode(t *testing.T) {
	cases := map[string]string{
		"molecular-biosciences": "MBX",
		"physics":               "PXX",
		"earth-sciences":        "ESX",
	}
	for in, want := range cases {
		if got := fieldCode(in); got != want {
			t.Errorf("fieldCode(%q) = %q, want %q", in, got, want)
		}
	}
}
