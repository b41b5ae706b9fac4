package grid

import (
	"strings"
	"testing"
)

func machine(id, site string) *Machine {
	return &Machine{
		ID: id, Site: site, Nodes: 100, CoresPerNode: 8,
		NUPerCoreHour: 1.5,
	}
}

func TestMachineDerived(t *testing.T) {
	m := machine("m1", "s1")
	m.VizNodes = 10
	if got := m.TotalCores(); got != 800 {
		t.Errorf("TotalCores = %d, want 800", got)
	}
	if got := m.BatchCores(); got != 720 {
		t.Errorf("BatchCores = %d, want 720", got)
	}
	if got := m.VizCores(); got != 80 {
		t.Errorf("VizCores = %d, want 80", got)
	}
	// 3600 core-seconds = 1 core-hour = 1.5 NU on this machine.
	if got := m.NUs(3600); got != 1.5 {
		t.Errorf("NUs(3600) = %v, want 1.5", got)
	}
}

func TestMachineValidate(t *testing.T) {
	bad := []*Machine{
		{},
		{ID: "x"},
		{ID: "x", Site: "s", Nodes: 0, CoresPerNode: 8},
		{ID: "x", Site: "s", Nodes: 4, CoresPerNode: 8, VizNodes: 4, NUPerCoreHour: 1},
		{ID: "x", Site: "s", Nodes: 4, CoresPerNode: 8, NUPerCoreHour: 0},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid machine %+v", i, m)
		}
	}
	if err := machine("ok", "s").Validate(); err != nil {
		t.Errorf("valid machine rejected: %v", err)
	}
}

func TestSiteValidate(t *testing.T) {
	s := &Site{ID: "s1", WANGbps: 10, Machines: []*Machine{machine("m1", "s1")}}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid site rejected: %v", err)
	}
	s2 := &Site{ID: "s2", WANGbps: 10, Machines: []*Machine{machine("m1", "other")}}
	if err := s2.Validate(); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Errorf("site/machine mismatch not caught: %v", err)
	}
	s3 := &Site{ID: "s3", WANGbps: 10}
	if err := s3.Validate(); err == nil {
		t.Error("empty site accepted")
	}
	s4 := &Site{ID: "s4", Machines: []*Machine{machine("m2", "s4")}}
	if err := s4.Validate(); err == nil {
		t.Error("site without WAN bandwidth accepted")
	}
}

func TestFederation(t *testing.T) {
	s1 := &Site{ID: "s1", WANGbps: 10, Machines: []*Machine{machine("big", "s1")}}
	s2 := &Site{ID: "s2", WANGbps: 10, Machines: []*Machine{machine("alpha", "s2"), machine("beta", "s2")}}
	f, err := NewFederation("test", s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if f.TotalCores() != 2400 {
		t.Errorf("TotalCores = %d, want 2400", f.TotalCores())
	}
	ms := f.Machines()
	if len(ms) != 3 || ms[0].ID != "alpha" || ms[1].ID != "beta" || ms[2].ID != "big" {
		t.Errorf("Machines not sorted deterministically: %v", ids(ms))
	}
}

func ids(ms []*Machine) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.ID
	}
	return out
}

func TestFederationDuplicates(t *testing.T) {
	s1 := &Site{ID: "s1", WANGbps: 10, Machines: []*Machine{machine("m", "s1")}}
	s2 := &Site{ID: "s2", WANGbps: 10, Machines: []*Machine{machine("m", "s2")}}
	if _, err := NewFederation("dup", s1, s2); err == nil {
		t.Error("duplicate machine IDs accepted")
	}
	s3 := &Site{ID: "s1", WANGbps: 10, Machines: []*Machine{machine("m2", "s1")}}
	if _, err := NewFederation("dup2", s1, s3); err == nil {
		t.Error("duplicate site IDs accepted")
	}
	if _, err := NewFederation("empty"); err == nil {
		t.Error("empty federation accepted")
	}
}

func TestLargestMachine(t *testing.T) {
	big := &Machine{ID: "kraken", Site: "s1", Nodes: 1000, CoresPerNode: 12, NUPerCoreHour: 2}
	small := machine("small", "s1")
	s := &Site{ID: "s1", WANGbps: 10, Machines: []*Machine{small, big}}
	f, err := NewFederation("t", s)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.LargestMachine(); got != big {
		t.Errorf("LargestMachine = %v, want kraken", got.ID)
	}
}
