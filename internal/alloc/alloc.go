// Package alloc models the allocations process: projects (grants) led by a
// PI, funded with service units that are charged in machine-normalized
// units (NUs) as jobs consume core-hours. Allocation state gates job
// submission — exhausted projects cannot run — and the charge records feed
// the accounting system.
package alloc

import (
	"errors"
	"fmt"
	"sort"
)

// Project is an allocation award.
type Project struct {
	ID           string
	PI           string
	ScienceField string
	AwardedNUs   float64
	usedNUs      float64
}

// Remaining returns the unspent balance in NUs.
func (p *Project) Remaining() float64 { return p.AwardedNUs - p.usedNUs }

// Exhausted reports whether the project has no balance left.
func (p *Project) Exhausted() bool { return p.Remaining() <= 0 }

// Bank manages all projects and charging.
type Bank struct {
	projects map[string]*Project
}

// NewBank returns an empty allocations bank.
func NewBank() *Bank {
	return &Bank{projects: make(map[string]*Project)}
}

// Award creates a project with the given NU balance.
func (b *Bank) Award(id, pi, field string, nus float64) (*Project, error) {
	if id == "" || pi == "" {
		return nil, fmt.Errorf("alloc: award needs project id and PI")
	}
	if nus <= 0 {
		return nil, fmt.Errorf("alloc: project %s: non-positive award %v", id, nus)
	}
	if _, dup := b.projects[id]; dup {
		return nil, fmt.Errorf("alloc: duplicate project %s", id)
	}
	p := &Project{
		ID: id, PI: pi, ScienceField: field, AwardedNUs: nus,
	}
	b.projects[id] = p
	return p, nil
}

// Projects returns all projects sorted by ID.
func (b *Bank) Projects() []*Project {
	out := make([]*Project, 0, len(b.projects))
	for _, p := range b.projects {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ErrExhausted is Charge's report that the charged project has no balance
// left. It is one value, not built per charge: a run overdraws often.
var ErrExhausted = errors.New("alloc: project exhausted")

// Charge debits NUs from a project. Overdraft is permitted for a single
// charge (the job already ran — operational accounting charged the actual
// usage and let the balance go negative), but ErrExhausted tells the
// caller the project is now exhausted.
func (b *Bank) Charge(id string, nus float64) error {
	p, ok := b.projects[id]
	if !ok {
		return fmt.Errorf("alloc: no project %s", id)
	}
	if nus < 0 {
		return fmt.Errorf("alloc: negative charge %v to %s", nus, id)
	}
	p.usedNUs += nus
	if p.Exhausted() {
		return ErrExhausted
	}
	return nil
}

// TotalAwarded and TotalUsed aggregate across the bank.
func (b *Bank) TotalAwarded() float64 {
	// Summed in sorted project order: float addition is not associative, so
	// map-order summation makes the low bits (and any exposition built on
	// them) vary from process to process.
	t := 0.0
	for _, p := range b.Projects() {
		t += p.AwardedNUs
	}
	return t
}

// TotalUsed returns gross NUs charged across all projects.
func (b *Bank) TotalUsed() float64 {
	t := 0.0
	for _, p := range b.Projects() {
		t += p.usedNUs
	}
	return t
}
