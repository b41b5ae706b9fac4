// Package grid defines the federation topology: sites, machines, and their
// capacity and charging characteristics. It is a pure data model; dynamics
// (scheduling, transfers) live in the sched and network packages.
package grid

import (
	"fmt"
	"sort"
)

// Machine is a compute resource at a site: a homogeneous cluster of nodes.
// NUPerCoreHour is the normalized-unit charging factor that converts
// consumed core-hours on this machine into federation-wide normalized units
// (faster machines charge more NUs per core-hour), which is how the
// TeraGrid accounting system made usage comparable across heterogeneous
// resources.
type Machine struct {
	ID            string
	Site          string
	Nodes         int
	CoresPerNode  int
	NUPerCoreHour float64
	VizNodes      int  // nodes reserved for interactive/visualization use
	UrgentCapable bool // supports preemptive on-demand computing
}

// TotalCores returns the machine's core count including viz nodes.
func (m *Machine) TotalCores() int { return m.Nodes * m.CoresPerNode }

// BatchCores returns the cores available to the batch partition.
func (m *Machine) BatchCores() int { return (m.Nodes - m.VizNodes) * m.CoresPerNode }

// VizCores returns cores in the interactive/visualization partition.
func (m *Machine) VizCores() int { return m.VizNodes * m.CoresPerNode }

// NUs converts core-seconds consumed on this machine to normalized units.
func (m *Machine) NUs(coreSeconds float64) float64 {
	return coreSeconds / 3600 * m.NUPerCoreHour
}

// Validate reports configuration errors.
func (m *Machine) Validate() error {
	switch {
	case m.ID == "":
		return fmt.Errorf("machine: missing id")
	case m.Site == "":
		return fmt.Errorf("machine %s: missing site", m.ID)
	case m.Nodes <= 0 || m.CoresPerNode <= 0:
		return fmt.Errorf("machine %s: non-positive size %dx%d", m.ID, m.Nodes, m.CoresPerNode)
	case m.VizNodes < 0 || m.VizNodes >= m.Nodes:
		return fmt.Errorf("machine %s: viz nodes %d out of range", m.ID, m.VizNodes)
	case m.NUPerCoreHour <= 0:
		return fmt.Errorf("machine %s: non-positive NU factor", m.ID)
	}
	return nil
}

// Site is a resource-provider site: one or more machines, an archive, and a
// WAN attachment point.
type Site struct {
	ID       string
	Machines []*Machine
	// ArchivePB is the capacity of the site's archival storage in petabytes
	// (0 if the site offers no archive).
	ArchivePB float64
	// WANGbps is the site's wide-area attachment bandwidth in gigabits/s.
	WANGbps float64
}

// TotalCores sums cores across the site's machines.
func (s *Site) TotalCores() int {
	total := 0
	for _, m := range s.Machines {
		total += m.TotalCores()
	}
	return total
}

// Validate reports configuration errors, including machine errors.
func (s *Site) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("site: missing id")
	}
	if len(s.Machines) == 0 {
		return fmt.Errorf("site %s: no machines", s.ID)
	}
	if s.WANGbps <= 0 {
		return fmt.Errorf("site %s: non-positive WAN bandwidth", s.ID)
	}
	for _, m := range s.Machines {
		if err := m.Validate(); err != nil {
			return err
		}
		if m.Site != s.ID {
			return fmt.Errorf("machine %s: site field %q does not match site %s", m.ID, m.Site, s.ID)
		}
	}
	return nil
}

// Federation is the full simulated cyberinfrastructure topology.
type Federation struct {
	Name     string
	Sites    []*Site
	machines map[string]*Machine
}

// NewFederation assembles and validates a federation from sites. Machine
// IDs must be globally unique.
func NewFederation(name string, sites ...*Site) (*Federation, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("federation %s: no sites", name)
	}
	f := &Federation{
		Name:     name,
		Sites:    sites,
		machines: make(map[string]*Machine),
	}
	seen := make(map[string]bool, len(sites))
	for _, s := range sites {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if seen[s.ID] {
			return nil, fmt.Errorf("federation %s: duplicate site %s", name, s.ID)
		}
		seen[s.ID] = true
		for _, m := range s.Machines {
			if _, dup := f.machines[m.ID]; dup {
				return nil, fmt.Errorf("federation %s: duplicate machine %s", name, m.ID)
			}
			f.machines[m.ID] = m
		}
	}
	return f, nil
}

// Machines returns all machines sorted by ID (deterministic iteration).
func (f *Federation) Machines() []*Machine {
	out := make([]*Machine, 0, len(f.machines))
	for _, m := range f.machines {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TotalCores sums cores across the federation.
func (f *Federation) TotalCores() int {
	total := 0
	for _, s := range f.Sites {
		total += s.TotalCores()
	}
	return total
}

// LargestMachine returns the machine with the most cores (ties broken by
// lexically smaller ID, for determinism).
func (f *Federation) LargestMachine() *Machine {
	var best *Machine
	for _, m := range f.Machines() {
		if best == nil || m.TotalCores() > best.TotalCores() {
			best = m
		}
	}
	return best
}
