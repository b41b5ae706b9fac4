// Package users synthesizes the federation's user population: researchers
// and their projects across fields of science, plus the much larger cohort
// of gateway end users. Population parameters shape who submits what in the
// workload layer; usage concentration across users is one of the measured
// quantities.
package users

import (
	"fmt"

	"github.com/tgsim/tgmod/internal/simrand"
)

// Fields of science used for allocations, weighted roughly like a national
// HPC program: a few compute-heavy disciplines dominate NU consumption.
var Fields = []string{
	"molecular-biosciences",
	"physics",
	"astronomical-sciences",
	"materials-research",
	"atmospheric-sciences",
	"chemistry",
	"earth-sciences",
	"engineering",
	"computer-science",
	"social-sciences",
}

// FieldWeights gives the relative share of projects per field.
var FieldWeights = []float64{18, 16, 14, 13, 10, 10, 7, 6, 4, 2}

// Role describes how a user primarily works.
type Role int

// User roles.
const (
	RolePI Role = iota
	RoleResearcher
	RoleStudent
	RoleGatewayEndUser
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RolePI:
		return "pi"
	case RoleResearcher:
		return "researcher"
	case RoleStudent:
		return "student"
	case RoleGatewayEndUser:
		return "gateway-end-user"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// User is a member of the simulated community.
type User struct {
	Name    string
	Role    Role
	Project string
	Field   string
	// Activity scales a user's submission rate relative to the cohort
	// mean; drawn heavy-tailed so a few users dominate, as observed in
	// production accounting.
	Activity float64
}

// Population is the synthesized community.
type Population struct {
	Users    []*User
	Projects []string
	byProj   map[string][]*User
}

// Config controls population synthesis.
type Config struct {
	Projects       int     // number of funded projects
	UsersPerProjMu float64 // lognormal mu of users per project (≥0)
	UsersPerProjSd float64 // lognormal sigma
	ActivityAlpha  float64 // Pareto tail index for activity (smaller = heavier)
}

// DefaultConfig matches a mid-size federation: a few hundred projects with
// heavy-tailed team sizes.
func DefaultConfig() Config {
	return Config{Projects: 200, UsersPerProjMu: 1.0, UsersPerProjSd: 0.8, ActivityAlpha: 1.5}
}

// Synthesize builds a deterministic population from the stream.
func Synthesize(cfg Config, rng *simrand.Stream) (*Population, error) {
	if cfg.Projects <= 0 {
		return nil, fmt.Errorf("users: non-positive project count")
	}
	if cfg.ActivityAlpha <= 0 {
		return nil, fmt.Errorf("users: non-positive activity alpha")
	}
	fieldPick := simrand.NewEmpirical(FieldWeights)
	p := &Population{byProj: make(map[string][]*User)}
	for i := 0; i < cfg.Projects; i++ {
		proj := fmt.Sprintf("TG-%s%04d", fieldCode(Fields[fieldPick.Sample(rng)]), i)
		field := Fields[fieldPick.Sample(rng)]
		p.Projects = append(p.Projects, proj)
		// Team size: PI + lognormal extras.
		extras := int(rng.LogNormal(cfg.UsersPerProjMu, cfg.UsersPerProjSd))
		if extras > 50 {
			extras = 50
		}
		team := 1 + extras
		for m := 0; m < team; m++ {
			role := RoleResearcher
			if m == 0 {
				role = RolePI
			} else if rng.Bool(0.4) {
				role = RoleStudent
			}
			u := &User{
				Name:     fmt.Sprintf("u%04d_%02d", i, m),
				Role:     role,
				Project:  proj,
				Field:    field,
				Activity: rng.Pareto(1, cfg.ActivityAlpha),
			}
			p.Users = append(p.Users, u)
			p.byProj[proj] = append(p.byProj[proj], u)
		}
	}
	return p, nil
}

// fieldCode compresses a field name into a short project-prefix code.
func fieldCode(field string) string {
	code := ""
	up := func(b byte) byte {
		if b >= 'a' && b <= 'z' {
			return b - 'a' + 'A'
		}
		return b
	}
	start := true
	for i := 0; i < len(field) && len(code) < 3; i++ {
		if field[i] == '-' {
			start = true
			continue
		}
		if start {
			code += string(up(field[i]))
			start = false
		}
	}
	for len(code) < 3 {
		code += "X"
	}
	return code
}

// PI returns a project's principal investigator.
func (p *Population) PI(project string) (*User, bool) {
	for _, u := range p.byProj[project] {
		if u.Role == RolePI {
			return u, true
		}
	}
	return nil, false
}

// WeightedPick draws a user with probability proportional to activity,
// using the provided stream. The cumulative weights are built once.
type WeightedPick struct {
	emp *simrand.Empirical
}

// NewWeightedPick prepares an activity-weighted sampler over the users.
func NewWeightedPick(users []*User) (*WeightedPick, error) {
	if len(users) == 0 {
		return nil, fmt.Errorf("users: empty user set")
	}
	w := make([]float64, len(users))
	for i, u := range users {
		w[i] = u.Activity
	}
	return &WeightedPick{emp: simrand.NewEmpirical(w)}, nil
}

// Pick draws one user and returns its index in the slice the sampler was
// built over.
func (w *WeightedPick) Pick(rng *simrand.Stream) int { return w.emp.Sample(rng) }
