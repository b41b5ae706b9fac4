// Package gateway models science gateways: web portals that submit jobs to
// the grid on behalf of large end-user communities through a shared
// community account. Gateways are where the usage-modality problem is most
// acute — the accounting system sees one "user" (the community account),
// so without additional attributes the size and identity of the real user
// population is invisible. The AAAA model fixes this by attaching a
// per-request gateway-user attribute record to every submission; this
// package emits those records with a configurable coverage probability to
// model partial deployment.
package gateway

import (
	"fmt"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/simrand"
)

// Submitter is where a gateway sends jobs (the metascheduler or a specific
// machine's scheduler, wrapped by the scenario layer).
type Submitter interface {
	SubmitJob(j *job.Job)
}

// Gateway is one science gateway.
type Gateway struct {
	ID string
	// Project is the community allocation.
	Project string
	// ScienceField tags the gateway's domain.
	ScienceField string
	// AttrCoverage is the probability a submission carries its gateway
	// end-user attribute record (1.0 = fully instrumented AAAA deployment).
	AttrCoverage float64
	// OnRequest observes every gateway submission just before it is
	// handed to the submitter. attributed reports whether the request
	// carried its end-user attribute record.
	OnRequest []func(endUser string, j *job.Job, attributed bool)
	// OnDown observes every request rejected because the gateway endpoint
	// is unavailable (see SetAvailable). The fault layer hooks this to
	// schedule deterministic retries. Observers append to both lists; each
	// list is called in append order.
	OnDown []func(endUser string, j *job.Job)

	k      *des.Kernel
	rng    *simrand.Stream
	submit Submitter
	ledger *accounting.Ledger
	// syms is the run's symbol table; id, project and field are ID, Project
	// and ScienceField in it, and account is the community account all
	// gateway jobs charge.
	syms                        *job.Symbols
	id, account, project, field job.Sym

	// Availability and activity counters.
	available    bool
	requests     uint64
	attributed   uint64
	rejectedDown uint64
}

// New returns a gateway that submits through s and spools attribute records
// into ledger. syms is the run's symbol table, the one the submitted jobs'
// Syms index.
func New(id, account, project, field string, coverage float64,
	k *des.Kernel, syms *job.Symbols, rng *simrand.Stream, s Submitter, ledger *accounting.Ledger) (*Gateway, error) {
	if id == "" || account == "" || project == "" {
		return nil, fmt.Errorf("gateway: id, account, and project are required")
	}
	if coverage < 0 || coverage > 1 {
		return nil, fmt.Errorf("gateway %s: coverage %v out of [0,1]", id, coverage)
	}
	return &Gateway{
		ID: id, Project: project, ScienceField: field,
		AttrCoverage: coverage, k: k, rng: rng, submit: s, ledger: ledger,
		syms: syms, id: syms.Intern(id), account: syms.Intern(account),
		project: syms.Intern(project), field: syms.Intern(field),
		available: true,
	}, nil
}

// SetAvailable flips the endpoint up or down. While down, Request rejects
// every submission (counted by RejectedDown, observed by OnDown) without
// touching the attribute-coverage stream, so flapping changes no draws for
// requests that do get through.
func (g *Gateway) SetAvailable(up bool) { g.available = up }

// RejectedDown returns how many requests were turned away while down.
func (g *Gateway) RejectedDown() uint64 { return g.rejectedDown }

// Requests returns the number of jobs submitted.
func (g *Gateway) Requests() uint64 { return g.requests }

// Attributed returns how many submissions carried their end-user attribute.
func (g *Gateway) Attributed() uint64 { return g.attributed }

// Request submits a job on behalf of end-user endUser. The job is rewritten
// to the community account and tagged as a gateway submission; with
// probability AttrCoverage the end-user attribute record is also emitted.
func (g *Gateway) Request(endUser string, j *job.Job) {
	if !g.available {
		g.rejectedDown++
		for _, fn := range g.OnDown {
			fn(endUser, j)
		}
		return
	}
	g.requests++
	j.User = g.account
	j.Project = g.project
	j.Attr.SubmitVia = job.SymGateway
	j.Attr.GatewayID = g.id
	if j.Attr.ScienceField == job.SymNone {
		j.Attr.ScienceField = g.field
	}
	attributed := g.rng.Bool(g.AttrCoverage)
	if attributed {
		j.Attr.GatewayUser = g.syms.Intern(endUser)
		g.attributed++
		g.ledger.AddGatewayAttr(accounting.GatewayAttrRecord{
			GatewayID:   g.id,
			GatewayUser: j.Attr.GatewayUser,
			JobID:       int64(j.ID),
			At:          float64(g.k.Now()),
		})
	}
	for _, fn := range g.OnRequest {
		fn(endUser, j, attributed)
	}
	g.submit.SubmitJob(j)
}
