package workload

import (
	"fmt"
	"math"

	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/simrand"
	"github.com/tgsim/tgmod/internal/workflow"
)

// WorkflowGen produces DAG workflow campaigns executed through the
// workflow engine. A fraction of instances use a "well-behaved" engine
// that tags released jobs with workflow attributes; the rest are homegrown
// scripts the measurement framework must infer.
type WorkflowGen struct {
	CampaignsPerDay float64
	// TaggedFrac is the fraction of instances run by an instrumented engine.
	TaggedFrac float64
	// Workers is the mean fan-out width.
	Workers int
	// MedianTask is the median task runtime, seconds.
	MedianTask float64
}

// Name implements Generator.
func (g *WorkflowGen) Name() string { return "workflow" }

// Start implements Generator.
func (g *WorkflowGen) Start(e *Env) {
	rng := simrand.Derive(e.Seed, "gen-workflow")
	pop, err := e.cohort()
	if err != nil {
		panic("workload: workflow generator needs a population: " + err.Error())
	}
	machines := e.Machines()
	n := 0
	rate := g.CampaignsPerDay / 86400
	PoissonArrivals(e, rng, rate, "arrival-workflow", func() {
		u := pop.draw(rng)
		m := machines[rng.Intn(len(machines))]
		s := e.Sched[m]
		maxCores := s.M.BatchCores()
		n++
		id := fmt.Sprintf("wf-%05d", n)
		tagged := rng.Bool(g.TaggedFrac)
		engine := "homegrown-script"
		if tagged {
			engine = "pegasus"
		}
		mkTask := func(sigma float64, coresHi int) *job.Job {
			run := DrawRuntime(rng, g.MedianTask, sigma)
			return e.newJob(job.Job{
				ID:          e.NewJobID(),
				Name:        e.intern(append(e.nameBuf("wf-task-"), u.Name...)),
				User:        u.name,
				Project:     u.project,
				Cores:       DrawCores(rng, 0, coresHi, maxCores),
				RunTime:     run,
				ReqWalltime: DrawWalltime(rng, run),
				Attr:        job.Attributes{ScienceField: u.field},
			})
		}
		submitter := &directSubmitter{e: e, machine: m, via: job.SymGram}
		var w *workflow.Instance
		if rng.Bool(0.5) {
			// Linear chain of 3–8 stages.
			stages := 3 + rng.Intn(6)
			jobs := make([]*job.Job, stages)
			for i := range jobs {
				jobs[i] = mkTask(0.6, 5)
			}
			w, err = workflow.Chain(id, engine, tagged, e.K, e.Syms, submitter, jobs)
		} else {
			// Fan-out/fan-in with 2·Workers max width.
			width := 2 + rng.Intn(2*g.Workers)
			workers := make([]*job.Job, width)
			for i := range workers {
				workers[i] = mkTask(0.4, 3)
			}
			w, err = workflow.FanOutFanIn(id, engine, tagged, e.K, e.Syms, submitter,
				mkTask(0.3, 2), workers, mkTask(0.3, 2))
		}
		if err != nil {
			panic("workload: building workflow: " + err.Error())
		}
		// Register all tasks with the tracker before starting, so terminal
		// events route back to the engine.
		submitter.watch(w)
		if err := w.Start(); err != nil {
			panic("workload: starting workflow: " + err.Error())
		}
	})
}

// directSubmitter adapts direct machine submission to the workflow
// engine's Submitter interface, registering each job with the tracker on
// the way through.
type directSubmitter struct {
	e       *Env
	machine string
	via     job.Sym
	w       *workflow.Instance
}

func (d *directSubmitter) SubmitJob(j *job.Job) {
	if d.w != nil && d.e.Tracker != nil {
		d.e.Tracker.Watch(j, d.w)
	}
	if err := d.e.SubmitDirect(d.machine, d.via, j); err != nil {
		panic(err)
	}
}

// watch closes the submitter over its instance after construction:
// workflow construction needs the submitter, and tracking needs the
// instance, so the binding happens between construction and Start.
func (d *directSubmitter) watch(w *workflow.Instance) { d.w = w }

// GatewayGen produces science-gateway usage: a large, growing end-user
// population submitting many small jobs through community accounts. The
// population grows linearly over the horizon — the adoption trend gateway
// programs reported. Routing happens inside the gateway object, whose
// submitter the scenario layer wired at construction.
type GatewayGen struct {
	// Gateway is the gateway ID this generator feeds (must exist in Env).
	Gateway string
	// RequestsPerDay is the weekday-peak request rate at full ramp.
	RequestsPerDay float64
	// EndUsers is the eventual distinct end-user population.
	EndUsers int
	// MedianRuntime of gateway jobs (they are small and short).
	MedianRuntime float64
}

// Name implements Generator.
func (g *GatewayGen) Name() string { return "gateway-" + g.Gateway }

// Start implements Generator.
func (g *GatewayGen) Start(e *Env) {
	rng := simrand.Derive(e.Seed, "gen-"+g.Name())
	gw, ok := e.Gateways[g.Gateway]
	if !ok {
		panic("workload: unknown gateway " + g.Gateway)
	}
	// Zipf over the end-user population: a few power users, a long tail.
	zipf := simrand.NewZipf(g.EndUsers, 1.1)
	name := e.Syms.Intern(g.Gateway + "-app")
	userPrefix := g.Gateway + "-user-"
	peak := g.RequestsPerDay / 86400
	PoissonArrivals(e, rng, peak, "arrival-"+g.Name(), func() {
		// Linear ramp: early in the horizon most arrivals are thinned out,
		// modeling community adoption growth.
		frac := 0.1 + 0.9*float64(e.K.Now())/float64(e.Horizon)
		if !rng.Bool(frac) {
			return
		}
		// The reachable user pool also grows over time.
		pool := int(float64(g.EndUsers) * frac)
		if pool < 1 {
			pool = 1
		}
		endUser := e.intern(appendPadded(e.nameBuf(userPrefix), 1+zipf.Sample(rng)%pool, 5))
		run := DrawRuntime(rng, g.MedianRuntime, 0.8)
		j := e.newJob(job.Job{
			ID:          e.NewJobID(),
			Name:        name,
			Cores:       DrawCores(rng, 0, 3, 64),
			RunTime:     run,
			ReqWalltime: DrawWalltime(rng, run),
			Truth:       job.Truth{Modality: job.SymGateway},
			// User/Project are set by the gateway (community account).
		})
		gw.Request(e.Syms.Str(endUser), j)
	})
}

// DataCentricGen produces data-dominated usage: jobs whose inputs are
// staged from the project's data home site. Compute is modest; the WAN
// does the work.
type DataCentricGen struct {
	JobsPerDay    float64
	MedianInputGB float64
	MedianRuntime float64
}

// Name implements Generator.
func (g *DataCentricGen) Name() string { return "data-centric" }

// Start implements Generator.
func (g *DataCentricGen) Start(e *Env) {
	rng := simrand.Derive(e.Seed, "gen-data")
	pop, err := e.cohort()
	if err != nil {
		panic("workload: data generator needs a population: " + err.Error())
	}
	machines := e.Machines()
	rate := g.JobsPerDay / 86400
	PoissonArrivals(e, rng, rate, "arrival-data", func() {
		u := pop.draw(rng)
		m := machines[rng.Intn(len(machines))]
		s := e.Sched[m]
		run := DrawRuntime(rng, g.MedianRuntime, 0.6)
		inBytes := int64(rng.LogNormal(logOf(g.MedianInputGB*1e9), 1.0))
		j := e.newJob(job.Job{
			ID:          e.NewJobID(),
			Name:        e.intern(append(e.nameBuf("analysis-"), u.Name...)),
			User:        u.name,
			Project:     u.project,
			Cores:       DrawCores(rng, 2, 6, s.M.BatchCores()),
			RunTime:     run,
			ReqWalltime: DrawWalltime(rng, run),
			InputBytes:  inBytes,
			Attr:        job.Attributes{ScienceField: u.field},
			Truth:       job.Truth{Modality: job.SymDataCentric},
		})
		home := e.DataHomeSite[u.project]
		if home == "" {
			home = s.M.Site
		}
		// Stage input, then submit.
		if e.Stager != nil {
			if err := e.Stager.Stage(home, s.M.Site, inBytes, u.Name, u.Project,
				int64(j.ID), func() {
					if err := e.SubmitDirect(m, job.SymGram, j); err != nil {
						panic(err)
					}
				}); err != nil {
				panic(err)
			}
		} else {
			if err := e.SubmitDirect(m, job.SymGram, j); err != nil {
				panic(err)
			}
		}
	})
}

func logOf(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Log(v)
}

// MetaschedGen produces broker-routed usage: users who let the
// metascheduler pick the machine, plus occasional multi-site
// co-allocations.
type MetaschedGen struct {
	JobsPerDay    float64
	CoAllocFrac   float64 // fraction of submissions that are 2-part co-allocations
	MedianRuntime float64
}

// Name implements Generator.
func (g *MetaschedGen) Name() string { return "metasched" }

// Start implements Generator.
func (g *MetaschedGen) Start(e *Env) {
	rng := simrand.Derive(e.Seed, "gen-metasched")
	pop, err := e.cohort()
	if err != nil {
		panic("workload: metasched generator needs a population: " + err.Error())
	}
	if e.Broker == nil {
		return
	}
	rate := g.JobsPerDay / 86400
	PoissonArrivals(e, rng, rate, "arrival-metasched", func() {
		u := pop.draw(rng)
		mk := func(coresHi int) *job.Job {
			run := DrawRuntime(rng, g.MedianRuntime, 0.8)
			return e.newJob(job.Job{
				ID:          e.NewJobID(),
				Name:        e.intern(append(e.nameBuf("grid-"), u.Name...)),
				User:        u.name,
				Project:     u.project,
				Cores:       DrawCores(rng, 2, coresHi, 1<<14),
				RunTime:     run,
				ReqWalltime: DrawWalltime(rng, run),
				Attr:        job.Attributes{ScienceField: u.field},
				Truth:       job.Truth{Modality: job.SymMetascheduled},
			})
		}
		if rng.Bool(g.CoAllocFrac) {
			parts := []*job.Job{mk(6), mk(6)}
			// Co-allocation may legitimately fail when machines are busy;
			// fall back to routing the parts independently.
			if _, err := e.Broker.CoAllocate(parts); err != nil {
				for _, p := range parts {
					e.Broker.Submit(p)
				}
			}
			return
		}
		e.Broker.Submit(mk(8))
	})
}
