package workload

import (
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/simrand"
)

// BatchGen produces ordinary batch HPC usage — the bulk of NUs. It covers
// two modalities with one mechanism: capacity jobs (small/medium parallel
// work) and capability jobs (hero-scale runs on the largest machine).
type BatchGen struct {
	// JobsPerDay is the weekday-peak submission rate across the cohort.
	JobsPerDay float64
	// CapabilityFrac is the fraction of submissions that are hero-scale.
	CapabilityFrac float64
	// MedianRuntime of capacity jobs in seconds; capability runs are 4x.
	MedianRuntime float64
}

// Name implements Generator.
func (g *BatchGen) Name() string { return "batch" }

// Start implements Generator.
func (g *BatchGen) Start(e *Env) {
	rng := simrand.Derive(e.Seed, "gen-batch")
	pop, err := e.cohort()
	if err != nil {
		panic("workload: batch generator needs a population: " + err.Error())
	}
	machines := e.Machines()
	// Per-user favorite machine: direct submitters overwhelmingly stick
	// to one or two resources.
	favorite := make(map[job.Sym]string)
	rate := g.JobsPerDay / 86400
	PoissonArrivals(e, rng, rate, "arrival-batch", func() {
		u := pop.draw(rng)
		m, ok := favorite[u.name]
		if !ok {
			m = machines[rng.Intn(len(machines))]
			favorite[u.name] = m
		}
		s := e.Sched[m]
		maxCores := s.M.BatchCores()
		j := e.newJob(job.Job{
			ID:      e.NewJobID(),
			User:    u.name,
			Project: u.project,
			Attr:    job.Attributes{ScienceField: u.field},
		})
		if rng.Bool(g.CapabilityFrac) {
			// Hero run: ≥ half of the largest machine in the federation.
			m = g.largest(e)
			s = e.Sched[m]
			maxCores = s.M.BatchCores()
			j.Cores = maxCores / 2
			if rng.Bool(0.3) {
				j.Cores = maxCores // full-machine run
			}
			j.RunTime = DrawRuntime(rng, 4*g.MedianRuntime, 0.8)
			j.Name = e.intern(append(e.nameBuf("hero-"), u.Project...))
			j.Truth.Modality = job.SymBatchCapability
		} else {
			j.Cores = DrawCores(rng, 0, 8, maxCores)
			j.RunTime = DrawRuntime(rng, g.MedianRuntime, 1.2)
			b := append(append(e.nameBuf("run-"), u.Name...), '-')
			j.Name = e.intern(appendPadded(b, rng.Intn(20), 2))
			j.Truth.Modality = job.SymBatchCapacity
		}
		j.ReqWalltime = DrawWalltime(rng, j.RunTime)
		// 5% of users underestimate and get walltime-killed.
		if rng.Bool(0.05) {
			j.ReqWalltime = des.Time(float64(j.RunTime) * 0.8)
			if j.ReqWalltime < 30 {
				j.ReqWalltime = 30
			}
		}
		via := job.SymLogin
		if rng.Bool(0.25) {
			via = job.SymGram // remote grid submission
		}
		if err := e.SubmitDirect(m, via, j); err != nil {
			panic(err)
		}
	})
}

// largest returns the machine with the most batch cores.
func (g *BatchGen) largest(e *Env) string {
	best := ""
	bestCores := -1
	for _, id := range e.Machines() {
		if c := e.Sched[id].M.BatchCores(); c > bestCores {
			best, bestCores = id, c
		}
	}
	return best
}

// EnsembleGen produces high-throughput campaigns: bursts of many similar
// single- or few-core jobs (parameter sweeps, uncertainty quantification).
// Instrumentation: campaigns carry an ensemble tag with TagCoverage
// probability — untagged campaigns must be inferred by the measurement
// framework from name/size/burst similarity.
type EnsembleGen struct {
	CampaignsPerDay float64
	// JobsPerCampaign is the mean sweep width (geometric-ish spread).
	JobsPerCampaign int
	// TagCoverage is the probability a campaign's jobs carry EnsembleID.
	TagCoverage float64
	// MedianRuntime of sweep members, seconds.
	MedianRuntime float64
}

// Name implements Generator.
func (g *EnsembleGen) Name() string { return "ensemble" }

// Start implements Generator.
func (g *EnsembleGen) Start(e *Env) {
	rng := simrand.Derive(e.Seed, "gen-ensemble")
	pop, err := e.cohort()
	if err != nil {
		panic("workload: ensemble generator needs a population: " + err.Error())
	}
	machines := e.Machines()
	campaignN := 0
	rate := g.CampaignsPerDay / 86400
	PoissonArrivals(e, rng, rate, "arrival-ensemble", func() {
		u := pop.draw(rng)
		m := machines[rng.Intn(len(machines))]
		maxCores := e.Sched[m].M.BatchCores()
		campaignN++
		campaign := e.intern(appendPadded(e.nameBuf("ens-"), campaignN, 5))
		tagged := rng.Bool(g.TagCoverage)
		n := 2 + rng.Intn(2*g.JobsPerCampaign) // width ∈ [2, 2·mean]
		cores := DrawCores(rng, 0, 4, maxCores)
		median := g.MedianRuntime
		b := append(append(e.nameBuf("sweep-"), u.Name...), '-')
		name := e.intern(appendPadded(b, rng.Intn(10), 2))
		wall := DrawWalltime(rng, DrawRuntime(rng, median, 0.3)*2)
		for i := 0; i < n; i++ {
			j := e.newJob(job.Job{
				ID:          e.NewJobID(),
				Name:        name,
				User:        u.name,
				Project:     u.project,
				Cores:       cores,
				RunTime:     DrawRuntime(rng, median, 0.3),
				ReqWalltime: wall,
				Attr:        job.Attributes{ScienceField: u.field},
				Truth:       job.Truth{Modality: job.SymEnsemble, CampaignID: campaign},
			})
			if tagged {
				j.Attr.EnsembleID = campaign
			}
			// Members land in a tight burst, seconds apart.
			delay := des.Time(float64(i) * (1 + rng.Float64()*10))
			jj := j
			mm := m
			e.K.ScheduleNamed(delay, "ens-submit", func(*des.Kernel) {
				if err := e.SubmitDirect(mm, job.SymLogin, jj); err != nil {
					panic(err)
				}
			})
		}
	})
}

// InteractiveGen produces interactive/visualization sessions: short,
// business-hours, small-core sessions on viz-capable machines.
type InteractiveGen struct {
	SessionsPerDay float64
	MedianSession  float64 // seconds
}

// Name implements Generator.
func (g *InteractiveGen) Name() string { return "interactive" }

// Start implements Generator.
func (g *InteractiveGen) Start(e *Env) {
	rng := simrand.Derive(e.Seed, "gen-interactive")
	pop, err := e.cohort()
	if err != nil {
		panic("workload: interactive generator needs a population: " + err.Error())
	}
	// Only machines with a viz partition qualify.
	var vizMachines []string
	for _, id := range e.Machines() {
		if e.Sched[id].M.VizCores() > 0 {
			vizMachines = append(vizMachines, id)
		}
	}
	if len(vizMachines) == 0 {
		return
	}
	rate := g.SessionsPerDay / 86400
	PoissonArrivals(e, rng, rate, "arrival-interactive", func() {
		u := pop.draw(rng)
		m := vizMachines[rng.Intn(len(vizMachines))]
		run := DrawRuntime(rng, g.MedianSession, 0.7)
		if run > 8*des.Hour {
			run = 8 * des.Hour
		}
		j := e.newJob(job.Job{
			ID:          e.NewJobID(),
			Name:        e.intern(append(e.nameBuf("viz-"), u.Name...)),
			User:        u.name,
			Project:     u.project,
			Cores:       DrawCores(rng, 0, 3, e.Sched[m].M.VizCores()),
			RunTime:     run,
			ReqWalltime: run + des.Hour, // sessions reserve generous time
			QOS:         job.QOSInteractive,
			Attr:        job.Attributes{ScienceField: u.field},
			Truth:       job.Truth{Modality: job.SymInteractive},
		})
		if err := e.SubmitDirect(m, job.SymLogin, j); err != nil {
			panic(err)
		}
	})
}

// UrgentGen produces on-demand/urgent computing: rare external events
// (storm forecasts, aftershock models) that must run immediately on an
// urgent-capable machine.
type UrgentGen struct {
	EventsPerWeek float64
	MedianRuntime float64
}

// Name implements Generator.
func (g *UrgentGen) Name() string { return "urgent" }

// Start implements Generator.
func (g *UrgentGen) Start(e *Env) {
	rng := simrand.Derive(e.Seed, "gen-urgent")
	pop, err := e.cohort()
	if err != nil {
		panic("workload: urgent generator needs a population: " + err.Error())
	}
	var capable []string
	for _, id := range e.Machines() {
		if e.Sched[id].M.UrgentCapable {
			capable = append(capable, id)
		}
	}
	if len(capable) == 0 {
		return
	}
	name := e.Syms.Intern("urgent-response")
	rate := g.EventsPerWeek / float64(des.Week)
	PoissonArrivals(e, rng, rate, "arrival-urgent", func() {
		u := pop.draw(rng)
		m := capable[rng.Intn(len(capable))]
		run := DrawRuntime(rng, g.MedianRuntime, 0.5)
		j := e.newJob(job.Job{
			ID:          e.NewJobID(),
			Name:        name,
			User:        u.name,
			Project:     u.project,
			Cores:       DrawCores(rng, 5, 9, e.Sched[m].M.BatchCores()),
			RunTime:     run,
			ReqWalltime: DrawWalltime(rng, run),
			QOS:         job.QOSUrgent,
			Attr:        job.Attributes{ScienceField: u.field},
			Truth:       job.Truth{Modality: job.SymUrgent},
		})
		if err := e.SubmitDirect(m, job.SymGram, j); err != nil {
			panic(err)
		}
	})
}
