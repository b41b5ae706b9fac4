package workload

import (
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/trace"
)

// ReplayGen drives the simulator from a parsed SWF trace instead of a
// synthetic model: each trace entry is submitted at its recorded submit
// time with its recorded size and runtime. Wait times and placements are
// then produced by the simulated scheduler, so replay answers "what would
// this recorded workload have experienced on this machine/policy" — the
// classic trace-driven evaluation loop.
type ReplayGen struct {
	// Jobs is the parsed trace (see trace.ReadSWF).
	Jobs []trace.Job
	// Machine receives every job ("" = round-robin across machines).
	Machine string
	// TimeScale stretches (>1) or compresses (<1) inter-arrival times;
	// 0 means 1.
	TimeScale float64
}

// Name implements Generator.
func (g *ReplayGen) Name() string { return "replay" }

// Start implements Generator.
func (g *ReplayGen) Start(e *Env) {
	scale := g.TimeScale
	if scale <= 0 {
		scale = 1
	}
	machines := e.Machines()
	if len(machines) == 0 {
		panic("workload: replay needs at least one machine")
	}
	for i, tj := range g.Jobs {
		if tj.Procs <= 0 || tj.Run <= 0 {
			continue // SWF traces carry cancelled entries; skip them
		}
		at := des.Time(tj.Submit * scale)
		if at >= e.Horizon {
			continue
		}
		run := des.Time(tj.Run)
		wall := des.Time(tj.ReqTime)
		if wall < run {
			wall = run // records with unknown requests get exact walltime
		}
		j := &job.Job{
			ID:          e.NewJobID(),
			Name:        e.internf("exec%d", tj.ExecID),
			User:        e.internf("u%d", tj.UserID),
			Project:     e.internf("g%d", tj.GroupID),
			Cores:       tj.Procs,
			RunTime:     run,
			ReqWalltime: wall,
			Truth:       job.Truth{Modality: job.SymBatchCapacity},
		}
		switch tj.Queue {
		case 2:
			j.QOS = job.QOSUrgent
			j.Truth.Modality = job.SymUrgent
		case 3:
			j.QOS = job.QOSInteractive
			j.Truth.Modality = job.SymInteractive
		}
		m := g.Machine
		if m == "" {
			m = machines[i%len(machines)]
		}
		// Oversized entries are clamped to the target machine rather than
		// silently dropped: replaying a big-machine trace on a small
		// simulated machine is a common (intentional) experiment.
		if s := e.Sched[m]; s != nil {
			limit := s.M.BatchCores()
			if j.QOS == job.QOSInteractive {
				limit = s.M.VizCores()
				if limit == 0 {
					j.QOS = job.QOSNormal
					limit = s.M.BatchCores()
				}
			}
			if j.Cores > limit {
				j.Cores = limit
			}
		}
		jj, mm := j, m
		e.K.AtNamed(at, "replay-submit", func(*des.Kernel) {
			if err := e.SubmitDirect(mm, job.SymLogin, jj); err != nil {
				panic(err)
			}
		})
	}
}
