package workload

import (
	"strconv"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/sched"
	"github.com/tgsim/tgmod/internal/trace"
)

// ReplayGen drives the simulator from a parsed SWF trace instead of a
// synthetic model: each trace entry is submitted at its recorded submit
// time with its recorded size and runtime. Wait times and placements are
// then produced by the simulated scheduler, so replay answers "what would
// this recorded workload have experienced on this machine/policy" — the
// classic trace-driven evaluation loop.
type ReplayGen struct {
	// Jobs is the parsed trace (see trace.ReadSWF). Each entry is read
	// again when its job is submitted, so it must not change during a run.
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
	for i := range g.Jobs {
		tj := &g.Jobs[i]
		if tj.Procs <= 0 || tj.Run <= 0 {
			continue // SWF traces carry cancelled entries; skip them
		}
		at := des.Time(tj.Submit * scale)
		if at >= e.Horizon {
			continue
		}
		m := g.Machine
		if m == "" {
			m = machines[i%len(machines)]
		}
		// The ID and the names are fixed now, in trace order, but the job
		// is built from its entry only when it is submitted, in a job from
		// the pool: a replay holds the jobs in flight, not one per entry.
		id := e.NewJobID()
		name := e.intern(strconv.AppendInt(e.nameBuf("exec"), int64(tj.ExecID), 10))
		user := e.intern(strconv.AppendInt(e.nameBuf("u"), int64(tj.UserID), 10))
		project := e.intern(strconv.AppendInt(e.nameBuf("g"), int64(tj.GroupID), 10))
		e.K.AtNamed(at, "replay-submit", func(*des.Kernel) {
			j := e.newJob(job.Job{ID: id, Name: name, User: user, Project: project})
			request(j, tj, e.Sched[m])
			if err := e.SubmitDirect(m, job.SymLogin, j); err != nil {
				panic(err)
			}
		})
	}
}

// request fills j's request from its trace entry for machine s (nil when
// the machine is unknown, which SubmitDirect then reports).
func request(j *job.Job, tj *trace.Job, s *sched.Scheduler) {
	j.Cores = tj.Procs
	j.RunTime = des.Time(tj.Run)
	j.ReqWalltime = des.Time(tj.ReqTime)
	if j.ReqWalltime < j.RunTime {
		j.ReqWalltime = j.RunTime // records with unknown requests get exact walltime
	}
	j.Truth.Modality = job.SymBatchCapacity
	switch tj.Queue {
	case 2:
		j.QOS = job.QOSUrgent
		j.Truth.Modality = job.SymUrgent
	case 3:
		j.QOS = job.QOSInteractive
		j.Truth.Modality = job.SymInteractive
	}
	// Oversized entries are clamped to the target machine rather than
	// silently dropped: replaying a big-machine trace on a small
	// simulated machine is a common (intentional) experiment.
	if s != nil {
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
}
