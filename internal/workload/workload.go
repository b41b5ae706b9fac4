// Package workload synthesizes the federation's job streams. One generator
// per usage modality drives the substrate (schedulers, broker, gateways,
// workflow engine, stager) and stamps every job with its ground-truth
// modality label, giving the measurement framework a labeled corpus to be
// validated against — the thing production TeraGrid never had.
//
// Distributional choices follow standard parallel-workload modeling
// practice: lognormal runtimes, power-of-two-biased core counts, Poisson or
// bursty arrivals with diurnal modulation, heavy-tailed per-user activity.
package workload

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/gateway"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/metasched"
	"github.com/tgsim/tgmod/internal/sched"
	"github.com/tgsim/tgmod/internal/simrand"
	"github.com/tgsim/tgmod/internal/storage"
	"github.com/tgsim/tgmod/internal/users"
	"github.com/tgsim/tgmod/internal/workflow"
)

// Env is the wiring generators run against. The scenario layer constructs
// it; tests stub the parts they need.
type Env struct {
	K       *des.Kernel
	Seed    uint64
	Horizon des.Time // generators stop creating new work at the horizon
	// Syms is the run's symbol table: every job a generator creates
	// indexes it.
	Syms     *job.Symbols
	Pop      *users.Population
	Sched    map[string]*sched.Scheduler // by machine ID
	Broker   *metasched.Broker
	Gateways map[string]*gateway.Gateway
	Stager   *storage.Stager
	// DataHomeSite maps a project's Sym to where its reference data lives.
	DataHomeSite map[job.Sym]string

	// Tracker routes terminal job events to workflow instances.
	Tracker *Tracker
	// Jobs is the run's free list: every job a generator creates comes
	// from it, and the scenario layer puts each back at its terminal
	// event.
	Jobs *job.Pool

	nextJobID job.ID
	people    []person // Pop.Users with their Syms, resolved on first use
	name      []byte   // the buffer per-job names are built in
}

// person is a population member with the strings its jobs carry resolved
// to Syms once per run.
type person struct {
	*users.User
	name, project, field job.Sym
}

// cohort draws population members by activity. Every generator that
// samples the population holds its own, over the Env's one set of people.
type cohort struct {
	pick   *users.WeightedPick
	people []person
}

// cohort returns an activity-weighted sampler over the population.
func (e *Env) cohort() (*cohort, error) {
	pick, err := users.NewWeightedPick(e.Pop.Users)
	if err != nil {
		return nil, err
	}
	if e.people == nil {
		e.people = make([]person, len(e.Pop.Users))
		for i, u := range e.Pop.Users {
			e.people[i] = person{User: u, name: e.Syms.Intern(u.Name),
				project: e.Syms.Intern(u.Project), field: e.Syms.Intern(u.Field)}
		}
	}
	return &cohort{pick: pick, people: e.people}, nil
}

// draw picks one member by activity.
func (c *cohort) draw(rng *simrand.Stream) *person { return &c.people[c.pick.Pick(rng)] }

// newJob returns a job from the run's pool holding j.
func (e *Env) newJob(j job.Job) *job.Job {
	p := e.Jobs.Get()
	*p = j
	return p
}

// nameBuf empties the Env's name buffer and starts it with prefix. A
// per-job string (a job name, a campaign ID, a gateway end user) is built
// there by appends and interned with intern, so a name the table already
// holds costs no allocation.
func (e *Env) nameBuf(prefix string) []byte { return append(e.name[:0], prefix...) }

// intern interns the name built from nameBuf's buffer and keeps the
// buffer for the next name.
func (e *Env) intern(b []byte) job.Sym {
	e.name = b
	return e.Syms.InternBytes(b)
}

// appendPadded appends n ≥ 0 in decimal, zero-padded to width digits
// (fmt's %0<width>d).
func appendPadded(b []byte, n, width int) []byte {
	for d, v := 1, n; d < width; d++ {
		if v /= 10; v == 0 {
			b = append(b, '0')
		}
	}
	return strconv.AppendInt(b, int64(n), 10)
}

// NewJobID allocates the next unique job ID.
func (e *Env) NewJobID() job.ID {
	e.nextJobID++
	return e.nextJobID
}

// Machines returns machine IDs sorted, for deterministic iteration.
func (e *Env) Machines() []string {
	out := make([]string, 0, len(e.Sched))
	for id := range e.Sched {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// SubmitDirect submits to a specific machine with the given submission
// mechanism attribute (job.SymLogin for interactive shells, job.SymGram
// for remote grid submission).
func (e *Env) SubmitDirect(machine string, via job.Sym, j *job.Job) error {
	s, ok := e.Sched[machine]
	if !ok {
		return fmt.Errorf("workload: unknown machine %s", machine)
	}
	j.Attr.SubmitVia = via
	s.Submit(j)
	return nil
}

// Generator is a workload source. Start schedules the generator's events;
// generators stop creating work once Env.Horizon passes.
type Generator interface {
	Name() string
	Start(e *Env)
}

// Tracker routes finished jobs back to the workflow instances that own
// them.
type Tracker struct {
	byJob map[job.ID]*workflow.Instance
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{byJob: make(map[job.ID]*workflow.Instance)}
}

// Watch associates a workflow task's job with its instance as the job is
// released.
func (t *Tracker) Watch(j *job.Job, w *workflow.Instance) { t.byJob[j.ID] = w }

// JobFinished forwards a terminal job to its workflow, if any, and forgets
// the job: a job reaches one terminal state, so the tracker keeps only the
// jobs still in flight, not every finished instance.
func (t *Tracker) JobFinished(j *job.Job) {
	if w, ok := t.byJob[j.ID]; ok {
		delete(t.byJob, j.ID)
		w.TaskFinished(j)
	}
}

// Tracked returns the number of tracked jobs not yet finished.
func (t *Tracker) Tracked() int { return len(t.byJob) }

// ---- Shared distribution helpers ----

// DrawRuntime draws a job runtime from a lognormal with the given median
// (seconds) and shape, clamped to [30s, 5d].
func DrawRuntime(rng *simrand.Stream, medianSeconds, sigma float64) des.Time {
	v := rng.LogNormal(math.Log(medianSeconds), sigma)
	if v < 30 {
		v = 30
	}
	if v > 5*24*3600 {
		v = 5 * 24 * 3600
	}
	return des.Time(v)
}

// DrawWalltime draws the user's requested walltime: actual runtime padded
// by the well-documented overestimation habit (uniform 1.1–5x), rounded up
// to a 15-minute granularity, clamped to 7 days.
func DrawWalltime(rng *simrand.Stream, run des.Time) des.Time {
	factor := 1.1 + 3.9*rng.Float64()
	w := float64(run) * factor
	const gran = 900
	w = math.Ceil(w/gran) * gran
	if w > 7*24*3600 {
		w = 7 * 24 * 3600
	}
	return des.Time(w)
}

// DrawCores draws a parallel job size: power of two with probability 0.75
// (the dominant habit), otherwise uniform in range; always clamped to
// [1, max].
func DrawCores(rng *simrand.Stream, loExp, hiExp, max int) int {
	var c int
	if rng.Bool(0.75) {
		c = rng.PowerOfTwo(loExp, hiExp)
	} else {
		c = rng.IntRange(1<<uint(loExp), 1<<uint(hiExp))
	}
	if c > max {
		c = max
	}
	if c < 1 {
		c = 1
	}
	return c
}

// DiurnalRate modulates a base rate by hour-of-day and day-of-week: nights
// run at 40% and weekends at 55% of the weekday-daytime rate, matching the
// submission cycles in production traces.
func DiurnalRate(at des.Time, base float64) float64 {
	sec := float64(at)
	day := int(sec/86400) % 7
	hour := int(sec/3600) % 24
	rate := base
	if hour < 8 || hour >= 20 {
		rate *= 0.4
	}
	if day >= 5 {
		rate *= 0.55
	}
	return rate
}

// PoissonArrivals schedules fn at exponentially spaced times with a
// diurnally modulated rate (events/second at weekday peak) until the
// horizon. It uses thinning: draws at the peak rate and accepts with
// probability rate(t)/peak. The name labels every arrival event in kernel
// traces and the self-profiler (generators pass "arrival-<name>"), so the
// hottest event class in any simulation is attributable per generator.
func PoissonArrivals(e *Env, rng *simrand.Stream, peakRate float64, name string, fn func()) {
	if peakRate <= 0 {
		panic("workload: non-positive arrival rate")
	}
	// Arrival events dominate every simulation's event population; intern
	// the name once at generator setup so tracer and profiler maps across
	// all replications of a fleet share one backing string.
	name = des.Intern(name)
	// One tick closure per generator, rescheduled on every arrival. The
	// draw order is fixed: horizon check, thinning draw, fn, next gap.
	var tick func(*des.Kernel)
	tick = func(k *des.Kernel) {
		if k.Now() >= e.Horizon {
			return
		}
		if rng.Bool(DiurnalRate(k.Now(), peakRate) / peakRate) {
			fn()
		}
		k.ScheduleNamed(des.Time(rng.Exp(peakRate)), name, tick)
	}
	e.K.ScheduleNamed(des.Time(rng.Exp(peakRate)), name, tick)
}
