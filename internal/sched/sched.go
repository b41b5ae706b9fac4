// Package sched implements the local resource managers that run each
// machine's batch system behind a pluggable PolicyEngine seam: FCFS, EASY
// backfill, conservative backfill, fair-share, all-or-nothing gang, and
// starvation-bounded priority engines; a separate interactive/visualization
// partition; preemptive on-demand (urgent) computing; and advance
// reservations used by the metascheduler for cross-site co-allocation.
//
// The engine owns the batch queue and every start decision; the Scheduler
// core owns the physical machine — partitions, running jobs, outages,
// crashes, node losses, reservations, and accounting. All engines honor two
// hard guarantees that make planning sound: jobs are killed at their
// requested walltime, so a running job's cores are certainly free by
// start+walltime; and no engine starts a job whose (cores, walltime)
// rectangle would overlap a committed reservation.
package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/grid"
	"github.com/tgsim/tgmod/internal/job"
)

// Event is a job lifecycle notification delivered to listeners.
type Event struct {
	Kind EventKind
	Job  *job.Job
}

// EventKind enumerates job lifecycle notifications.
type EventKind int

// Lifecycle notification kinds.
const (
	EventQueued EventKind = iota
	EventStarted
	EventFinished  // completed or killed at walltime
	EventPreempted // urgent preemption; job was requeued
	EventRejected  // impossible request (exceeds machine capacity)
	// EventKilled is an unplanned kill (machine crash or node failure). The
	// job is NOT requeued by the scheduler: the fault layer routes it next
	// (Requeue here or metasched failover), and that re-entry emits its own
	// EventQueued — which is what keeps the span stream well-formed (a kill
	// only closes the run span; the next queue entry opens the wait span).
	EventKilled
)

// String returns the event-kind name.
func (k EventKind) String() string {
	switch k {
	case EventQueued:
		return "queued"
	case EventStarted:
		return "started"
	case EventFinished:
		return "finished"
	case EventPreempted:
		return "preempted"
	case EventRejected:
		return "rejected"
	case EventKilled:
		return "killed"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Listener receives job lifecycle events. EventFinished and EventRejected
// are a job's terminal events: once the listeners return, the job's owner
// may release it for reuse (a scenario run does), so a listener copies what
// it needs from the job instead of keeping the pointer.
type Listener func(Event)

// Probe receives scheduler-internal decision notifications that the
// lifecycle Listener seam cannot express: backfill placements, urgent
// preemption victim selection, reservation activations, maintenance
// window boundaries, and engine-specific decisions (gang holds, aging
// escalations). The job is nil for machine-level events. A nil probe
// costs one comparison per decision.
type Probe func(kind string, j *job.Job)

// Probe decision kinds.
const (
	ProbeBackfill      = "backfill"       // job started ahead of the queue head
	ProbePreemptVictim = "preempt-victim" // job preempted for an urgent arrival
	ProbeReservation   = "reservation"    // advance reservation activated
	ProbeOutageBegin   = "outage-begin"   // maintenance window opened
	ProbeOutageEnd     = "outage-end"     // maintenance window closed
	ProbeCrash         = "crash"          // unplanned machine crash began
	ProbeCrashKill     = "crash-kill"     // running job killed by a crash
	ProbeNodeFail      = "node-fail"      // partial node failure began
	ProbeNodeKill      = "node-kill"      // running job killed by node loss
	ProbeNodeRestore   = "node-restore"   // failed nodes returned to service
	ProbeGangHold      = "gang-hold"      // gang member granted an assembly hold
	ProbeGangStart     = "gang-start"     // all-or-nothing gang launch
	ProbeAgeEscalate   = "age-escalate"   // starved job escalated past the skip bound
)

// outage is an unavailability window — planned maintenance or unplanned
// crash repair — during which no batch work may execute. Overlapping
// windows are merged into one canonical window (see addOutage); absorbed
// windows stay reachable from their already-armed kernel events with
// merged set, which turns those events into no-ops.
type outage struct {
	start, end des.Time
	merged     bool
}

// capLoss is a partial-capacity window: cores batch cores are out of
// service over [start, end) while the rest of the machine keeps running.
type capLoss struct {
	start, end des.Time
	cores      int
}

// reservation is a committed block of cores over a future interval.
type reservation struct {
	id    string
	cores int
	start des.Time
	end   des.Time
	// claim, if non-nil, is started inside the reservation at its start.
	claim *job.Job
}

// running tracks an executing job. Records are pooled per scheduler (see
// acquire and release): a record is made once, with its end handler bound
// to it, and reused for every later start, so a warm start→finish cycle
// allocates nothing.
type running struct {
	j        *job.Job // nil while the record is in the pool
	endTimer des.Timer
	endsBy   des.Time // guaranteed end: start + requested walltime
	// end finishes this record; bound once, when the record is made.
	end    des.Handler
	pos    int32 // index in Scheduler.running
	killed bool  // the end event is a walltime kill
	inResv bool  // the job runs inside a reservation
}

// Scheduler is the batch system of one machine.
type Scheduler struct {
	K      *des.Kernel
	M      *grid.Machine
	engine PolicyEngine
	// site and machine are M.Site and M.ID in the run's symbol table,
	// stamped on every job the scheduler accepts.
	site, machine job.Sym
	// CheckpointRestart, when true, lets preempted jobs resume from a
	// checkpoint: only work since the last checkpoint interval boundary is
	// lost, instead of the whole run. Production urgent-computing
	// deployments differed exactly in whether victims checkpointed.
	CheckpointRestart bool
	// CheckpointInterval is the checkpoint cadence (default 15 min).
	CheckpointInterval des.Time
	// CheckpointOverhead, when positive (and CheckpointRestart is on), adds
	// this much walltime per completed checkpoint interval to every run —
	// the cost of writing the checkpoint. Zero models free checkpoints.
	CheckpointOverhead des.Time
	// FairShareHalfLife controls usage decay under the fairshare engine
	// (default 7 days): a user's past consumption halves every half-life,
	// so a usage burst stops penalizing its owner after a few periods.
	FairShareHalfLife des.Time
	// fsUsage tracks decayed per-user core-seconds for fairshare ordering,
	// keyed by the user's Sym; it is only ever looked up.
	fsUsage map[job.Sym]*fsEntry

	freeBatch int
	freeViz   int

	vizQueue   fifoQueue  // interactive partition queue
	running    []*running // in no order; each record knows its pos
	resvs      []*reservation
	outages    []*outage
	nodeLosses []*capLoss

	// free is the pool of released run records; made counts every record
	// ever allocated, so made-len(free) are live.
	free []*running
	made int

	listeners []Listener
	// Probe, when non-nil, observes scheduler-internal decisions.
	Probe Probe

	// Statistics.
	busyIntegral float64  // core-seconds of batch occupancy
	lastAccum    des.Time // last time busyIntegral was updated
	stats        Stats
	// reschedule guard: a listener reacting to a lifecycle event may submit
	// more work synchronously; instead of recursing, the outer reschedule
	// loops again.
	rescheduling   bool
	needReschedule bool

	// Planning buffers, reused so steady-state planning does not allocate.
	// pass is the working profile of an engine's Schedule pass; only
	// reschedule runs passes and its rescheduling guard keeps them from
	// nesting, so one buffer serves every pass. Listeners fired by
	// startBatch inside a pass may call EstimateStart or Reserve on this
	// scheduler, so the estimate plan lives in a buffer of its own and
	// Reserve allocates a fresh profile.
	pass profile
	// releases holds every running batch job's guaranteed end, kept sorted
	// by (end, job ID) as jobs start and stop (see track and untrack), so
	// buildProfile sweeps it without sorting.
	releases []profileRelease

	// Estimate cache. EstimateStart plans the whole queue conservatively,
	// and the metascheduler asks for an estimate or a bound on every
	// machine for every brokered arrival — profiling shows replanning
	// dominating large runs. stateVersion fingerprints every
	// queue/running/reservation/outage mutation. The first estimate or
	// bound after a state change pins the plan's origin (estVersion, estAt);
	// every later one at the same version reads the plan as of that
	// instant, at later virtual times too, where it is not what a replan
	// from the later now would give. Time passing alone does not rebuild
	// it. The plan itself is built lazily (estPlanned), so a bound that
	// lets the broker skip the estimate skips the replan too, and a later
	// estimate at the same version builds exactly the plan an estimate at
	// the pinned instant would have built. boundProfile is the same
	// instant's profile without the queue, the base of EstimateBound.
	stateVersion uint64
	estVersion   uint64
	estAt        des.Time
	estPlanned   bool
	estProfile   profile
	estTail      des.Time
	boundBuilt   bool
	boundProfile profile
}

// Stats is a point-in-time snapshot of a scheduler's lifetime counters.
type Stats struct {
	Started      uint64 // jobs started (batch + viz)
	Finished     uint64 // jobs finished (completed or walltime-killed)
	Preemptions  uint64 // urgent preemptions plus unplanned kills
	Crashes      uint64 // whole-machine crash events
	CrashKills   uint64 // running jobs killed by crashes
	NodeFailures uint64 // partial node-failure events
	NodeKills    uint64 // running jobs killed by node losses
	// Engine holds engine-specific counters (gang holds, aging
	// escalations); zero-valued for engines without those mechanisms.
	Engine EngineStats
}

// fsEntry is one user's decayed usage accumulator.
type fsEntry struct {
	usage float64
	at    des.Time
}

// NewNamed returns a scheduler for machine m driven by kernel k, running
// the named policy engine from the registry. syms is the run's symbol
// table, the one the submitted jobs' Syms index.
func NewNamed(k *des.Kernel, syms *job.Symbols, m *grid.Machine, engine string) (*Scheduler, error) {
	e, err := NewEngine(engine)
	if err != nil {
		return nil, err
	}
	return NewWith(k, syms, m, e), nil
}

// MustNamed is NewNamed for compile-time-literal engine names; it panics
// on an unknown name. Meant for examples and tests.
func MustNamed(k *des.Kernel, syms *job.Symbols, m *grid.Machine, engine string) *Scheduler {
	s, err := NewNamed(k, syms, m, engine)
	if err != nil {
		panic("sched: " + err.Error())
	}
	return s
}

// NewWith returns a scheduler for machine m around a caller-built engine
// instance (registered or not). The engine must not be shared between
// schedulers.
func NewWith(k *des.Kernel, syms *job.Symbols, m *grid.Machine, e PolicyEngine) *Scheduler {
	return &Scheduler{
		K:         k,
		M:         m,
		engine:    e,
		site:      syms.Intern(m.Site),
		machine:   syms.Intern(m.ID),
		freeBatch: m.BatchCores(),
		freeViz:   m.VizCores(),
		fsUsage:   make(map[job.Sym]*fsEntry),
		// Version 0 is the estimate cache's "never pinned".
		stateVersion: 1,
	}
}

// Subscribe registers a lifecycle listener.
func (s *Scheduler) Subscribe(l Listener) { s.listeners = append(s.listeners, l) }

func (s *Scheduler) emit(kind EventKind, j *job.Job) {
	// Every lifecycle transition changes the availability picture.
	s.stateVersion++
	for _, l := range s.listeners {
		l(Event{Kind: kind, Job: j})
	}
}

func (s *Scheduler) probe(kind string, j *job.Job) {
	// Decisions without a lifecycle event (reservations, outages) still
	// move the profile; over-invalidating the estimate cache is harmless.
	s.stateVersion++
	if s.Probe != nil {
		s.Probe(kind, j)
	}
}

// FreeBatchCores returns the currently idle batch cores.
func (s *Scheduler) FreeBatchCores() int { return s.freeBatch }

// QueueLen returns the number of jobs waiting in the batch queue.
func (s *Scheduler) QueueLen() int { return s.engine.Len() }

// RunningCount returns the number of executing jobs.
func (s *Scheduler) RunningCount() int { return len(s.running) }

// Stats returns a snapshot of the scheduler's lifetime counters,
// including engine-specific ones.
func (s *Scheduler) Stats() Stats {
	st := s.stats
	if r, ok := s.engine.(statsReporter); ok {
		st.Engine = r.EngineStats()
	}
	return st
}

// OldestQueuedAge returns how long the longest-waiting queued batch job
// has been in the queue, or zero when the queue is empty.
func (s *Scheduler) OldestQueuedAge() des.Time {
	queued := s.engine.Queued()
	if len(queued) == 0 {
		return 0
	}
	oldest := queued[0].SubmitTime
	for _, j := range queued[1:] {
		if j.SubmitTime < oldest {
			oldest = j.SubmitTime
		}
	}
	return s.K.Now() - oldest
}

// Utilization returns the time-averaged fraction of batch cores busy since
// simulation start.
func (s *Scheduler) Utilization() float64 {
	s.accumulate()
	total := float64(s.M.BatchCores()) * float64(s.K.Now())
	if total == 0 {
		return 0
	}
	return s.busyIntegral / total
}

func (s *Scheduler) accumulate() {
	now := s.K.Now()
	busy := float64(s.M.BatchCores() - s.freeBatch)
	s.busyIntegral += busy * float64(now-s.lastAccum)
	s.lastAccum = now
}

// Submit places a job in the appropriate queue. Jobs whose core request can
// never fit the machine are rejected (state Failed). Urgent jobs may
// trigger preemption immediately.
func (s *Scheduler) Submit(j *job.Job) {
	if err := j.Validate(); err != nil {
		panic("sched: " + err.Error())
	}
	j.Site = s.site
	j.Machine = s.machine
	j.SubmitTime = s.K.Now()

	switch j.QOS {
	case job.QOSInteractive:
		if j.Cores > s.M.VizCores() {
			s.reject(j)
			return
		}
		j.State = job.StateQueued
		s.vizQueue.Push(j)
		s.emit(EventQueued, j)
		s.dispatchViz()
	case job.QOSUrgent:
		if j.Cores > s.M.BatchCores() || !s.M.UrgentCapable {
			s.reject(j)
			return
		}
		j.State = job.StateQueued
		s.emit(EventQueued, j)
		s.startUrgent(j)
	default:
		if j.Cores > s.M.BatchCores() {
			s.reject(j)
			return
		}
		j.State = job.StateQueued
		s.engine.Push(j)
		s.emit(EventQueued, j)
		s.reschedule()
	}
}

// reject fails a job that can never fit. EventRejected is the job's
// terminal event, so neither reject nor Submit reads it afterwards.
func (s *Scheduler) reject(j *job.Job) {
	j.State = job.StateFailed
	s.emit(EventRejected, j)
}

// ---- Batch partition ----

// acquire returns a run record for j from the pool, making one (and binding
// its end handler) only when the pool is empty.
func (s *Scheduler) acquire(j *job.Job, endsBy des.Time, inResv, killed bool) *running {
	var r *running
	if n := len(s.free); n > 0 {
		r = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		r = &running{}
		r.end = func(*des.Kernel) { s.finish(r) }
		s.made++
	}
	r.j, r.endsBy, r.inResv, r.killed = j, endsBy, inResv, killed
	return r
}

// release returns a record to the pool; untrack calls it, so every exit
// path (finish, preempt, kill) releases exactly once. Callers read what
// they need from the record first: it may back the next start before they
// return.
func (s *Scheduler) release(r *running) {
	if r.j == nil {
		panic(fmt.Sprintf("sched %s: run record released twice", s.M.ID))
	}
	*r = running{end: r.end}
	s.free = append(s.free, r)
}

// liveRecords returns the number of pooled records out of the pool.
func (s *Scheduler) liveRecords() int { return s.made - len(s.free) }

// track records r as running. A batch job also enters the release list at
// its guaranteed end; interactive sessions hold viz cores, which the batch
// profile never plans.
func (s *Scheduler) track(r *running) {
	r.pos = int32(len(s.running))
	s.running = append(s.running, r)
	if r.j.QOS == job.QOSInteractive {
		return
	}
	rel := profileRelease{end: r.endsBy, cores: r.j.Cores, id: r.j.ID}
	i, _ := slices.BinarySearchFunc(s.releases, rel, compareReleases)
	s.releases = slices.Insert(s.releases, i, rel)
}

// untrack removes r from the running set and from the release list, and
// returns it to the pool.
func (s *Scheduler) untrack(r *running) {
	last := int32(len(s.running) - 1)
	if r.pos > last || s.running[r.pos] != r {
		panic(fmt.Sprintf("sched %s: run record not in the running set", s.M.ID))
	}
	moved := s.running[last]
	s.running[r.pos], moved.pos = moved, r.pos
	s.running[last] = nil
	s.running = s.running[:last]
	if r.j.QOS != job.QOSInteractive {
		i, ok := slices.BinarySearchFunc(s.releases,
			profileRelease{end: r.endsBy, id: r.j.ID}, compareReleases)
		if !ok {
			panic(fmt.Sprintf("sched %s: job %d missing from the release list", s.M.ID, r.j.ID))
		}
		s.releases = slices.Delete(s.releases, i, i+1)
	}
	s.release(r)
}

// compareReleases orders releases by end, then by job ID.
func compareReleases(a, b profileRelease) int {
	if c := cmp.Compare(a.end, b.end); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// buildProfile rebuilds p as the availability profile from running batch
// jobs' guaranteed ends plus all committed reservations, as of the instant
// now, and returns it. now is the current virtual time except for the
// estimate cache, which builds as of its pinned instant; the state must be
// the state at that instant (see pinEstimate). Claimed-and-running
// reservation jobs are already accounted as running jobs. p's storage is
// reused, so the caller must own it exclusively (see passProfile and
// EstimateStart).
func (s *Scheduler) buildProfile(p *profile, now des.Time) *profile {
	busy := 0
	for _, e := range s.releases {
		busy += e.cores
	}
	free := s.M.BatchCores() - busy
	if free < 0 {
		panic(fmt.Sprintf("sched: profile overcommitted at %v: %d cores short", now, -free))
	}
	// Running jobs hold cores from now until their guaranteed end. A job
	// whose guaranteed end is at or before the current instant may still be
	// running — its finish event fires later within this timestamp — so
	// hold its cores for an infinitesimal sliver to keep profile and
	// partition state consistent; the finish event triggers a fresh
	// reschedule at the same virtual time. Past 2^24 s a 1e-9 sliver rounds
	// away, so it falls back to the next representable instant.
	sliver := now + 1e-9
	if sliver == now {
		sliver = des.Time(math.Nextafter(float64(now), math.Inf(1)))
	}
	// One sweep over the sorted release list turns it into the step
	// function: free cores start at capacity minus everything running and
	// rise at each distinct end time. Expired ends sort first but release
	// at the sliver, and a raw end strictly between now and the sliver
	// comes before it, so their cores are held back until the sweep passes
	// the sliver. A job that never ends releases nothing.
	p.points = append(p.points[:0], profilePoint{t: now, free: free})
	held := 0
	for _, e := range s.releases {
		if e.end <= now {
			held += e.cores
			continue
		}
		if held > 0 && e.end >= sliver {
			free += held
			held = 0
			p.rise(sliver, free)
		}
		if e.end == des.Forever {
			break
		}
		free += e.cores
		p.rise(e.end, free)
	}
	if held > 0 {
		p.rise(sliver, free+held)
	}
	for _, rv := range s.resvs {
		start := rv.start
		if start < now {
			start = now
		}
		if rv.end > start {
			p.subtract(start, rv.end, rv.cores)
		}
	}
	// Partial node failures remove cores from the free pool. deduct (not
	// capTo) because lost cores stack with occupancy: a machine running 78
	// of 128 cores that loses 50 has zero schedulable headroom, not 50.
	for _, l := range s.nodeLosses {
		start := l.start
		if start < now {
			start = now
		}
		if l.end > start {
			p.deduct(start, l.end, l.cores)
		}
	}
	// Maintenance outages blank the machine regardless of other state.
	for _, o := range s.outages {
		start := o.start
		if start < now {
			start = now
		}
		if o.end > start {
			p.capTo(start, o.end, 0)
		}
	}
	return p
}

// passProfile rebuilds and returns the working profile of a scheduling pass.
// Engines call it at the start of Schedule and may mutate the result freely
// until the pass returns; the next pass overwrites it.
func (s *Scheduler) passProfile() *profile { return s.buildProfile(&s.pass, s.K.Now()) }

// ---- Maintenance outages ----

// ScheduleOutage declares a maintenance window [start, end): no batch job
// may be executing during it. Jobs whose walltime would cross into the
// window are not started (the machine drains), and any job still running
// when the outage begins is preempted and requeued. Interactive/viz
// sessions are unaffected (viz partitions were typically serviced
// separately).
func (s *Scheduler) ScheduleOutage(start, end des.Time) error {
	now := s.K.Now()
	if start < now || end <= start {
		return fmt.Errorf("sched %s: invalid outage window [%v,%v)", s.M.ID, start, end)
	}
	s.addOutage(start, end)
	s.reschedule()
	return nil
}

// addOutage records an unavailability window and arms its boundary events.
// Overlapping windows merge into one canonical window covering the union —
// a crash landing inside an already-scheduled maintenance window must not
// re-release cores or fire a second begin/end pair. Absorbed windows are
// removed from the active list and flagged merged so their already-armed
// kernel events no-op. Abutting windows (one's end equal to the other's
// start) stay separate: there is an instant between them where the machine
// is up, and each pair of boundary events is a real transition.
func (s *Scheduler) addOutage(start, end des.Time) *outage {
	// An existing live window that already covers the request absorbs it:
	// no new state, no new events.
	for _, o := range s.outages {
		if o.start <= start && end <= o.end {
			return o
		}
	}
	// Otherwise take the union with every strictly overlapping window.
	for {
		absorbed := false
		for i, o := range s.outages {
			if start < o.end && o.start < end {
				if o.start < start {
					start = o.start
				}
				if o.end > end {
					end = o.end
				}
				o.merged = true
				s.outages = append(s.outages[:i], s.outages[i+1:]...)
				absorbed = true
				break
			}
		}
		if !absorbed {
			break
		}
	}
	o := &outage{start: start, end: end}
	s.outages = append(s.outages, o)
	s.stateVersion++
	now := s.K.Now()
	if start >= now {
		s.K.AtNamed(start, "outage-start", func(*des.Kernel) {
			if o.merged {
				return
			}
			s.probe(ProbeOutageBegin, nil)
			// The window just blanked the machine: engine-held claims on
			// future capacity are void, all at once.
			s.engine.Disrupted(s)
			// Preempt stragglers (only possible when the outage was
			// announced with less lead time than running walltimes).
			var victims []*running
			for _, r := range s.running {
				if r.j.QOS != job.QOSInteractive {
					victims = append(victims, r)
				}
			}
			sort.Slice(victims, func(a, b int) bool { return victims[a].j.ID < victims[b].j.ID })
			for _, v := range victims {
				s.preempt(v)
			}
		})
	}
	// When start < now the window extends one already in progress (a crash
	// merged into an active maintenance window): the begin transition
	// already fired, only the close moves.
	s.K.AtNamed(end, "outage-end", func(*des.Kernel) {
		if o.merged {
			return
		}
		s.probe(ProbeOutageEnd, nil)
		for i, oo := range s.outages {
			if oo == o {
				s.outages = append(s.outages[:i], s.outages[i+1:]...)
				break
			}
		}
		s.reschedule()
	})
	return o
}

// reschedule runs the active policy engine over the batch queue.
func (s *Scheduler) reschedule() {
	if s.rescheduling {
		s.needReschedule = true
		return
	}
	s.rescheduling = true
	s.stateVersion++
	defer func() { s.rescheduling = false }()
	for {
		s.needReschedule = false
		s.engine.Schedule(s)
		if !s.needReschedule {
			return
		}
	}
}

// ---- Fair share ----

// fsDecayed returns a user's usage decayed to the current instant.
func (s *Scheduler) fsDecayed(user job.Sym) float64 {
	e, ok := s.fsUsage[user]
	if !ok {
		return 0
	}
	half := s.FairShareHalfLife
	if half <= 0 {
		half = 7 * des.Day
	}
	dt := float64(s.K.Now() - e.at)
	u := e.usage * math.Exp(-math.Ln2*dt/float64(half))
	// Below one core-second the history is noise; treating it as zero
	// keeps long-dormant users indistinguishable from new ones.
	if u < 1 {
		return 0
	}
	return u
}

// fsCharge folds finished usage into the user's decayed accumulator.
func (s *Scheduler) fsCharge(user job.Sym, coreSeconds float64) {
	e := s.fsUsage[user]
	if e == nil {
		s.fsUsage[user] = &fsEntry{usage: coreSeconds, at: s.K.Now()}
		return
	}
	e.usage = s.fsDecayed(user) + coreSeconds
	e.at = s.K.Now()
}

// startableNow reports whether j can start immediately under profile p
// (which must already reflect running jobs and reservations).
func (s *Scheduler) startableNow(p *profile, j *job.Job) bool {
	now := s.K.Now()
	return p.minFree(now, now+j.ReqWalltime) >= j.Cores
}

// startBatch begins execution of a batch job immediately.
func (s *Scheduler) startBatch(j *job.Job, fromResID string) {
	s.accumulate()
	s.freeBatch -= j.Cores
	if s.freeBatch < 0 {
		panic(fmt.Sprintf("sched %s: batch partition overcommitted by %d cores", s.M.ID, -s.freeBatch))
	}
	now := s.K.Now()
	j.State = job.StateRunning
	j.StartTime = now
	dur := j.RunTime
	if s.CheckpointRestart && s.CheckpointOverhead > 0 {
		// Each completed checkpoint interval costs its write time.
		interval := s.CheckpointInterval
		if interval <= 0 {
			interval = 15 * des.Minute
		}
		dur += des.Time(int64(dur/interval)) * s.CheckpointOverhead
	}
	killed := false
	if dur > j.ReqWalltime {
		dur = j.ReqWalltime
		killed = true
	}
	r := s.acquire(j, now+j.ReqWalltime, fromResID != "", killed)
	r.endTimer = s.K.ScheduleNamed(dur, "job-end", r.end)
	s.track(r)
	s.stats.Started++
	s.emit(EventStarted, j)
}

// finish completes a running batch or viz job. EventFinished is the job's
// terminal event: its listeners may release the job, so finish reads
// nothing of it after the emit.
func (s *Scheduler) finish(r *running) {
	j, killed := r.j, r.killed
	s.untrack(r)
	j.EndTime = s.K.Now()
	if killed {
		j.State = job.StateKilled
	} else {
		j.State = job.StateCompleted
	}
	viz := j.QOS == job.QOSInteractive
	if viz {
		s.freeViz += j.Cores
	} else {
		s.accumulate()
		s.freeBatch += j.Cores
		s.engine.JobFinished(s, j)
	}
	s.stats.Finished++
	s.emit(EventFinished, j)
	if viz {
		s.dispatchViz()
	} else {
		s.reschedule()
	}
}

// ---- Urgent computing ----

// startUrgent starts an urgent job immediately, preempting the most
// recently started normal jobs if needed. Preempted jobs are requeued at
// the head of the batch queue and restart from scratch.
func (s *Scheduler) startUrgent(j *job.Job) {
	need := j.Cores - s.freeBatch
	if need > 0 {
		// Victims: running normal-QOS jobs, most recently started first
		// (minimizes lost work), deterministic tie-break by job ID.
		var victims []*running
		for _, r := range s.running {
			if r.j.QOS == job.QOSNormal && !r.inResv {
				victims = append(victims, r)
			}
		}
		sort.Slice(victims, func(a, b int) bool {
			if victims[a].j.StartTime != victims[b].j.StartTime {
				return victims[a].j.StartTime > victims[b].j.StartTime
			}
			return victims[a].j.ID > victims[b].j.ID
		})
		for _, v := range victims {
			if need <= 0 {
				break
			}
			need -= v.j.Cores
			s.preempt(v)
		}
	}
	if j.Cores > s.freeBatch {
		// Even preempting everything normal was not enough (urgent jobs or
		// reservation claims hold the rest). Queue at the head.
		s.engine.PushFront(j)
		return
	}
	s.startBatch(j, "")
}

// preempt stops a running job and requeues it at the head of the queue.
// Without checkpointing the job restarts from scratch; with it, completed
// checkpoint intervals are credited and only the tail is redone.
func (s *Scheduler) preempt(r *running) {
	j := r.j
	s.K.Cancel(r.endTimer)
	s.untrack(r)
	s.accumulate()
	s.freeBatch += j.Cores
	if s.CheckpointRestart {
		s.checkpointCredit(j)
	}
	j.State = job.StatePreempted
	j.Preemptions++
	s.stats.Preemptions++
	s.probe(ProbePreemptVictim, j)
	s.emit(EventPreempted, j)
	// Requeue at the head, preserving the original submit time so
	// accumulated wait is reflected in metrics.
	j.State = job.StateQueued
	s.engine.PushFront(j)
}

// checkpointCredit credits completed checkpoint intervals against a stopped
// job's remaining work and walltime request, returning the amount of run
// time credited. With CheckpointOverhead, each completed interval cost
// extra walltime that yields no credit.
func (s *Scheduler) checkpointCredit(j *job.Job) des.Time {
	interval := s.CheckpointInterval
	if interval <= 0 {
		interval = 15 * des.Minute
	}
	ran := s.K.Now() - j.StartTime
	completed := int64(ran / (interval + s.CheckpointOverhead))
	checkpointed := des.Time(completed) * interval
	j.RunTime -= checkpointed
	if j.RunTime < 1 {
		j.RunTime = 1
	}
	// The walltime request shrinks with the remaining work, keeping
	// the request honest for backfill planning.
	if j.ReqWalltime > j.RunTime {
		remaining := j.ReqWalltime - checkpointed
		if remaining < j.RunTime {
			remaining = j.RunTime
		}
		j.ReqWalltime = remaining
	}
	return checkpointed
}

// ---- Unplanned failures (fault-injection interface) ----

// killRunning stops a running batch job because its hardware failed. Unlike
// preempt it does not requeue — the caller routes the victim (failover to
// another machine, or Requeue here) — and it charges the work lost since
// the last checkpoint (or the whole run) to the job's wasted-work account.
func (s *Scheduler) killRunning(r *running, kind string) {
	j := r.j
	s.K.Cancel(r.endTimer)
	s.untrack(r)
	s.accumulate()
	s.freeBatch += j.Cores
	ran := s.K.Now() - j.StartTime
	var checkpointed des.Time
	if s.CheckpointRestart {
		checkpointed = s.checkpointCredit(j)
	}
	if lost := float64(ran-checkpointed) * float64(j.Cores); lost > 0 {
		j.WastedCoreSeconds += lost
	}
	j.State = job.StatePreempted
	j.Preemptions++
	s.stats.Preemptions++
	s.probe(kind, j)
	s.emit(EventKilled, j)
}

// Crash takes the whole machine down until the given repair time: every
// running batch job (including reservation claims; the viz partition rides
// out crashes like it does maintenance) is killed with its lost work
// charged, and an unavailability window blocks new starts until repair.
// The window merges with any overlapping maintenance window rather than
// double-releasing cores. Engine-held assembly claims are released
// atomically before victims are routed. Victims are returned in job-ID
// order, in state Preempted, for the caller to re-route. until must be in
// the future; past-or-now values are clamped to an instant after now.
func (s *Scheduler) Crash(until des.Time) []*job.Job {
	now := s.K.Now()
	if until <= now {
		until = now + 1e-9
	}
	s.stats.Crashes++
	s.probe(ProbeCrash, nil)
	s.engine.Disrupted(s)
	var victims []*running
	for _, r := range s.running {
		if r.j.QOS != job.QOSInteractive {
			victims = append(victims, r)
		}
	}
	sort.Slice(victims, func(a, b int) bool { return victims[a].j.ID < victims[b].j.ID })
	out := make([]*job.Job, 0, len(victims))
	for _, v := range victims {
		out = append(out, v.j)
		s.killRunning(v, ProbeCrashKill)
		s.stats.CrashKills++
	}
	s.addOutage(now, until)
	s.reschedule()
	return out
}

// Requeue puts a crash or node-failure victim back at the head of this
// machine's batch queue, preserving its original submit time, and kicks the
// scheduler. The complement of metasched failover: what stays, stays here.
func (s *Scheduler) Requeue(j *job.Job) {
	j.State = job.StateQueued
	s.engine.PushFront(j)
	s.stateVersion++
	s.emit(EventQueued, j)
	s.reschedule()
}

// FailNodes takes cores batch cores out of service until the given time.
// The machine keeps running; if the surviving capacity cannot hold the
// current load, the most recently started batch jobs are killed (least lost
// work) and requeued locally. Returns the victims (already requeued), in
// job-ID order.
func (s *Scheduler) FailNodes(cores int, until des.Time) []*job.Job {
	now := s.K.Now()
	if cores <= 0 || until <= now {
		return nil
	}
	if cores > s.M.BatchCores() {
		cores = s.M.BatchCores()
	}
	s.stats.NodeFailures++
	s.probe(ProbeNodeFail, nil)
	// Capacity shrank under the engine: assembly holds sized for the old
	// machine are void, all at once.
	s.engine.Disrupted(s)
	loss := &capLoss{start: now, end: until, cores: cores}
	s.nodeLosses = append(s.nodeLosses, loss)
	s.stateVersion++
	s.K.AtNamed(until, "nodes-restore", func(*des.Kernel) {
		for i, l := range s.nodeLosses {
			if l == loss {
				s.nodeLosses = append(s.nodeLosses[:i], s.nodeLosses[i+1:]...)
				break
			}
		}
		s.probe(ProbeNodeRestore, nil)
		s.reschedule()
	})
	// Survivors must fit the remaining capacity: kill most recently started
	// first, deterministic tie-break by job ID (same order startUrgent uses).
	totalLoss := 0
	for _, l := range s.nodeLosses {
		if l.end > now {
			totalLoss += l.cores
		}
	}
	if totalLoss > s.M.BatchCores() {
		totalLoss = s.M.BatchCores()
	}
	surviving := s.M.BatchCores() - totalLoss
	busy := s.M.BatchCores() - s.freeBatch
	var victims []*job.Job
	if busy > surviving {
		var cands []*running
		for _, r := range s.running {
			if r.j.QOS != job.QOSInteractive {
				cands = append(cands, r)
			}
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].j.StartTime != cands[b].j.StartTime {
				return cands[a].j.StartTime > cands[b].j.StartTime
			}
			return cands[a].j.ID > cands[b].j.ID
		})
		for _, v := range cands {
			if busy <= surviving {
				break
			}
			busy -= v.j.Cores
			victims = append(victims, v.j)
			s.killRunning(v, ProbeNodeKill)
			s.stats.NodeKills++
		}
		sort.Slice(victims, func(a, b int) bool { return victims[a].ID < victims[b].ID })
		// Push front in reverse so the lowest job ID ends up at the head.
		for i := len(victims) - 1; i >= 0; i-- {
			victims[i].State = job.StateQueued
			s.engine.PushFront(victims[i])
		}
		for _, v := range victims {
			s.emit(EventQueued, v)
		}
	}
	s.reschedule()
	return victims
}

// ---- Interactive / visualization partition ----

func (s *Scheduler) dispatchViz() {
	for s.vizQueue.Len() > 0 {
		head := s.vizQueue.q[0]
		if head.Cores > s.freeViz {
			return
		}
		s.vizQueue.popFront()
		s.freeViz -= head.Cores
		now := s.K.Now()
		head.State = job.StateRunning
		head.StartTime = now
		dur := head.RunTime
		killed := false
		if dur > head.ReqWalltime {
			dur = head.ReqWalltime
			killed = true
		}
		r := s.acquire(head, now+head.ReqWalltime, false, killed)
		r.endTimer = s.K.ScheduleNamed(dur, "viz-end", r.end)
		s.track(r)
		s.stats.Started++
		s.emit(EventStarted, head)
	}
}

// ---- Advance reservations ----

// Reserve commits cores over [start, end). The reservation is honored by
// all engines: no job may be started whose execution rectangle would
// overlap it. Returns an error when the request is infeasible against
// currently running jobs and existing reservations.
func (s *Scheduler) Reserve(id string, cores int, start, end des.Time) error {
	now := s.K.Now()
	if cores <= 0 || cores > s.M.BatchCores() {
		return fmt.Errorf("sched %s: reservation %s: invalid cores %d", s.M.ID, id, cores)
	}
	if start < now || end <= start {
		return fmt.Errorf("sched %s: reservation %s: invalid window [%v,%v)", s.M.ID, id, start, end)
	}
	for _, rv := range s.resvs {
		if rv.id == id {
			return fmt.Errorf("sched %s: duplicate reservation %s", s.M.ID, id)
		}
	}
	// Reserve may run inside a pass (from a lifecycle listener), so it plans
	// against a profile of its own rather than either scheduler buffer.
	p := s.buildProfile(new(profile), s.K.Now())
	if p.minFree(start, end) < cores {
		return fmt.Errorf("sched %s: reservation %s: %d cores not free over [%v,%v)",
			s.M.ID, id, cores, start, end)
	}
	rv := &reservation{id: id, cores: cores, start: start, end: end}
	s.resvs = append(s.resvs, rv)
	s.stateVersion++
	s.K.AtNamed(start, "resv-start", func(*des.Kernel) { s.activateReservation(rv) })
	return nil
}

// ClaimReservation attaches job j to reservation id; j starts at the
// reservation's start time on the reserved cores.
func (s *Scheduler) ClaimReservation(id string, j *job.Job) error {
	for _, rv := range s.resvs {
		if rv.id == id {
			if rv.claim != nil {
				return fmt.Errorf("sched %s: reservation %s already claimed", s.M.ID, id)
			}
			if j.Cores > rv.cores {
				return fmt.Errorf("sched %s: job needs %d cores, reservation %s has %d",
					s.M.ID, j.Cores, id, rv.cores)
			}
			j.Site = s.site
			j.Machine = s.machine
			j.SubmitTime = s.K.Now()
			j.State = job.StateQueued
			rv.claim = j
			s.emit(EventQueued, j)
			return nil
		}
	}
	return fmt.Errorf("sched %s: no reservation %s", s.M.ID, id)
}

// CancelReservation drops an unclaimed reservation, releasing its window.
func (s *Scheduler) CancelReservation(id string) bool {
	for i, rv := range s.resvs {
		if rv.id == id && rv.claim == nil {
			s.resvs = append(s.resvs[:i], s.resvs[i+1:]...)
			s.reschedule()
			return true
		}
	}
	return false
}

// activateReservation fires at a reservation's start time: the claimed job
// begins executing; the reservation window shrinks to the claim (or is
// dropped when unclaimed), then normal scheduling resumes.
func (s *Scheduler) activateReservation(rv *reservation) {
	for i, r := range s.resvs {
		if r == rv {
			s.resvs = append(s.resvs[:i], s.resvs[i+1:]...)
			break
		}
	}
	if rv.claim != nil {
		// Cap the claimed job's walltime at the reservation window so the
		// profile guarantee stays sound.
		if rv.claim.ReqWalltime > rv.end-rv.start {
			rv.claim.ReqWalltime = rv.end - rv.start
		}
		s.probe(ProbeReservation, rv.claim)
		s.startBatch(rv.claim, rv.id)
	}
	s.reschedule()
}

// ---- Queue estimation (metascheduler interface) ----

// EstimateStart predicts the earliest start time of a hypothetical
// (cores, walltime) request submitted now, assuming conservative planning
// of everything currently queued. The estimate is what TeraGrid's
// batch-queue-prediction tools exposed to resource selectors. The
// metascheduler asks EstimateBound first and calls EstimateStart only on
// machines whose bound can still win.
func (s *Scheduler) EstimateStart(cores int, walltime des.Time) (des.Time, bool) {
	if cores <= 0 || cores > s.M.BatchCores() {
		return 0, false
	}
	s.pinEstimate()
	if !s.estPlanned {
		// The plan starts from the queue-free profile of the pinned
		// instant, which a bound at this version may already have built.
		p := &s.estProfile
		if s.boundBuilt {
			p.copyFrom(&s.boundProfile)
		} else {
			s.buildProfile(p, s.estAt)
		}
		// The estimator plans the queue in detail up to a depth bound, then
		// folds anything beyond it into an aggregate backlog term (total
		// requested core-seconds divided by machine capacity). Detailed
		// planning keeps estimates honest at normal depths — a truncated
		// plan would bias optimistic exactly when predictions matter —
		// while the aggregate tail keeps the call linear when a queue has
		// blown up. The queue is planned in the engine's priority order.
		const maxDetailed = 1000
		queued := s.engine.Queued()
		detail := len(queued)
		if detail > maxDetailed {
			detail = maxDetailed
		}
		pl := planner{p: p, origin: s.estAt}
		for _, q := range queued[:detail] {
			pl.place(q.Cores, q.ReqWalltime)
		}
		var tail des.Time
		if len(queued) > detail {
			var tailCS float64
			for _, q := range queued[detail:] {
				tailCS += float64(q.ReqWalltime) * float64(q.Cores)
			}
			tail = des.Time(tailCS / float64(s.M.BatchCores()))
		}
		s.estTail = tail
		s.estPlanned = true
	}
	at, ok := s.estProfile.earliestFit(s.K.Now(), cores, walltime)
	if !ok {
		return 0, false
	}
	return at + s.estTail, true
}

// EstimateBound returns a lower bound on what EstimateStart would return
// for the same request now, without planning the queue: ok is false only
// when EstimateStart's would be. When the plan of the current state is
// already built it returns the exact estimate, the tightest bound there is.
// Otherwise it fits the request into the profile without the queue, built
// as of the same pinned instant the plan would start from: placing queued
// jobs only removes capacity, so the planned fit cannot be earlier, and
// the backlog tail is never negative. Building it as of the pinned instant
// rather than now matters: a profile rebuilt now holds jobs whose
// guaranteed end has passed until a sliver after now, so it can start a
// request later than the plan pinned earlier does. Like EstimateStart it
// pins the plan's origin, so skipping the estimate after a bound leaves
// the cache where the estimate would have.
func (s *Scheduler) EstimateBound(cores int, walltime des.Time) (des.Time, bool) {
	if cores <= 0 || cores > s.M.BatchCores() {
		return 0, false
	}
	s.pinEstimate()
	if s.estPlanned {
		return s.EstimateStart(cores, walltime)
	}
	if !s.boundBuilt {
		s.buildProfile(&s.boundProfile, s.estAt)
		s.boundBuilt = true
	}
	return s.boundProfile.earliestFit(s.K.Now(), cores, walltime)
}

// pinEstimate fixes the estimate plan's origin at now when the state has
// changed since the last pin, and drops the plan and bound built for the
// old state.
func (s *Scheduler) pinEstimate() {
	if s.estVersion != s.stateVersion {
		s.estVersion, s.estAt = s.stateVersion, s.K.Now()
		s.estPlanned, s.boundBuilt = false, false
	}
}
