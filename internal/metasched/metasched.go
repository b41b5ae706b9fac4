// Package metasched implements the grid-level resource broker: it accepts
// jobs without a destination, chooses a machine under a selection policy
// (random, least-loaded, or best-estimated-start, mirroring the resource
// selection tools users had), tags the job as broker-routed, and supports
// cross-site co-allocation via synchronized advance reservations.
package metasched

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/sched"
	"github.com/tgsim/tgmod/internal/simrand"
)

// SelectPolicy chooses among candidate machines.
type SelectPolicy int

// Resource selection policies.
const (
	Random        SelectPolicy = iota // uniform choice among feasible machines
	LeastLoaded                       // fewest queued jobs, ties by free cores
	BestEstimated                     // earliest predicted start (queue prediction)
	DataAware                         // earliest predicted completion including input staging
)

// String returns the policy name.
func (p SelectPolicy) String() string {
	switch p {
	case Random:
		return "random"
	case LeastLoaded:
		return "least-loaded"
	case BestEstimated:
		return "best-estimated"
	case DataAware:
		return "data-aware"
	default:
		return fmt.Sprintf("select(%d)", int(p))
	}
}

// StageCost estimates seconds to move bytes from the data's home site to a
// destination site. The scenario layer backs this with the network model;
// tests can stub it.
type StageCost func(fromSite, toSite string, bytes int64) float64

// Broker is the metascheduler.
type Broker struct {
	K      *des.Kernel
	policy SelectPolicy
	rng    *simrand.Stream
	scheds []*sched.Scheduler // in machine-ID order
	// cands is feasible's result buffer. Every caller finishes reading it
	// before anything can re-enter the broker (a placed job's lifecycle
	// events fire only after the choice is made).
	cands []*sched.Scheduler
	// TagCoverage is the probability a routed job carries its broker
	// attribute (models partially deployed instrumentation).
	TagCoverage float64
	// DataHome maps a project to the site where its input data lives;
	// used by the DataAware policy. Empty means no staging needed.
	DataHome map[string]string
	// Stage estimates staging cost for DataAware; nil disables the term.
	Stage StageCost

	// OnFailover, when non-nil, observes every job the broker re-places
	// after a machine failure (see Failover).
	OnFailover func(j *job.Job, to string)

	routed    uint64
	coallocs  uint64
	failovers uint64
	nextCoID  int64
	perTarget map[string]uint64
	// unhealthyUntil marks machines the broker avoids until the given
	// virtual time (crash repair + cooldown). Lazily allocated so brokers
	// in fault-free runs carry no extra state.
	unhealthyUntil map[string]des.Time
}

// New returns a broker over the given schedulers.
func New(k *des.Kernel, policy SelectPolicy, rng *simrand.Stream, scheds []*sched.Scheduler) *Broker {
	scheds = slices.Clone(scheds)
	slices.SortFunc(scheds, func(a, b *sched.Scheduler) int { return cmp.Compare(a.M.ID, b.M.ID) })
	return &Broker{
		K: k, policy: policy, rng: rng, scheds: scheds,
		TagCoverage: 1.0,
		DataHome:    make(map[string]string),
		perTarget:   make(map[string]uint64),
	}
}

// Policy returns the selection policy.
func (b *Broker) Policy() SelectPolicy { return b.policy }

// Routed returns the number of jobs placed.
func (b *Broker) Routed() uint64 { return b.routed }

// RoutedTo returns how many jobs were placed on a machine.
func (b *Broker) RoutedTo(machine string) uint64 { return b.perTarget[machine] }

// CoAllocations returns the number of co-allocation groups placed.
func (b *Broker) CoAllocations() uint64 { return b.coallocs }

// Failovers returns the number of jobs re-placed after machine failures.
func (b *Broker) Failovers() uint64 { return b.failovers }

// MarkUnhealthy excludes a machine from routing until the given virtual
// time. Repeated marks keep the latest horizon.
func (b *Broker) MarkUnhealthy(machine string, until des.Time) {
	if b.unhealthyUntil == nil {
		b.unhealthyUntil = make(map[string]des.Time)
	}
	if until > b.unhealthyUntil[machine] {
		b.unhealthyUntil[machine] = until
	}
}

// Unhealthy reports whether a machine is currently excluded from routing.
func (b *Broker) Unhealthy(machine string) bool {
	return b.unhealthyUntil[machine] > b.K.Now()
}

// feasible returns schedulers that could ever run the job, in deterministic
// (machine-ID) order. The result is a reused buffer, valid until the next
// call.
func (b *Broker) feasible(j *job.Job) []*sched.Scheduler {
	out := b.cands[:0]
	for _, s := range b.scheds {
		if j.Cores <= s.M.BatchCores() && (j.QOS != job.QOSUrgent || s.M.UrgentCapable) &&
			!b.Unhealthy(s.M.ID) {
			out = append(out, s)
		}
	}
	b.cands = out
	return out
}

// Submit routes a job to a machine under the selection policy. Jobs that
// fit nowhere are marked failed.
func (b *Broker) Submit(j *job.Job) {
	cands := b.feasible(j)
	if len(cands) == 0 {
		j.State = job.StateFailed
		return
	}
	b.route(j, b.selectFrom(cands, j))
}

// selectFrom applies the selection policy to a non-empty candidate list.
func (b *Broker) selectFrom(cands []*sched.Scheduler, j *job.Job) *sched.Scheduler {
	var pick *sched.Scheduler
	switch b.policy {
	case Random:
		pick = cands[b.rng.Intn(len(cands))]
	case LeastLoaded:
		pick = cands[0]
		for _, s := range cands[1:] {
			if s.QueueLen() < pick.QueueLen() ||
				(s.QueueLen() == pick.QueueLen() && s.FreeBatchCores() > pick.FreeBatchCores()) {
				pick = s
			}
		}
	case BestEstimated:
		pick = b.bestBy(cands, j, func(s *sched.Scheduler, start des.Time) float64 {
			return float64(start)
		})
	case DataAware:
		pick = b.bestBy(cands, j, func(s *sched.Scheduler, start des.Time) float64 {
			cost := float64(start)
			if home, ok := b.DataHome[j.Project]; ok && b.Stage != nil && j.InputBytes > 0 {
				stage := b.Stage(home, s.M.Site, j.InputBytes)
				// Staging overlaps the queue wait; the binding term is
				// whichever finishes later.
				if stage > cost {
					cost = stage
				}
			}
			return cost
		})
	default:
		pick = cands[0]
	}
	return pick
}

// Failover re-places a job whose machine failed. The selection policy runs
// over the currently healthy feasible machines, but unlike Submit the job
// keeps its original attribution (no broker tag draw — failover is an
// infrastructure action, not a user modality choice). Returns false when no
// healthy machine fits; the caller decides what to do with the stranded job.
func (b *Broker) Failover(j *job.Job) bool {
	cands := b.feasible(j)
	if len(cands) == 0 {
		return false
	}
	pick := b.selectFrom(cands, j)
	b.failovers++
	if b.OnFailover != nil {
		b.OnFailover(j, pick.M.ID)
	}
	pick.Submit(j)
	return true
}

func (b *Broker) bestBy(cands []*sched.Scheduler, j *job.Job,
	score func(*sched.Scheduler, des.Time) float64) *sched.Scheduler {
	best := cands[0]
	bestScore := 0.0
	first := true
	for _, s := range cands {
		start, ok := s.EstimateStart(j.Cores, j.ReqWalltime)
		if !ok {
			continue
		}
		sc := score(s, start)
		if first || sc < bestScore {
			best, bestScore, first = s, sc, false
		}
	}
	return best
}

func (b *Broker) route(j *job.Job, s *sched.Scheduler) {
	if b.rng.Bool(b.TagCoverage) {
		j.Attr.BrokerJobID = fmt.Sprintf("broker-%d", j.ID)
		if j.Attr.SubmitVia == "" {
			j.Attr.SubmitVia = "metasched"
		}
	}
	b.routed++
	b.perTarget[s.M.ID]++
	s.Submit(j)
}

// CoAllocate places a group of jobs that must start simultaneously on
// distinct machines. The broker polls each machine's estimated start for
// its part, takes the latest, adds a safety margin, and books synchronized
// advance reservations. Returns the agreed start time.
func (b *Broker) CoAllocate(parts []*job.Job) (des.Time, error) {
	if len(parts) < 2 {
		return 0, fmt.Errorf("metasched: co-allocation needs ≥2 parts")
	}
	// Choose machines: greedily assign each part to a distinct feasible
	// machine with the earliest estimate.
	type assignment struct {
		s *sched.Scheduler
		j *job.Job
	}
	used := make(map[string]bool)
	assigns := make([]assignment, 0, len(parts))
	latest := b.K.Now()
	for _, j := range parts {
		var best *sched.Scheduler
		bestStart := des.Forever
		for _, s := range b.feasible(j) {
			if used[s.M.ID] {
				continue
			}
			start, ok := s.EstimateStart(j.Cores, j.ReqWalltime)
			if ok && start < bestStart {
				best, bestStart = s, start
			}
		}
		if best == nil {
			return 0, fmt.Errorf("metasched: no machine for co-allocation part needing %d cores", j.Cores)
		}
		used[best.M.ID] = true
		assigns = append(assigns, assignment{best, j})
		if bestStart > latest {
			latest = bestStart
		}
	}
	// Safety margin absorbs estimate error; reservations are firm.
	start := latest + 10*des.Minute
	b.nextCoID++
	coID := fmt.Sprintf("coalloc-%d", b.nextCoID)
	booked := make([]*sched.Scheduler, 0, len(assigns))
	for _, a := range assigns {
		if err := a.s.Reserve(coID, a.j.Cores, start, start+a.j.ReqWalltime); err != nil {
			for _, s := range booked {
				s.CancelReservation(coID)
			}
			return 0, fmt.Errorf("metasched: reservation failed: %w", err)
		}
		booked = append(booked, a.s)
	}
	for _, a := range assigns {
		a.j.Attr.CoAllocID = coID
		a.j.Attr.SubmitVia = "metasched"
		if err := a.s.ClaimReservation(coID, a.j); err != nil {
			return 0, fmt.Errorf("metasched: claim failed: %w", err)
		}
	}
	b.coallocs++
	return start, nil
}
