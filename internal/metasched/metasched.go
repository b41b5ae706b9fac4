// Package metasched implements the grid-level resource broker: it accepts
// jobs without a destination, chooses a machine under a selection policy
// (random, least-loaded, or best-estimated-start, mirroring the resource
// selection tools users had), tags the job as broker-routed, and supports
// cross-site co-allocation via synchronized advance reservations.
package metasched

import (
	"cmp"
	"fmt"
	"math"
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
	K *des.Kernel
	// syms is the run's symbol table, where the broker interns the tags it
	// stamps on jobs.
	syms   *job.Symbols
	policy SelectPolicy
	rng    *simrand.Stream
	scheds []*sched.Scheduler // in machine-ID order
	// cands is feasible's result buffer. Every caller finishes reading it
	// before anything can re-enter the broker (a placed job's lifecycle
	// events fire only after the choice is made).
	cands []*sched.Scheduler
	// ranked is earliest's bound-ordered buffer and coUsed CoAllocate's set
	// of machines already holding a part. Both belong to the broker, not
	// the package: brokers of parallel replications must not share them.
	ranked []candidate
	coUsed []*sched.Scheduler
	// TagCoverage is the probability a routed job carries its broker
	// attribute (models partially deployed instrumentation).
	TagCoverage float64
	// DataHome maps a project's Sym to the site where its input data
	// lives; used by the DataAware policy. Empty means no staging needed.
	DataHome map[job.Sym]string
	// Stage estimates staging cost for DataAware; nil disables the term.
	Stage StageCost

	// OnFailover, when non-nil, observes every job the broker re-places
	// after a machine failure (see Failover), before the job is submitted
	// to its new machine. A hook copies what it needs: once submitted,
	// the job may end and be released.
	OnFailover func(j *job.Job, to string)

	routed    uint64
	coallocs  uint64
	failovers uint64
	pruned    uint64
	nextCoID  int64
	perTarget map[string]uint64
	// unhealthyUntil marks machines the broker avoids until the given
	// virtual time (crash repair + cooldown). Lazily allocated so brokers
	// in fault-free runs carry no extra state.
	unhealthyUntil map[string]des.Time
}

// New returns a broker over the given schedulers. syms is the run's symbol
// table, the one the submitted jobs' Syms index.
func New(k *des.Kernel, syms *job.Symbols, policy SelectPolicy, rng *simrand.Stream, scheds []*sched.Scheduler) *Broker {
	scheds = slices.Clone(scheds)
	slices.SortFunc(scheds, func(a, b *sched.Scheduler) int { return cmp.Compare(a.M.ID, b.M.ID) })
	return &Broker{
		K: k, syms: syms, policy: policy, rng: rng, scheds: scheds,
		TagCoverage: 1.0,
		DataHome:    make(map[job.Sym]string),
		perTarget:   make(map[string]uint64),
	}
}

// Routed returns the number of jobs placed.
func (b *Broker) Routed() uint64 { return b.routed }

// RoutedTo returns how many jobs were placed on a machine.
func (b *Broker) RoutedTo(machine string) uint64 { return b.perTarget[machine] }

// CoAllocations returns the number of co-allocation groups placed.
func (b *Broker) CoAllocations() uint64 { return b.coallocs }

// Failovers returns the number of jobs re-placed after machine failures.
func (b *Broker) Failovers() uint64 { return b.failovers }

// Pruned returns the number of candidate start estimates the routing
// bound skipped (see earliest).
func (b *Broker) Pruned() uint64 { return b.pruned }

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
		pick = b.bestBy(cands, j, false)
	case DataAware:
		pick = b.bestBy(cands, j, true)
	default:
		pick = cands[0]
	}
	return pick
}

// Failover re-places a job whose machine failed. The selection policy runs
// over the currently healthy feasible machines, but unlike Submit the job
// keeps its original attribution (no broker tag draw — failover is an
// infrastructure action, not a user modality choice). It returns the
// machine the job went to, or false when no healthy machine fits; the
// caller decides what to do with the stranded job.
func (b *Broker) Failover(j *job.Job) (string, bool) {
	cands := b.feasible(j)
	if len(cands) == 0 {
		return "", false
	}
	pick := b.selectFrom(cands, j)
	b.failovers++
	if b.OnFailover != nil {
		b.OnFailover(j, pick.M.ID)
	}
	pick.Submit(j)
	return pick.M.ID, true
}

// bestBy returns the candidate with the least score, the earliest
// predicted start or, when staged, the later of start and input staging;
// among equal scores the first in machine-ID order wins. When no machine
// gives an estimate it returns cands[0].
func (b *Broker) bestBy(cands []*sched.Scheduler, j *job.Job, staged bool) *sched.Scheduler {
	if best, _, ok := b.earliest(cands, j, staged); ok {
		return best
	}
	return cands[0]
}

// candidate is one machine in earliest's bound order.
type candidate struct {
	s     *sched.Scheduler
	idx   int     // position in cands: among equal scores the lower wins
	bound float64 // score of the machine's start-time lower bound
	floor float64 // staging term of the score, -Inf when there is none
}

// score is a candidate's cost for a predicted start: the start, or the
// staging time when staging finishes later (staging overlaps the queue
// wait; the binding term is whichever finishes later). It is monotone
// non-decreasing in start, so the score of a lower bound on the start is a
// lower bound on the score.
func score(start des.Time, floor float64) float64 {
	cost := float64(start)
	if floor > cost {
		cost = floor
	}
	return cost
}

// floor returns the staging term of j's score on s: the time to stage j's
// input from its project's data home, or -Inf when j needs no staging or
// the broker has no cost model.
func (b *Broker) floor(s *sched.Scheduler, j *job.Job) float64 {
	if home, ok := b.DataHome[j.Project]; ok && b.Stage != nil && j.InputBytes > 0 {
		return b.Stage(home, s.M.Site, j.InputBytes)
	}
	return math.Inf(-1)
}

// earliest returns the candidate with the least (score, position in cands)
// among those with a start estimate, and its score; ok is false when no
// candidate has one. It is branch and bound: every candidate's score is
// first bounded from sched's EstimateBound, which plans no queue, and
// candidates are estimated in ascending (bound, position) order until the
// next one's bound cannot beat the best score so far. Every candidate not
// estimated then has a score at least its bound, and a later position on
// a tie, so the pick is exactly the pick of estimating every candidate.
// The staging term is computed once per candidate and shared by its bound
// and its score.
func (b *Broker) earliest(cands []*sched.Scheduler, j *job.Job, staged bool) (*sched.Scheduler, float64, bool) {
	ranked := b.ranked[:0]
	for i, s := range cands {
		bound, ok := s.EstimateBound(j.Cores, j.ReqWalltime)
		if !ok {
			continue // no estimate either
		}
		floor := math.Inf(-1)
		if staged {
			floor = b.floor(s, j)
		}
		ranked = append(ranked, candidate{s: s, idx: i, bound: score(bound, floor), floor: floor})
	}
	b.ranked = ranked
	slices.SortFunc(ranked, func(x, y candidate) int {
		if c := cmp.Compare(x.bound, y.bound); c != 0 {
			return c
		}
		return cmp.Compare(x.idx, y.idx)
	})
	var best *sched.Scheduler
	bestScore, bestIdx, estimated := 0.0, 0, 0
	for _, c := range ranked {
		if best != nil && (c.bound > bestScore || c.bound == bestScore && c.idx > bestIdx) {
			break
		}
		estimated++
		start, ok := c.s.EstimateStart(j.Cores, j.ReqWalltime)
		if !ok {
			continue
		}
		if sc := score(start, c.floor); best == nil || sc < bestScore || sc == bestScore && c.idx < bestIdx {
			best, bestScore, bestIdx = c.s, sc, c.idx
		}
	}
	b.pruned += uint64(len(cands) - estimated)
	return best, bestScore, best != nil
}

func (b *Broker) route(j *job.Job, s *sched.Scheduler) {
	if b.rng.Bool(b.TagCoverage) {
		j.Attr.BrokerJobID = b.syms.Intern(fmt.Sprintf("broker-%d", j.ID))
		if j.Attr.SubmitVia == job.SymNone {
			j.Attr.SubmitVia = job.SymMetasched
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
	chosen, latest, err := b.coAssign(parts)
	if err != nil {
		return 0, err
	}
	// Cancels and claims fire lifecycle listeners, which may re-enter the
	// broker, so the bookings work from a copy of its scratch set.
	machines := slices.Clone(chosen)
	// Safety margin absorbs estimate error; reservations are firm.
	start := latest + 10*des.Minute
	b.nextCoID++
	coID := fmt.Sprintf("coalloc-%d", b.nextCoID)
	coSym := b.syms.Intern(coID)
	for i, s := range machines {
		if err := s.Reserve(coID, parts[i].Cores, start, start+parts[i].ReqWalltime); err != nil {
			for _, booked := range machines[:i] {
				booked.CancelReservation(coID)
			}
			return 0, fmt.Errorf("metasched: reservation failed: %w", err)
		}
	}
	for i, s := range machines {
		j := parts[i]
		j.Attr.CoAllocID = coSym
		j.Attr.SubmitVia = job.SymMetasched
		if err := s.ClaimReservation(coID, j); err != nil {
			return 0, fmt.Errorf("metasched: claim failed: %w", err)
		}
	}
	b.coallocs++
	return start, nil
}

// coAssign greedily assigns each part to a distinct feasible machine with
// the earliest estimate, first in machine-ID order among equals, and
// returns the machines in part order and the latest of their estimates
// (now at the earliest). The machines live in the broker's scratch set
// coUsed, valid until the next call.
func (b *Broker) coAssign(parts []*job.Job) ([]*sched.Scheduler, des.Time, error) {
	b.coUsed = b.coUsed[:0]
	latest := b.K.Now()
	for _, j := range parts {
		cands := b.feasible(j)
		n := 0
		for _, s := range cands {
			if !slices.Contains(b.coUsed, s) {
				cands[n] = s
				n++
			}
		}
		best, start, ok := b.earliest(cands[:n], j, false)
		if !ok || des.Time(start) >= des.Forever {
			return nil, 0, fmt.Errorf("metasched: no machine for co-allocation part needing %d cores", j.Cores)
		}
		b.coUsed = append(b.coUsed, best)
		latest = max(latest, des.Time(start))
	}
	return b.coUsed, latest, nil
}
