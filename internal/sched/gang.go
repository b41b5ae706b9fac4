package sched

import (
	"slices"

	"github.com/tgsim/tgmod/internal/job"
)

func init() { RegisterEngine("gang", func() PolicyEngine { return &gangEngine{} }) }

// gangEngine starts campaigns all-or-nothing, after kube-batch's gang
// scheduling: jobs sharing a co-allocation, ensemble, or workflow tag form
// a gang, and no member starts until every queued member can start
// together. While the head gang assembles, members that individually fit
// receive holds — capacity claims that block backfill from stealing the
// cores kube-batch-style — so assembly always makes progress as running
// work drains. Later gangs (and untagged singletons) backfill as whole
// units into whatever the holds leave free.
//
// Disruption semantics: a crash, node failure, or opening maintenance
// window voids every hold atomically (see PolicyEngine.Disrupted). Holds
// are planning constructs, not core allocations, so releasing them never
// frees partition state; the next pass re-derives them from whatever
// members remain queued. Requeued members re-enter next to their gang
// peers, keeping the campaign contiguous for reassembly.
type gangEngine struct {
	fifoQueue
	// asmKey tags the gang currently assembling at the head (SymNone = none);
	// held marks its members holding capacity claims.
	asmKey job.Sym
	held   map[job.ID]bool
	stats  EngineStats
	// scratch is fitsTogether's tentative profile, reused across calls.
	scratch profile
	// groups and groupIdx are gangs()'s storage, reused across calls: a
	// grouping lives until the next gangs() call. It holds queued jobs
	// only, and no job ends during a pass, so it never reads a released
	// job; the slots past each group's length are never read.
	groups   [][]*job.Job
	groupIdx map[job.Sym]int
}

func (e *gangEngine) Name() string { return "gang" }

func (e *gangEngine) EngineStats() EngineStats { return e.stats }

// gangKey returns the campaign tag jobs gang on: explicit co-allocation
// first, then ensemble, then workflow. Untagged jobs are singletons.
func gangKey(j *job.Job) job.Sym {
	if j.Attr.CoAllocID != job.SymNone {
		return j.Attr.CoAllocID
	}
	if j.Attr.EnsembleID != job.SymNone {
		return j.Attr.EnsembleID
	}
	return j.Attr.WorkflowID
}

// PushFront re-inserts a requeued job next to its queued gang peers when it
// has any (campaign-aware requeue: the gang stays contiguous and reassembles
// at its queue position), and at the true front otherwise.
func (e *gangEngine) PushFront(j *job.Job) {
	if key := gangKey(j); key != job.SymNone {
		for i, q := range e.q {
			if gangKey(q) == key {
				e.insert(i, j)
				return
			}
		}
	}
	e.fifoQueue.PushFront(j)
}

// Disrupted releases every assembly hold atomically: after a crash or
// outage the machine the holds were sized for no longer exists, and a
// surviving partial hold would pin cores for a gang the disruption broke
// up (or panic planning against an outage-blanked profile).
func (e *gangEngine) Disrupted(*Scheduler) {
	e.asmKey = job.SymNone
	e.held = nil
}

// gangs groups the queue into gangs ordered by each gang's earliest queued
// member, preserving member queue order within each gang. The grouping is
// valid until the next call, which reuses its storage.
func (e *gangEngine) gangs() [][]*job.Job {
	if e.groupIdx == nil {
		e.groupIdx = make(map[job.Sym]int)
	}
	clear(e.groupIdx)
	out := e.groups[:0]
	for _, j := range e.q {
		k := gangKey(j)
		if k != job.SymNone {
			if i, ok := e.groupIdx[k]; ok {
				out[i] = append(out[i], j)
				continue
			}
			e.groupIdx[k] = len(out)
		}
		// Open a group, reusing a previous call's member array if any.
		n := len(out)
		out = slices.Grow(out, 1)[:n+1]
		out[n] = append(out[n][:0], j)
	}
	e.groups = out
	return out
}

// gangCores sums a gang's core request.
func gangCores(g []*job.Job) int {
	total := 0
	for _, j := range g {
		total += j.Cores
	}
	return total
}

// fitsTogether reports whether every member of g can start now
// simultaneously under p (checked against the engine's scratch copy).
func (e *gangEngine) fitsTogether(s *Scheduler, p *profile, g []*job.Job) bool {
	now := s.K.Now()
	scratch := &e.scratch
	scratch.copyFrom(p)
	for _, j := range g {
		if !s.startableNow(scratch, j) {
			return false
		}
		scratch.subtract(now, now+j.ReqWalltime, j.Cores)
	}
	return true
}

// startGang launches every member of g and commits their rectangles to p.
// backfilled marks starts ahead of the head gang.
func (e *gangEngine) startGang(s *Scheduler, p *profile, g []*job.Job, backfilled bool) {
	now := s.K.Now()
	if len(g) > 1 {
		e.stats.GangStarts++
		s.probe(ProbeGangStart, g[0])
	}
	for _, j := range g {
		e.remove(j)
		if backfilled {
			s.probe(ProbeBackfill, j)
		}
		s.startBatch(j, "")
		p.subtract(now, now+j.ReqWalltime, j.Cores)
	}
}

// remove drops one job from the queue.
func (e *gangEngine) remove(j *job.Job) {
	for i, q := range e.q {
		if q == j {
			e.removeAt(i)
			return
		}
	}
}

func (e *gangEngine) Schedule(s *Scheduler) {
	now := s.K.Now()
	p := s.passProfile()
	// Launch whole gangs from the front while they fit together.
	for {
		gangs := e.gangs()
		if len(gangs) == 0 {
			e.asmKey, e.held = job.SymNone, nil
			return
		}
		head := gangs[0]
		if gangCores(head) > s.M.BatchCores() {
			// A gang that can never co-start (bigger than the machine)
			// degenerates to FCFS over its members: start the prefix that
			// fits, block on the rest.
			started := false
			for _, j := range head {
				if !s.startableNow(p, j) {
					break
				}
				e.remove(j)
				s.startBatch(j, "")
				p.subtract(now, now+j.ReqWalltime, j.Cores)
				started = true
			}
			if started {
				continue
			}
			e.holdAndBackfill(s, p, e.gangs())
			return
		}
		if !e.fitsTogether(s, p, head) {
			e.holdAndBackfill(s, p, gangs)
			return
		}
		e.startGang(s, p, head, false)
		e.asmKey, e.held = job.SymNone, nil
	}
}

// holdAndBackfill handles a blocked head gang: refresh its assembly holds,
// deduct them from the working profile, then backfill later whole gangs
// into what remains.
func (e *gangEngine) holdAndBackfill(s *Scheduler, p *profile, gangs [][]*job.Job) {
	now := s.K.Now()
	head := gangs[0]
	key := gangKey(head[0])
	if key != e.asmKey {
		// A different gang reached the head: prior holds are void.
		e.asmKey, e.held = key, nil
	}
	if key != job.SymNone && gangCores(head) <= s.M.BatchCores() {
		if e.held == nil {
			e.held = make(map[job.ID]bool)
		}
		// Existing holds claim their rectangles first; then new holds are
		// granted against what remains, so concurrent members never hold
		// the same cores twice. deduct, not subtract: urgent starts and
		// reservation claims bypass the engine, so a held core may have
		// been legitimately taken.
		for _, j := range head {
			if e.held[j.ID] {
				p.deduct(now, now+j.ReqWalltime, j.Cores)
			}
		}
		for _, j := range head {
			if !e.held[j.ID] && s.startableNow(p, j) {
				e.held[j.ID] = true
				e.stats.GangHolds++
				s.probe(ProbeGangHold, j)
				p.deduct(now, now+j.ReqWalltime, j.Cores)
			}
		}
	}
	// Shadow-plan the unheld head members: each gets its earliest feasible
	// slot committed into the working profile (EASY's shadow, per member),
	// so backfill below cannot push the gang's assembly into the future.
	for _, j := range head {
		if !e.held[j.ID] {
			p.place(now, j.Cores, j.ReqWalltime)
		}
	}
	// Backfill later gangs, whole or not at all, bounded like EASY's scan.
	const maxGangScan = 256
	for i := 1; i < len(gangs) && i <= maxGangScan; i++ {
		if s.freeBatch == 0 {
			return
		}
		g := gangs[i]
		if gangCores(g) > s.freeBatch {
			continue
		}
		if e.fitsTogether(s, p, g) {
			e.startGang(s, p, g, true)
		}
	}
}
