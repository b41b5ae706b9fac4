// Package slo defines virtual-time service-level objectives for the
// simulated cyberinfrastructure and evaluates them incrementally while a
// run executes. Each objective binds a usage modality to a queue-wait
// threshold and a target good-fraction — "urgent jobs start within a
// minute, 99% of the time" — mirroring the paper's observation that
// different modalities demand categorically different responsiveness, not
// merely more throughput.
//
// Evaluation is event-driven on the scheduler seam (no polling events are
// added to the kernel): every first job start contributes one good or bad
// observation to its matching objectives, and rejections always count bad.
// Besides lifetime compliance, the evaluator maintains multi-window
// burn-rate state over ring buffers bucketed in virtual time, the standard
// SRE construction: a burn rate of 1.0 means the error budget (1 − target)
// is being consumed exactly as fast as it accrues; sustained rates above
// 1.0 over both a long and a short window indicate a real, ongoing breach
// rather than a transient spike.
package slo

import (
	"fmt"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/metrics"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// Objective is one service-level objective: jobs of Modality should begin
// executing within WaitThreshold, at least Target of the time.
type Objective struct {
	// Name identifies the objective in tables and telemetry labels.
	Name string
	// Modality selects which jobs the objective scores.
	Modality job.Modality
	// WaitThreshold is the maximum acceptable queue wait in virtual
	// seconds; a first start at or under it is a good event.
	WaitThreshold float64
	// Target is the required good fraction in [0,1); the error budget is
	// 1 − Target.
	Target float64
}

// Validate reports a malformed objective.
func (o Objective) Validate() error {
	switch {
	case o.Name == "":
		return fmt.Errorf("slo: objective with empty name")
	case o.Modality == "":
		return fmt.Errorf("slo: objective %s: empty modality", o.Name)
	case o.WaitThreshold < 0:
		return fmt.Errorf("slo: objective %s: negative wait threshold", o.Name)
	case o.Target <= 0 || o.Target >= 1:
		return fmt.Errorf("slo: objective %s: target %v outside (0,1)", o.Name, o.Target)
	}
	return nil
}

// DefaultObjectives returns the standard per-modality objectives. The
// thresholds encode the paper's modality taxonomy: urgent computing is
// only urgent if it starts near-immediately; interactive sessions are only
// interactive if the wait is bounded in minutes; batch tolerates hours but
// not unbounded waits.
func DefaultObjectives() []Objective {
	return []Objective{
		{Name: "urgent-immediate", Modality: job.ModUrgent, WaitThreshold: 60, Target: 0.99},
		{Name: "interactive-p95-wait", Modality: job.ModInteractive, WaitThreshold: 900, Target: 0.95},
		{Name: "gateway-latency", Modality: job.ModGateway, WaitThreshold: 600, Target: 0.90},
		{Name: "capacity-wait", Modality: job.ModBatchCapacity, WaitThreshold: 4 * 3600, Target: 0.85},
		{Name: "capability-wait", Modality: job.ModBatchCapability, WaitThreshold: 24 * 3600, Target: 0.80},
	}
}

// objState is the accumulated evaluation state of one objective.
type objState struct {
	obj   Objective
	good  int64
	bad   int64
	rings [len(metrics.TrailingWindows)]*metrics.Ring[metrics.GoodBad]
	// peak tracks the worst burn rate seen per window, for the conformance
	// table (the lifetime compliance can look fine while a 6h window
	// burned hard mid-run).
	peak [len(metrics.TrailingWindows)]float64
	// goodC/badC mirror observations into telemetry when Bind was called;
	// nil (and so no-ops) otherwise.
	goodC, badC *telemetry.Counter
}

// observe scores one event at time now.
func (s *objState) observe(now des.Time, good bool) {
	if good {
		s.good++
		s.goodC.Inc()
	} else {
		s.bad++
		s.badC.Inc()
	}
	for i, r := range s.rings {
		r.At(now).Add(good)
		if br := s.burnRate(i, now); br > s.peak[i] {
			s.peak[i] = br
		}
	}
}

// compliance returns the lifetime good fraction (1.0 with no events: an
// objective that was never challenged was never violated).
func (s *objState) compliance() float64 {
	total := s.good + s.bad
	if total == 0 {
		return 1
	}
	return float64(s.good) / float64(total)
}

// burnRate returns window i's current burn rate at time now: the in-window
// bad fraction divided by the error budget.
func (s *objState) burnRate(i int, now des.Time) float64 {
	return s.rings[i].Total(now).BadFrac() / (1 - s.obj.Target)
}

// met reports whether lifetime compliance reached target.
func (s *objState) met() bool { return s.compliance() >= s.obj.Target }

// Evaluator scores a run's jobs against a set of objectives.
type Evaluator struct {
	states []*objState
	byMod  map[job.Modality][]*objState
	// Now supplies current virtual time for burn-rate exposition; the
	// scenario sets it to the kernel clock when installing the evaluator.
	// Nil falls back to the latest observation time.
	Now     func() des.Time
	lastObs des.Time
}

// New builds an evaluator over the given objectives (DefaultObjectives
// when none are passed).
func New(objectives ...Objective) (*Evaluator, error) {
	if len(objectives) == 0 {
		objectives = DefaultObjectives()
	}
	e := &Evaluator{byMod: make(map[job.Modality][]*objState)}
	seen := make(map[string]bool)
	for _, obj := range objectives {
		if err := obj.Validate(); err != nil {
			return nil, err
		}
		if seen[obj.Name] {
			return nil, fmt.Errorf("slo: duplicate objective name %s", obj.Name)
		}
		seen[obj.Name] = true
		st := &objState{obj: obj}
		for i, w := range metrics.TrailingWindows {
			st.rings[i] = metrics.NewWindowRing[metrics.GoodBad](w)
		}
		e.states = append(e.states, st)
		e.byMod[obj.Modality] = append(e.byMod[obj.Modality], st)
	}
	return e, nil
}

// ObserveStart scores a job's first start: wait at or under each matching
// objective's threshold is good, over is bad. Restarts after preemption
// are not re-scored — the user-visible promise is about time to first
// execution. Nil-safe.
func (e *Evaluator) ObserveStart(now des.Time, mod job.Modality, waitSeconds float64) {
	if e == nil {
		return
	}
	e.lastObs = now
	for _, s := range e.byMod[mod] {
		s.observe(now, waitSeconds <= s.obj.WaitThreshold)
	}
}

// ObserveReject scores a rejection as a bad event for every matching
// objective: a job turned away never meets any wait promise. Nil-safe.
func (e *Evaluator) ObserveReject(now des.Time, mod job.Modality) {
	if e == nil {
		return
	}
	e.lastObs = now
	for _, s := range e.byMod[mod] {
		s.observe(now, false)
	}
}

// now returns the exposition clock.
func (e *Evaluator) now() des.Time {
	if e.Now != nil {
		return e.Now()
	}
	return e.lastObs
}

// MetAll reports whether every objective met its target. Nil-safe (an
// absent evaluator has nothing to violate).
func (e *Evaluator) MetAll() bool {
	if e == nil {
		return true
	}
	for _, s := range e.states {
		if !s.met() {
			return false
		}
	}
	return true
}

// Failed returns the names of objectives that missed target, in
// declaration order.
func (e *Evaluator) Failed() []string {
	if e == nil {
		return nil
	}
	var out []string
	for _, s := range e.states {
		if !s.met() {
			out = append(out, s.obj.Name)
		}
	}
	return out
}
