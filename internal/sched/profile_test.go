package sched

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/simrand"
)

// newProfile returns a profile with free cores everywhere from time origin.
func newProfile(origin des.Time, free int) *profile {
	return &profile{points: []profilePoint{{t: origin, free: free}}}
}

func TestProfileBasics(t *testing.T) {
	p := newProfile(0, 100)
	if got := p.freeAt(0); got != 100 {
		t.Errorf("freeAt(0) = %d, want 100", got)
	}
	if got := p.freeAt(1e9); got != 100 {
		t.Errorf("freeAt(inf) = %d, want 100", got)
	}
	p.subtract(10, 20, 40)
	if got := p.freeAt(9); got != 100 {
		t.Errorf("freeAt(9) = %d, want 100", got)
	}
	if got := p.freeAt(10); got != 60 {
		t.Errorf("freeAt(10) = %d, want 60", got)
	}
	if got := p.freeAt(19.5); got != 60 {
		t.Errorf("freeAt(19.5) = %d, want 60", got)
	}
	if got := p.freeAt(20); got != 100 {
		t.Errorf("freeAt(20) = %d, want 100", got)
	}
}

func TestProfileMinFree(t *testing.T) {
	p := newProfile(0, 100)
	p.subtract(10, 20, 40) // 60 free in [10,20)
	p.subtract(15, 30, 30) // 30 free in [15,20), 70 in [20,30)
	cases := []struct {
		lo, hi des.Time
		want   int
	}{
		{0, 10, 100},
		{0, 12, 60},
		{12, 18, 30},
		{20, 30, 70},
		{25, 100, 70},
		{30, 40, 100},
		{0, 100, 30},
	}
	for _, c := range cases {
		if got := p.minFree(c.lo, c.hi); got != c.want {
			t.Errorf("minFree(%v,%v) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

func TestProfileSubtractForever(t *testing.T) {
	p := newProfile(0, 10)
	p.subtract(5, des.Forever, 4)
	if got := p.freeAt(1e12); got != 6 {
		t.Errorf("freeAt far future = %d, want 6", got)
	}
	if got := p.freeAt(0); got != 10 {
		t.Errorf("freeAt(0) = %d, want 10", got)
	}
}

func TestProfileOvercommitPanics(t *testing.T) {
	p := newProfile(0, 10)
	defer func() {
		if recover() == nil {
			t.Error("overcommit did not panic")
		}
	}()
	p.subtract(0, 10, 11)
}

func TestEarliestFit(t *testing.T) {
	p := newProfile(0, 100)
	p.subtract(0, 50, 90) // only 10 free until t=50
	at, ok := p.earliestFit(0, 10, 100)
	if !ok || at != 0 {
		t.Errorf("fit 10 cores: got %v,%v want 0,true", at, ok)
	}
	at, ok = p.earliestFit(0, 50, 100)
	if !ok || at != 50 {
		t.Errorf("fit 50 cores: got %v,%v want 50,true", at, ok)
	}
	// More cores than capacity never fits.
	if _, ok = p.earliestFit(0, 200, 1); ok {
		t.Error("fit beyond capacity reported success")
	}
	// From parameter respected.
	at, ok = p.earliestFit(70, 100, 5)
	if !ok || at != 70 {
		t.Errorf("fit from=70: got %v,%v want 70,true", at, ok)
	}
}

func TestEarliestFitBetweenHoles(t *testing.T) {
	p := newProfile(0, 10)
	p.subtract(5, 10, 10)  // blocked in [5,10)
	p.subtract(20, 25, 10) // blocked in [20,25)
	// A 6-long job fits at 10 (gap [10,20) is 10 long).
	at, ok := p.earliestFit(0, 10, 6)
	if !ok || at != 10 {
		t.Errorf("gap fit: got %v,%v want 10,true", at, ok)
	}
	// A 4-long job fits at 0.
	at, ok = p.earliestFit(0, 10, 4)
	if !ok || at != 0 {
		t.Errorf("head fit: got %v,%v want 0,true", at, ok)
	}
	// An 11-long job must wait until 25.
	at, ok = p.earliestFit(0, 10, 11)
	if !ok || at != 25 {
		t.Errorf("tail fit: got %v,%v want 25,true", at, ok)
	}
}

// TestEarliestFitProperty: the returned slot actually has enough capacity,
// and no earlier step point does.
func TestEarliestFitProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := simrand.New(seed)
		capacity := 16 + r.Intn(64)
		p := newProfile(0, capacity)
		for i := 0; i < 20; i++ {
			start := des.Time(r.Intn(200))
			end := start + des.Time(1+r.Intn(50))
			cores := 1 + r.Intn(capacity/4)
			if p.minFree(start, end) >= cores {
				p.subtract(start, end, cores)
			}
		}
		cores := 1 + r.Intn(capacity)
		dur := des.Time(1 + r.Intn(60))
		at, ok := p.earliestFit(0, cores, dur)
		if !ok {
			return cores > capacity
		}
		if p.minFree(at, at+dur) < cores {
			return false // reported slot does not fit
		}
		// No earlier candidate (origin or step) fits.
		for _, pt := range p.points {
			if pt.t < at && p.minFree(pt.t, pt.t+dur) >= cores {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// refEarliestFit is the jump-and-binary-search earliestFit the linear scan
// replaced, kept as the reference the equivalence tests compare against:
// every candidate runs a fresh binary search for its first segment.
func refEarliestFit(p *profile, from des.Time, cores int, duration des.Time) (des.Time, bool) {
	if duration <= 0 {
		duration = 1
	}
	cand := from
	if cand < p.points[0].t {
		cand = p.points[0].t
	}
	for {
		v := -1
		for i := p.segmentIndex(cand); i < len(p.points); i++ {
			if p.points[i].t >= cand+duration {
				break
			}
			if p.points[i].free < cores {
				v = i
				break
			}
		}
		if v < 0 {
			return cand, true
		}
		if v+1 >= len(p.points) {
			return 0, false
		}
		cand = p.points[v+1].t
	}
}

// refBuildProfile is the per-job-subtract buildProfile the sorted sweep
// replaced, kept as the equivalence tests' reference. Its 1e-9 sliver is
// exact only below 2^24 s.
func refBuildProfile(s *Scheduler) *profile {
	now := s.K.Now()
	p := newProfile(now, s.M.BatchCores())
	for _, r := range s.running {
		if r.j.QOS == job.QOSInteractive {
			continue
		}
		end := r.endsBy
		if end <= now {
			end = now + 1e-9
		}
		p.subtract(now, end, r.j.Cores)
	}
	for _, rv := range s.resvs {
		if start := max(rv.start, now); rv.end > start {
			p.subtract(start, rv.end, rv.cores)
		}
	}
	for _, l := range s.nodeLosses {
		if start := max(l.start, now); l.end > start {
			p.deduct(start, l.end, l.cores)
		}
	}
	for _, o := range s.outages {
		if start := max(o.start, now); o.end > start {
			p.capTo(start, o.end, 0)
		}
	}
	return p
}

// randomProfile builds a profile from random non-overcommitting subtracts
// and, sometimes, outages and node losses.
func randomProfile(r *simrand.Stream) *profile {
	capacity := 16 + r.Intn(64)
	p := newProfile(des.Time(r.Intn(20)), capacity)
	for i := 0; i < 5+r.Intn(40); i++ {
		start := des.Time(r.Intn(200))
		end := start + des.Time(1+r.Intn(50))
		switch {
		case r.Bool(0.1):
			p.capTo(start, end, r.Intn(capacity/2))
		case r.Bool(0.1):
			p.deduct(start, end, 1+r.Intn(capacity))
		default:
			if cores := 1 + r.Intn(capacity/4); p.minFree(start, end) >= cores {
				p.subtract(start, end, cores)
			}
		}
	}
	return p
}

// TestEarliestFitMatchesReference: the linear scan returns exactly the
// reference's fit for every query, including ones that never fit.
func TestEarliestFitMatchesReference(t *testing.T) {
	f := func(seed uint64) bool {
		r := simrand.New(seed)
		p := randomProfile(r)
		capacity := p.points[0].free + 16
		for q := 0; q < 50; q++ {
			from := des.Time(r.Intn(260))
			cores := 1 + r.Intn(capacity)
			dur := des.Time(r.Intn(80))
			at, ok := p.earliestFit(from, cores, dur)
			wantAt, wantOK := refEarliestFit(p, from, cores, dur)
			if at != wantAt || ok != wantOK {
				t.Logf("earliestFit(%v, %d, %v) = %v,%v, reference %v,%v on %v",
					from, cores, dur, at, ok, wantAt, wantOK, p.points)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randomSchedState returns a scheduler at a random instant holding random
// running jobs (equal end times, expired and never-ending ones, interactive
// sessions), feasible reservations (past, active and future), node losses
// and outages. The state is written directly; no events run.
func randomSchedState(r *simrand.Stream) *Scheduler {
	k := des.New()
	now := des.Time(r.Intn(1e6))
	k.RunUntil(now)
	s := MustNamed(k, testMachine(), "easy")
	capacity := s.M.BatchCores()
	ends := []des.Time{now - 10, now, now + 1, now + 100, now + 100, now + 250, des.Forever}
	busy := 0
	for i := 0; i < r.Intn(40); i++ {
		j := mkJob(1+r.Intn(24), 1, 1)
		if r.Bool(0.1) {
			j.QOS = job.QOSInteractive
		} else if busy+j.Cores > capacity {
			continue
		} else {
			busy += j.Cores
		}
		end := now + des.Time(1+r.Intn(500))
		if r.Bool(0.5) {
			end = ends[r.Intn(len(ends))]
		}
		s.running[j.ID] = &running{j: j, endsBy: end}
	}
	for i := 0; i < r.Intn(6); i++ {
		start := now + des.Time(r.Intn(600)) - 200
		rv := &reservation{cores: 1 + r.Intn(capacity/2), start: start, end: start + des.Time(r.Intn(400))}
		if refBuildProfile(s).minFree(max(rv.start, now), rv.end) >= rv.cores {
			s.resvs = append(s.resvs, rv)
		}
	}
	for i := 0; i < r.Intn(4); i++ {
		start := now + des.Time(r.Intn(600)) - 200
		s.nodeLosses = append(s.nodeLosses, &capLoss{start: start, end: start + des.Time(r.Intn(400)), cores: 1 + r.Intn(capacity)})
	}
	for i := 0; i < r.Intn(3); i++ {
		start := now + des.Time(r.Intn(600)) - 200
		s.outages = append(s.outages, &outage{start: start, end: start + des.Time(r.Intn(300))})
	}
	return s
}

// TestBuildProfileMatchesReference: the sorted sweep builds exactly the
// reference's points, and every fit on it matches the reference fit on the
// reference profile.
func TestBuildProfileMatchesReference(t *testing.T) {
	var dst profile // reused across cases, as the scheduler's buffers are
	f := func(seed uint64) bool {
		r := simrand.New(seed)
		s := randomSchedState(r)
		got, want := s.buildProfile(&dst), refBuildProfile(s)
		if !slices.Equal(got.points, want.points) {
			t.Logf("points %v, reference %v", got.points, want.points)
			return false
		}
		now := s.K.Now()
		for q := 0; q < 20; q++ {
			from := now + des.Time(r.Intn(500))
			cores := 1 + r.Intn(s.M.BatchCores())
			dur := des.Time(1 + r.Intn(300))
			at, ok := got.earliestFit(from, cores, dur)
			wantAt, wantOK := refEarliestFit(want, from, cores, dur)
			if at != wantAt || ok != wantOK {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBuildProfileOvercommitPanics(t *testing.T) {
	k := des.New()
	s := MustNamed(k, testMachine(), "easy")
	j := mkJob(s.M.BatchCores()+1, 10, 10)
	s.running[j.ID] = &running{j: j, endsBy: 10}
	defer func() {
		if recover() == nil {
			t.Error("overcommitted running set did not panic")
		}
	}()
	s.buildProfile(new(profile))
}

// TestBuildProfileSliverPast2To24: beyond 2^24 s, now+1e-9 rounds back to
// now. A job whose guaranteed end is now must still hold its cores.
func TestBuildProfileSliverPast2To24(t *testing.T) {
	now := des.Time(1 << 25)
	if now+1e-9 != now {
		t.Fatal("precondition: a 1e-9 sliver should vanish at 2^25 s")
	}
	k := des.New()
	k.RunUntil(now)
	s := MustNamed(k, testMachine(), "easy")
	j := mkJob(40, 10, 10)
	s.running[j.ID] = &running{j: j, endsBy: now}
	p := s.buildProfile(new(profile))
	if got, want := p.freeAt(now), s.M.BatchCores()-40; got != want {
		t.Errorf("freeAt(now) = %d, want %d (the sliver vanished)", got, want)
	}
	if next := des.Time(math.Nextafter(float64(now), math.Inf(1))); len(p.points) < 2 || p.points[1].t != next {
		t.Errorf("points %v, want the sliver to end at %v", p.points, next)
	}
}

// TestSliverPast2To24HoldsCores drives the same instant through a pass: a
// full-machine job whose walltime ends at 2^25 s is still running when a
// second full-machine job arrives at that instant. The arrival must wait
// for the finish event instead of overcommitting the partition.
func TestSliverPast2To24HoldsCores(t *testing.T) {
	end := des.Time(1 << 25)
	k := des.New()
	s := MustNamed(k, testMachine(), "easy")
	first := mkJob(s.M.BatchCores(), 3600, 3600)
	second := mkJob(s.M.BatchCores(), 60, 60)
	// Armed before first starts, so it fires before first's end event.
	k.At(end, func(*des.Kernel) { s.Submit(second) })
	k.At(end-3600, func(*des.Kernel) { s.Submit(first) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if first.EndTime != end || second.StartTime != end || second.State != job.StateCompleted {
		t.Errorf("first ended %v, second started %v in state %v; want both at %v, completed",
			first.EndTime, second.StartTime, second.State, end)
	}
}
