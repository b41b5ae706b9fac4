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

// TestPlaceMatchesReference: place commits exactly what earliestFit
// followed by subtract commits, query after query on one evolving profile:
// the same start, the same verdict and the same points. Queries start
// before the origin, on step points and in mid-segment, and some never fit.
func TestPlaceMatchesReference(t *testing.T) {
	f := func(seed uint64) bool {
		r := simrand.New(seed)
		got := randomProfile(r)
		want := &profile{points: slices.Clone(got.points)}
		capacity := got.points[0].free + 16
		for q := 0; q < 40; q++ {
			from := des.Time(r.Intn(280)) - 20
			if r.Bool(0.3) {
				from += 0.5
			}
			cores := 1 + r.Intn(capacity)
			dur := des.Time(r.Intn(80))
			at, ok := got.place(from, cores, dur)
			wantAt, wantOK := want.earliestFit(from, cores, dur)
			if wantOK {
				want.subtract(wantAt, wantAt+dur, cores)
			}
			if at != wantAt || ok != wantOK || !slices.Equal(got.points, want.points) {
				t.Logf("place(%v, %d, %v) = %v,%v with points %v; reference %v,%v with points %v",
					from, cores, dur, at, ok, got.points, wantAt, wantOK, want.points)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPlannerMatchesSequential: a planner with dominance floors gives every
// job of a random queue the start that plain sequential placement from the
// origin gives it, and leaves exactly the same points. Cores and durations
// come from small sets so that later jobs often dominate earlier ones.
func TestPlannerMatchesSequential(t *testing.T) {
	floored := 0
	f := func(seed uint64) bool {
		r := simrand.New(seed)
		got := randomProfile(r)
		want := &profile{points: slices.Clone(got.points)}
		origin := got.points[0].t
		if r.Bool(0.3) {
			origin += des.Time(r.Intn(40)) + 0.5
		}
		pl := planner{p: got, origin: origin}
		capacity := got.points[0].free + 8
		for q := 0; q < 60; q++ {
			cores := 1 + r.Intn(4)*capacity/4
			dur := des.Time(r.Intn(5) * 20)
			if pl.n > 0 {
				for _, fl := range pl.floors[:pl.n] {
					if fl.at > origin && cores >= fl.cores && max(dur, 1) >= fl.dur {
						floored++
						break
					}
				}
			}
			at, ok := pl.place(cores, dur)
			wantAt, wantOK := want.earliestFit(origin, cores, dur)
			if wantOK {
				want.subtract(wantAt, wantAt+dur, cores)
			}
			if at != wantAt || ok != wantOK {
				t.Logf("job %d (%d cores, %v): planner %v,%v, sequential %v,%v", q, cores, dur, at, ok, wantAt, wantOK)
				return false
			}
		}
		if !slices.Equal(got.points, want.points) {
			t.Logf("points %v, sequential %v", got.points, want.points)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if floored == 0 {
		t.Error("no search started at a floor; the property did not exercise the planner")
	}
}

// randomSchedState returns a scheduler at a random instant holding random
// running jobs (equal end times, expired and never-ending ones, one ending
// between now and the expired jobs' sliver, interactive sessions), feasible
// reservations (past, active and future), node losses and outages. Jobs
// enter through track; no events run.
func randomSchedState(r *simrand.Stream) *Scheduler {
	k := des.New()
	now := des.Time(r.Intn(1e6))
	k.RunUntil(now)
	s := MustNamed(k, testSyms, testMachine(), "easy")
	capacity := s.M.BatchCores()
	ends := []des.Time{now - 10, now, now + 5e-10, now + 1, now + 100, now + 100, now + 250, des.Forever}
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
		s.track(&running{j: j, endsBy: end})
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
		got, want := s.buildProfile(&dst, s.K.Now()), refBuildProfile(s)
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
	s := MustNamed(k, testSyms, testMachine(), "easy")
	j := mkJob(s.M.BatchCores()+1, 10, 10)
	s.track(&running{j: j, endsBy: 10})
	defer func() {
		if recover() == nil {
			t.Error("overcommitted running set did not panic")
		}
	}()
	s.buildProfile(new(profile), s.K.Now())
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
	s := MustNamed(k, testSyms, testMachine(), "easy")
	j := mkJob(40, 10, 10)
	s.track(&running{j: j, endsBy: now})
	p := s.buildProfile(new(profile), s.K.Now())
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
	s := MustNamed(k, testSyms, testMachine(), "easy")
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

// checkReleases fails the test unless the release list holds exactly the
// running batch jobs, sorted by guaranteed end and then job ID, and every
// running job holds one pooled run record.
func checkReleases(t *testing.T, s *Scheduler, step string) {
	t.Helper()
	if s.liveRecords() != len(s.running) {
		t.Fatalf("%s: %d live run records, %d running", step, s.liveRecords(), len(s.running))
	}
	var want []profileRelease
	for _, r := range s.running {
		if r.j.QOS != job.QOSInteractive {
			want = append(want, profileRelease{end: r.endsBy, cores: r.j.Cores, id: r.j.ID})
		}
	}
	slices.SortFunc(want, compareReleases)
	if !slices.Equal(s.releases, want) {
		t.Fatalf("%s: releases %v, want %v", step, s.releases, want)
	}
}

// TestReleaseListFollowsLifecycle drives one scheduler through starts,
// early finishes, walltime kills, urgent preemption, a crash, a node
// failure and viz sessions, checking the release list after every step.
func TestReleaseListFollowsLifecycle(t *testing.T) {
	k, s := newTestSched("easy")
	submit := func(cores int, run, wall des.Time, qos job.QOS) *job.Job {
		j := mkJob(cores, run, wall)
		j.QOS = qos
		s.Submit(j)
		return j
	}
	step := func(name string, until des.Time) {
		t.Helper()
		k.RunUntil(until)
		checkReleases(t, s, name)
	}
	for i := 0; i < 8; i++ {
		// Equal walltimes in pairs; odd jobs outrun theirs and are killed.
		wall := des.Time(1000 * (1 + i/2))
		submit(16, wall/2+des.Time(i%2)*wall, wall, job.QOSNormal)
	}
	submit(8, 500, 900, job.QOSInteractive)
	submit(8, 2500, 3000, job.QOSInteractive)
	step("start", 0)
	if len(s.releases) != 7 {
		t.Fatalf("%d batch jobs running at start, want 7 (112 cores)", len(s.releases))
	}
	step("finish and walltime kill", 1200)
	submit(s.M.BatchCores(), 300, 400, job.QOSUrgent)
	step("urgent preemption", 1200)
	if s.Stats().Preemptions == 0 {
		t.Fatal("urgent arrival preempted nothing")
	}
	step("urgent finish and restarts", 1700)
	for _, v := range s.Crash(2500) {
		s.Requeue(v)
	}
	step("crash", 1700)
	if len(s.releases) != 0 {
		t.Fatalf("%d batch jobs still running after a crash", len(s.releases))
	}
	step("repair", 2600)
	s.FailNodes(s.M.BatchCores()-16, 4000)
	step("node failure", 2600)
	if s.Stats().NodeKills == 0 {
		t.Fatal("node failure killed nothing")
	}
	step("restore", 4100)
	step("drain", des.Forever)
	if len(s.running) != 0 || len(s.releases) != 0 {
		t.Fatalf("%d running, %d releases after the drain", len(s.running), len(s.releases))
	}
}
