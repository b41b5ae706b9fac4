package metasched

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/grid"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/sched"
	"github.com/tgsim/tgmod/internal/simrand"
)

// refBestBy is the unpruned reference of bestBy: estimate every candidate
// and keep the first least score, the staging term included when staged.
func refBestBy(b *Broker, cands []*sched.Scheduler, j *job.Job, staged bool) *sched.Scheduler {
	best := cands[0]
	bestScore := 0.0
	first := true
	for _, s := range cands {
		start, ok := s.EstimateStart(j.Cores, j.ReqWalltime)
		if !ok {
			continue
		}
		sc := float64(start)
		if home, ok := b.DataHome[j.Project]; ok && staged && b.Stage != nil && j.InputBytes > 0 {
			if stage := b.Stage(home, s.M.Site, j.InputBytes); stage > sc {
				sc = stage
			}
		}
		if first || sc < bestScore {
			best, bestScore, first = s, sc, false
		}
	}
	return best
}

// refCoAssign is the unpruned reference of coAssign: each part goes to the
// distinct feasible machine with the earliest estimate.
func refCoAssign(b *Broker, parts []*job.Job) ([]string, des.Time, bool) {
	used := make(map[string]bool)
	var ids []string
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
			return nil, 0, false
		}
		used[best.M.ID] = true
		ids = append(ids, best.M.ID)
		latest = max(latest, bestStart)
	}
	return ids, latest, true
}

// stubStage is the staging model of the routing tests: free within a site,
// one second per megabyte across sites.
func stubStage(from, to string, bytes int64) float64 {
	if from == to {
		return 0
	}
	return float64(bytes) / 1e6
}

// world is one random federation: schedulers under a broker. The routing
// property drives two worlds built from the same draws, one routed by the
// broker and one by the reference, so their caches see the same history.
type world struct {
	k      *des.Kernel
	b      *Broker
	scheds []*sched.Scheduler
}

// twinWorlds builds two identical random federations of 2–6 machines
// under the given policy. Machines get random engines, sites and sizes,
// some are twins of their predecessor (same size, site and load, so their
// estimates tie), some queue more than the estimator's 1000-job detail
// depth, and some lose every core for good (no estimate at all). Loads are
// running jobs, queues, reservations, outages and node losses, with
// kernel time run forward in between so jobs start and finish.
func twinWorlds(r *simrand.Stream, policy SelectPolicy) [2]*world {
	var w [2]*world
	for i := range w {
		w[i] = &world{k: des.New()}
	}
	engines := []string{"easy", "fcfs", "priority", "fairshare", "conservative"}
	n := 2 + r.Intn(5)
	var id job.ID
	submit := func(s [2]*sched.Scheduler, cores int, run, wall des.Time) {
		id++
		for i := range w {
			s[i].Submit(&job.Job{ID: id, Name: testSyms.Intern("t"), User: testSyms.Intern(fmt.Sprintf("u%d", id%3)), Project: testSyms.Intern("p"),
				Cores: cores, RunTime: run, ReqWalltime: wall})
		}
	}
	type plan struct {
		nodes, site int
		engine      string
		deep, dead  bool
		twin        bool
	}
	plans := make([]plan, n)
	for m := range plans {
		p := plan{nodes: []int{4, 8, 16}[r.Intn(3)], site: r.Intn(3),
			engine: engines[r.Intn(len(engines))], deep: r.Bool(0.1), dead: r.Bool(0.1)}
		if m > 0 && r.Bool(0.3) {
			p = plans[m-1]
			p.twin = true
		}
		if p.deep {
			p.engine = "easy" // bounded passes keep a 1000-job queue cheap to build
		}
		plans[m] = p
	}
	for i := range w {
		for m, p := range plans {
			mach := &grid.Machine{ID: fmt.Sprintf("m%d", m), Site: fmt.Sprintf("s%d", p.site),
				Nodes: p.nodes, CoresPerNode: 8, NUPerCoreHour: 1}
			w[i].scheds = append(w[i].scheds, sched.MustNamed(w[i].k, testSyms, mach, p.engine))
		}
	}
	both := func(m int) [2]*sched.Scheduler { return [2]*sched.Scheduler{w[0].scheds[m], w[1].scheds[m]} }
	// load draws one machine's load; a twin replays its predecessor's.
	resv := 0
	load := func(m int, r *simrand.Stream) {
		s := both(m)
		capacity := s[0].M.BatchCores()
		for q := 0; q < r.Intn(30); q++ {
			wall := des.Time(60 + r.Intn(7200))
			submit(s, 1+r.Intn(capacity), wall*des.Time(0.2+0.8*r.Float64()), wall)
		}
		if plans[m].deep {
			for q := 0; q < 1000+r.Intn(40); q++ {
				submit(s, 1+r.Intn(capacity), 3600, 3600)
			}
		}
		now := s[0].K.Now()
		for q := 0; q < r.Intn(3); q++ {
			start := now + des.Time(r.Intn(20000))
			cores, end := 1+r.Intn(capacity), start+des.Time(60+r.Intn(7200))
			resv++
			for i := range w {
				s[i].Reserve(fmt.Sprintf("r%d", resv), cores, start, end)
			}
		}
		if r.Bool(0.3) {
			start := now + des.Time(r.Intn(20000))
			end := start + des.Time(600+r.Intn(3600))
			for i := range w {
				s[i].ScheduleOutage(start, end)
			}
		}
		if r.Bool(0.3) {
			cores, until := 1+r.Intn(capacity), now+des.Time(600+r.Intn(20000))
			for i := range w {
				s[i].FailNodes(cores, until)
			}
		}
		if plans[m].dead {
			for i := range w {
				s[i].FailNodes(capacity, des.Forever)
			}
		}
	}
	for round := 0; round < 2; round++ {
		var prev uint64
		for m, p := range plans {
			seed := r.Uint64()
			if p.twin {
				// Replay the predecessor's draws, so a twin carries its load.
				seed = prev
			}
			prev = seed
			load(m, simrand.New(seed))
		}
		until := w[0].k.Now() + des.Time(r.Intn(4000))
		for i := range w {
			w[i].k.RunUntil(until)
		}
	}
	for i := range w {
		w[i].b = New(w[i].k, testSyms, policy, simrand.New(1), w[i].scheds)
		w[i].b.DataHome[testSyms.Intern("p")] = "s0"
		w[i].b.Stage = stubStage
	}
	return w
}

// routeCoverage counts the situations the routing property must meet.
type routeCoverage struct {
	routes, ties, noEstimate, stale, coallocs int
}

// TestBrokerRoutingMatchesReference: on random federations, the
// bound-pruned broker picks exactly the machine the unpruned reference
// picks under BestEstimated and DataAware, and co-allocation chooses the
// same machines and agreed start, over a sequence of arrivals that read
// estimate caches at the instant they were built, at later instants with
// no state change, and after state changes.
func TestBrokerRoutingMatchesReference(t *testing.T) {
	var cov routeCoverage
	var pruned uint64
	for _, policy := range []SelectPolicy{BestEstimated, DataAware} {
		f := func(seed uint64) bool {
			r := simrand.New(seed)
			w := twinWorlds(r, policy)
			ok := routeSequence(t, r, w, policy, &cov)
			pruned += w[0].b.Pruned()
			return ok
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%v: %v", policy, err)
		}
	}
	t.Logf("coverage %+v, pruned %d", cov, pruned)
	if cov.ties == 0 || cov.noEstimate == 0 || cov.stale == 0 || cov.coallocs == 0 || pruned == 0 {
		t.Errorf("property did not exercise every case: %+v, pruned %d", cov, pruned)
	}
}

// routeSequence runs a random arrival sequence through both worlds: w[0]
// routes by the broker, w[1] by the reference, and every pick must agree.
// Picked jobs are submitted in both, so the states stay identical.
func routeSequence(t *testing.T, r *simrand.Stream, w [2]*world, policy SelectPolicy, cov *routeCoverage) bool {
	staged := policy == DataAware
	var id job.ID = 1 << 20
	mk := func(cores int, wall des.Time, bytes int64) [2]*job.Job {
		id++
		var js [2]*job.Job
		for i := range js {
			js[i] = &job.Job{ID: id, Name: testSyms.Intern("a"), User: testSyms.Intern("u"), Project: testSyms.Intern("p"),
				Cores: cores, RunTime: wall / 2, ReqWalltime: wall, InputBytes: bytes}
		}
		return js
	}
	for step := 0; step < 12; step++ {
		switch r.Intn(3) {
		case 0: // same instant
		case 1: // later instant, almost surely no event in between
			cov.stale++
			for i := range w {
				w[i].k.RunUntil(w[i].k.Now() + 1e-3)
			}
		default:
			until := w[0].k.Now() + des.Time(r.Intn(3000))
			for i := range w {
				w[i].k.RunUntil(until)
			}
		}
		if r.Bool(0.2) {
			parts := make([][2]*job.Job, 2+r.Intn(2))
			for p := range parts {
				parts[p] = mk(1+r.Intn(32), des.Time(60+r.Intn(3600)), 0)
			}
			var got, want []*job.Job
			for _, p := range parts {
				got, want = append(got, p[0]), append(want, p[1])
			}
			chosen, latest, err := w[0].b.coAssign(got)
			ids, refLatest, refOK := refCoAssign(w[1].b, want)
			if (err == nil) != refOK {
				t.Logf("co-allocation: error %v, reference ok %v", err, refOK)
				return false
			}
			if err != nil {
				continue
			}
			cov.coallocs++
			for p, s := range chosen {
				if s.M.ID != ids[p] {
					t.Logf("co-allocation part %d on %s, reference %s", p, s.M.ID, ids[p])
					return false
				}
			}
			if latest != refLatest {
				t.Logf("co-allocation latest %v, reference %v", latest, refLatest)
				return false
			}
			continue
		}
		bytes := int64(0)
		if r.Bool(0.5) {
			bytes = int64(r.Intn(4000)) * 1e6
		}
		js := mk(1+r.Intn(128), des.Time(60+r.Intn(7200)), bytes)
		cands := w[0].b.feasible(js[0])
		if len(cands) == 0 {
			continue
		}
		cov.routes++
		// Count ties and estimate-free arrivals from the reference side
		// before it routes (estimates do not change state).
		refCands := w[1].b.feasible(js[1])
		starts := make(map[float64]int)
		estimated := 0
		for _, s := range refCands {
			if at, ok := s.EstimateStart(js[1].Cores, js[1].ReqWalltime); ok {
				starts[float64(at)]++
				estimated++
			}
		}
		if estimated == 0 {
			cov.noEstimate++
		}
		if len(starts) < estimated {
			cov.ties++
		}
		got := w[0].b.bestBy(cands, js[0], staged)
		want := refBestBy(w[1].b, refCands, js[1], staged)
		if got.M.ID != want.M.ID {
			t.Logf("step %d at %v: %d cores × %v routed to %s, reference %s",
				step, w[0].k.Now(), js[0].Cores, js[0].ReqWalltime, got.M.ID, want.M.ID)
			return false
		}
		got.Submit(js[0])
		want.Submit(js[1])
	}
	return true
}

// routeFederation returns a broker over eight frozen 128-core easy
// machines at t=0, the shape of a quarter's federation at a busy moment:
// m0–m5 are full until their own hour (1 h for m0 … 6 h for m5), m0–m2
// hold 1000-job queues and m3–m5 50-job queues, m6 runs half full and m7
// is full until 8 h, both without a queue. No kernel event runs, so the
// state only changes when the caller changes it.
func routeFederation(policy SelectPolicy) (*Broker, []*sched.Scheduler) {
	k := des.New()
	var scheds []*sched.Scheduler
	var id job.ID
	mk := func(cores int, wall des.Time) *job.Job {
		id++
		return &job.Job{ID: id, Name: testSyms.Intern("t"), User: testSyms.Intern("u"), Project: testSyms.Intern("p"), Cores: cores, RunTime: wall, ReqWalltime: wall}
	}
	r := simrand.New(1)
	for m := 0; m < 8; m++ {
		s := sched.MustNamed(k, testSyms, &grid.Machine{ID: fmt.Sprintf("m%d", m), Site: fmt.Sprintf("s%d", m%3),
			Nodes: 16, CoresPerNode: 8, NUPerCoreHour: 1}, "easy")
		if m == 6 {
			s.Submit(mk(64, 6*des.Hour))
		} else {
			s.Submit(mk(128, des.Time(m+1)*des.Hour))
		}
		depth := []int{1000, 1000, 1000, 50, 50, 50, 0, 0}[m]
		for q := 0; q < depth; q++ {
			s.Submit(mk(1+r.Intn(64), des.Time(600+r.Intn(4*3600))))
		}
		scheds = append(scheds, s)
	}
	b := New(k, testSyms, policy, simrand.New(1), scheds)
	b.DataHome[testSyms.Intern("p")] = "s0"
	b.Stage = stubStage
	return b, scheds
}

// BenchmarkBrokerRoute measures one brokered routing decision of a 16-core
// hour over routeFederation after every machine's state changed (a
// reservation booked or cancelled on each, outside the timer), so every
// cached plan is stale, as between most brokered arrivals of a
// simulation. m6 can start the job now and every other machine's bound is
// an hour or more. "pruned" is the broker's bound-ordered bestBy;
// "reference" estimates every machine, replanning all eight queues.
func BenchmarkBrokerRoute(b *testing.B) {
	for _, name := range []string{"pruned", "reference"} {
		b.Run(name, func(b *testing.B) {
			br, scheds := routeFederation(BestEstimated)
			j := &job.Job{ID: 1 << 30, Cores: 16, ReqWalltime: des.Hour}
			held := false
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for _, s := range scheds {
					if held {
						s.CancelReservation("bench")
					} else if err := s.Reserve("bench", 8, 100*des.Hour, 101*des.Hour); err != nil {
						b.Fatal(err)
					}
				}
				held = !held
				b.StartTimer()
				var pick *sched.Scheduler
				if name == "pruned" {
					pick = br.bestBy(br.feasible(j), j, false)
				} else {
					pick = refBestBy(br, br.feasible(j), j, false)
				}
				if pick.M.ID != "m6" {
					b.Fatalf("routed to %s, want m6", pick.M.ID)
				}
			}
		})
	}
}

// TestBrokerRouteAllocationFree pins a warm routing decision at zero
// allocations under both scored policies: the bound order lives in the
// broker's own buffer and the scheduler's planning buffers are warm.
func TestBrokerRouteAllocationFree(t *testing.T) {
	for _, policy := range []SelectPolicy{BestEstimated, DataAware} {
		br, _ := routeFederation(policy)
		j := &job.Job{ID: 1 << 30, Project: testSyms.Intern("p"), Cores: 16, ReqWalltime: des.Hour, InputBytes: 1e9}
		route := func() { br.selectFrom(br.feasible(j), j) }
		route()
		if n := testing.AllocsPerRun(20, route); n != 0 {
			t.Errorf("%v: warm route %v allocs, want 0", policy, n)
		}
		if br.Pruned() == 0 {
			t.Errorf("%v: routing over the federation pruned nothing", policy)
		}
	}
}
