package workload

import (
	"testing"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/gateway"
	"github.com/tgsim/tgmod/internal/grid"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/metasched"
	"github.com/tgsim/tgmod/internal/network"
	"github.com/tgsim/tgmod/internal/sched"
	"github.com/tgsim/tgmod/internal/simrand"
	"github.com/tgsim/tgmod/internal/storage"
	"github.com/tgsim/tgmod/internal/trace"
	"github.com/tgsim/tgmod/internal/users"
	"github.com/tgsim/tgmod/internal/workflow"
)

func TestDrawRuntimeBounds(t *testing.T) {
	rng := simrand.New(1)
	for i := 0; i < 20000; i++ {
		v := DrawRuntime(rng, 3600, 1.5)
		if v < 30 || v > 5*24*3600 {
			t.Fatalf("runtime out of bounds: %v", v)
		}
	}
}

func TestDrawWalltimePadsAndRounds(t *testing.T) {
	rng := simrand.New(2)
	for i := 0; i < 10000; i++ {
		run := DrawRuntime(rng, 3600, 1)
		w := DrawWalltime(rng, run)
		if w < run {
			t.Fatalf("walltime %v below runtime %v", w, run)
		}
		if int64(w)%900 != 0 {
			t.Fatalf("walltime %v not on 15-minute granularity", w)
		}
		if w > 7*24*3600 {
			t.Fatalf("walltime %v above 7-day cap", w)
		}
	}
}

func TestDrawCores(t *testing.T) {
	rng := simrand.New(3)
	p2 := 0
	for i := 0; i < 20000; i++ {
		c := DrawCores(rng, 0, 8, 1024)
		if c < 1 || c > 1024 {
			t.Fatalf("cores out of range: %d", c)
		}
		if c&(c-1) == 0 {
			p2++
		}
	}
	if frac := float64(p2) / 20000; frac < 0.7 {
		t.Errorf("power-of-two fraction = %v, want > 0.7", frac)
	}
	// Clamping respects max.
	for i := 0; i < 1000; i++ {
		if c := DrawCores(rng, 5, 10, 100); c > 100 || c < 1 {
			t.Fatalf("clamped cores out of range: %d", c)
		}
	}
}

func TestDiurnalRate(t *testing.T) {
	base := 100.0
	// Tuesday noon (day 1, hour 12): full rate.
	noon := des.Time(1*86400 + 12*3600)
	if got := DiurnalRate(noon, base); got != 100 {
		t.Errorf("weekday noon rate = %v, want 100", got)
	}
	// Tuesday 3am: 40%.
	night := des.Time(1*86400 + 3*3600)
	if got := DiurnalRate(night, base); got != 40 {
		t.Errorf("weekday night rate = %v, want 40", got)
	}
	near := func(got, want float64) bool { return got > want-1e-9 && got < want+1e-9 }
	// Saturday noon (day 5): 55%.
	satNoon := des.Time(5*86400 + 12*3600)
	if got := DiurnalRate(satNoon, base); !near(got, 55) {
		t.Errorf("weekend noon rate = %v, want 55", got)
	}
	// Saturday night: both factors.
	satNight := des.Time(5*86400 + 2*3600)
	if got := DiurnalRate(satNight, base); !near(got, 22) {
		t.Errorf("weekend night rate = %v, want 22", got)
	}
}

func TestPoissonArrivalsStopAtHorizon(t *testing.T) {
	k := des.New()
	e := &Env{K: k, Horizon: 1000}
	rng := simrand.New(4)
	count := 0
	last := des.Time(0)
	PoissonArrivals(e, rng, 0.1, "arrival-test", func() {
		count++
		last = k.Now()
	})
	k.Run()
	if count == 0 {
		t.Fatal("no arrivals")
	}
	if last >= 1000 {
		t.Errorf("arrival at %v, after horizon", last)
	}
}

func TestPoissonArrivalsPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero rate accepted")
		}
	}()
	k := des.New()
	PoissonArrivals(&Env{K: k, Horizon: 10}, simrand.New(1), 0, "arrival-test", func() {})
}

func TestTracker(t *testing.T) {
	k := des.New()
	tr := NewTracker()
	sub := &nullSubmitter{}
	syms := job.NewSymbols()
	w, err := workflow.Chain("wf", "e", true, k, syms, sub, []*job.Job{
		{ID: 1, Name: syms.Intern("a"), User: syms.Intern("u"), Project: syms.Intern("p"), Cores: 1, RunTime: 10, ReqWalltime: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	j := sub.grab(t, w)
	tr.Watch(j, w)
	if tr.Tracked() != 1 {
		t.Errorf("Tracked = %d", tr.Tracked())
	}
	j.State = job.StateCompleted
	tr.JobFinished(j)
	if w.Completed() != 1 {
		t.Error("tracker did not route finish to workflow")
	}
	if tr.Tracked() != 0 {
		t.Errorf("Tracked = %d after the job finished, want 0", tr.Tracked())
	}
	// Unknown jobs are ignored.
	tr.JobFinished(&job.Job{ID: 99})
}

type nullSubmitter struct{ jobs []*job.Job }

func (n *nullSubmitter) SubmitJob(j *job.Job) { n.jobs = append(n.jobs, j) }

func (n *nullSubmitter) grab(t *testing.T, w *workflow.Instance) *job.Job {
	t.Helper()
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	if len(n.jobs) == 0 {
		t.Fatal("no job released")
	}
	return n.jobs[0]
}

// testEnv builds a two-machine environment with all substrates.
func testEnv(t *testing.T, seed uint64) *Env {
	t.Helper()
	e, _ := testEnvLedger(t, seed)
	return e
}

// testEnvLedger is testEnv together with the ledger its gateway spools
// attribute records into.
func testEnvLedger(t *testing.T, seed uint64) (*Env, *accounting.Ledger) {
	t.Helper()
	k, syms := des.New(), job.NewSymbols()
	big := &grid.Machine{ID: "big", Site: "s1", Nodes: 128, CoresPerNode: 8,
		NUPerCoreHour: 2, UrgentCapable: true, VizNodes: 8}
	small := &grid.Machine{ID: "small", Site: "s2", Nodes: 32, CoresPerNode: 8,
		NUPerCoreHour: 1}
	scheds := map[string]*sched.Scheduler{
		"big":   sched.MustNamed(k, syms, big, "easy"),
		"small": sched.MustNamed(k, syms, small, "easy"),
	}
	pop, err := users.Synthesize(users.Config{Projects: 10, UsersPerProjMu: 0.5,
		UsersPerProjSd: 0.5, ActivityAlpha: 1.5}, simrand.Derive(seed, "pop"))
	if err != nil {
		t.Fatal(err)
	}
	brk := metasched.New(k, syms, metasched.LeastLoaded, simrand.Derive(seed, "brk"),
		[]*sched.Scheduler{scheds["big"], scheds["small"]})
	ledger := accounting.NewLedger("s2", syms)
	gw, err := gateway.New("nanohub", "nano-comm", "TG-GW", "nano", 0.9,
		k, syms, simrand.Derive(seed, "gw"), submitTo(scheds["small"]), ledger)
	if err != nil {
		t.Fatal(err)
	}
	return &Env{
		K: k, Seed: seed, Horizon: 7 * des.Day, Syms: syms,
		Pop:   pop,
		Sched: scheds, Broker: brk,
		Gateways: map[string]*gateway.Gateway{"nanohub": gw},
		Tracker:  NewTracker(),
		Jobs:     new(job.Pool),
	}, ledger
}

type schedSub struct{ s *sched.Scheduler }

func (ss schedSub) SubmitJob(j *job.Job) { ss.s.Submit(j) }

func submitTo(s *sched.Scheduler) gateway.Submitter { return schedSub{s} }

// drain runs the kernel and collects all finished jobs per machine.
func drain(e *Env) map[job.Modality][]*job.Job {
	byMod := make(map[job.Modality][]*job.Job)
	for _, s := range e.Sched {
		s.Subscribe(func(ev sched.Event) {
			if ev.Kind == sched.EventFinished {
				mod := job.Modality(e.Syms.Str(ev.Job.Truth.Modality))
				byMod[mod] = append(byMod[mod], ev.Job)
				e.Tracker.JobFinished(ev.Job)
			}
		})
	}
	e.K.Run()
	return byMod
}

func TestBatchGen(t *testing.T) {
	e := testEnv(t, 1)
	(&BatchGen{JobsPerDay: 80, CapabilityFrac: 0.05, MedianRuntime: 1800}).Start(e)
	byMod := drain(e)
	if len(byMod[job.ModBatchCapacity]) < 50 {
		t.Errorf("capacity jobs = %d, want many", len(byMod[job.ModBatchCapacity]))
	}
	if len(byMod[job.ModBatchCapability]) == 0 {
		t.Error("no capability jobs at 5% fraction over a week")
	}
	for _, j := range byMod[job.ModBatchCapability] {
		if j.Cores < e.Sched["big"].M.BatchCores()/2 {
			t.Errorf("capability job with %d cores; too small", j.Cores)
		}
		if e.Syms.Str(j.Machine) != "big" {
			t.Errorf("capability job on %s, want the largest machine", e.Syms.Str(j.Machine))
		}
	}
	for _, j := range byMod[job.ModBatchCapacity] {
		if j.Attr.SubmitVia != job.SymLogin && j.Attr.SubmitVia != job.SymGram {
			t.Errorf("batch job via %q", e.Syms.Str(j.Attr.SubmitVia))
		}
		if j.Attr.ScienceField == job.SymNone {
			t.Error("batch job missing science field")
		}
	}
}

func TestEnsembleGenBurstsAndCoverage(t *testing.T) {
	e := testEnv(t, 2)
	(&EnsembleGen{CampaignsPerDay: 3, JobsPerCampaign: 10, TagCoverage: 0.5,
		MedianRuntime: 600}).Start(e)
	byMod := drain(e)
	members := byMod[job.ModEnsemble]
	if len(members) < 30 {
		t.Fatalf("ensemble members = %d, want many", len(members))
	}
	campaigns := map[job.Sym][]*job.Job{}
	tagged := 0
	for _, j := range members {
		campaigns[j.Truth.CampaignID] = append(campaigns[j.Truth.CampaignID], j)
		if j.Attr.EnsembleID != job.SymNone {
			if j.Attr.EnsembleID != j.Truth.CampaignID {
				t.Error("tag does not match campaign")
			}
			tagged++
		}
	}
	frac := float64(tagged) / float64(len(members))
	if frac < 0.2 || frac > 0.8 {
		t.Errorf("tagged fraction = %v, want ~0.5", frac)
	}
	for id, js := range campaigns {
		if len(js) < 2 {
			t.Errorf("campaign %s has %d members", e.Syms.Str(id), len(js))
		}
		// All members share name and cores (the inference signature).
		for _, j := range js[1:] {
			if j.Name != js[0].Name || j.Cores != js[0].Cores {
				t.Errorf("campaign %s members differ in name/cores", e.Syms.Str(id))
			}
		}
	}
}

func TestWorkflowGenRunsToCompletion(t *testing.T) {
	e := testEnv(t, 3)
	(&WorkflowGen{CampaignsPerDay: 2, TaggedFrac: 0.5, Workers: 4, MedianTask: 600}).Start(e)
	byMod := drain(e)
	wf := byMod[job.ModWorkflow]
	if len(wf) < 10 {
		t.Fatalf("workflow tasks = %d, want many", len(wf))
	}
	taggedSeen, untaggedSeen := false, false
	for _, j := range wf {
		if j.Attr.WorkflowID != job.SymNone {
			taggedSeen = true
		} else {
			untaggedSeen = true
		}
		if j.Truth.CampaignID == job.SymNone {
			t.Error("workflow task missing campaign truth")
		}
	}
	if !taggedSeen || !untaggedSeen {
		t.Errorf("coverage mix wrong: tagged=%v untagged=%v", taggedSeen, untaggedSeen)
	}
}

func TestGatewayGen(t *testing.T) {
	e, ledger := testEnvLedger(t, 4)
	(&GatewayGen{Gateway: "nanohub", RequestsPerDay: 60, EndUsers: 50, MedianRuntime: 300}).Start(e)
	byMod := drain(e)
	gwj := byMod[job.ModGateway]
	if len(gwj) < 30 {
		t.Fatalf("gateway jobs = %d, want many", len(gwj))
	}
	for _, j := range gwj {
		if e.Syms.Str(j.User) != "nano-comm" || e.Syms.Str(j.Project) != "TG-GW" {
			t.Fatalf("gateway job has identity %s/%s, want community account", e.Syms.Str(j.User), e.Syms.Str(j.Project))
		}
		if e.Syms.Str(j.Attr.GatewayID) != "nanohub" {
			t.Fatal("gateway job missing gateway attribute")
		}
	}
	c := accounting.NewCentral(e.Syms)
	if err := c.Ingest(ledger.Flush(e.K.Now())); err != nil {
		t.Fatal(err)
	}
	endUsers := map[job.Sym]bool{}
	for _, run := range c.GatewayAttrs() {
		for _, a := range run {
			endUsers[a.GatewayUser] = true
		}
	}
	if len(endUsers) < 5 {
		t.Errorf("distinct end users = %d, want several", len(endUsers))
	}
}

func TestUrgentAndInteractiveGens(t *testing.T) {
	e := testEnv(t, 5)
	(&UrgentGen{EventsPerWeek: 10, MedianRuntime: 900}).Start(e)
	(&InteractiveGen{SessionsPerDay: 10, MedianSession: 900}).Start(e)
	byMod := drain(e)
	if len(byMod[job.ModUrgent]) == 0 {
		t.Error("no urgent jobs")
	}
	for _, j := range byMod[job.ModUrgent] {
		if j.QOS != job.QOSUrgent || e.Syms.Str(j.Machine) != "big" {
			t.Errorf("urgent job misrouted: qos=%v machine=%s", j.QOS, e.Syms.Str(j.Machine))
		}
	}
	if len(byMod[job.ModInteractive]) == 0 {
		t.Error("no interactive sessions")
	}
	for _, j := range byMod[job.ModInteractive] {
		if j.QOS != job.QOSInteractive {
			t.Error("interactive session with wrong QOS")
		}
		if e.Syms.Str(j.Machine) != "big" { // only machine with viz nodes
			t.Errorf("viz session on %s", e.Syms.Str(j.Machine))
		}
	}
}

func TestMetaschedGen(t *testing.T) {
	e := testEnv(t, 6)
	(&MetaschedGen{JobsPerDay: 20, CoAllocFrac: 0.2, MedianRuntime: 900}).Start(e)
	byMod := drain(e)
	ms := byMod[job.ModMetascheduled]
	if len(ms) < 20 {
		t.Fatalf("metascheduled jobs = %d, want many", len(ms))
	}
	coalloc := 0
	for _, j := range ms {
		if j.Attr.CoAllocID != job.SymNone {
			coalloc++
		} else if j.Attr.BrokerJobID == job.SymNone {
			t.Error("metascheduled job carries no broker evidence at full coverage")
		}
	}
	if e.Broker.Routed() == 0 {
		t.Error("broker routed nothing")
	}
}

func TestDataCentricGenStages(t *testing.T) {
	e := testEnv(t, 7)
	// Wire a stager over a 2-site fabric.
	topo := networkTopo(t)
	fabric := networkFabric(e.K, topo)
	e.Stager = storage.NewStager(e.K, fabric)
	e.DataHomeSite = map[job.Sym]string{}
	for _, p := range e.Pop.Projects {
		e.DataHomeSite[e.Syms.Intern(p)] = "s1"
	}
	(&DataCentricGen{JobsPerDay: 10, MedianInputGB: 5, MedianRuntime: 600}).Start(e)
	byMod := drain(e)
	dc := byMod[job.ModDataCentric]
	if len(dc) < 10 {
		t.Fatalf("data-centric jobs = %d, want many", len(dc))
	}
	if e.Stager.Staged() == 0 {
		t.Error("no staging transfers happened")
	}
	for _, j := range dc {
		if j.InputBytes <= 0 {
			t.Error("data-centric job without data")
		}
	}
}

func networkTopo(t *testing.T) *network.Topology {
	t.Helper()
	topo := network.NewTopology()
	for _, s := range []string{"s1", "s2"} {
		if err := topo.AddSite(s, 10); err != nil {
			t.Fatal(err)
		}
	}
	return topo
}

func networkFabric(k *des.Kernel, topo *network.Topology) *network.Fabric {
	return network.NewFabric(k, topo)
}

func TestEnvHelpers(t *testing.T) {
	e := testEnv(t, 8)
	ms := e.Machines()
	if len(ms) != 2 || ms[0] != "big" || ms[1] != "small" {
		t.Errorf("Machines = %v", ms)
	}
	id1, id2 := e.NewJobID(), e.NewJobID()
	if id2 != id1+1 {
		t.Error("job ID allocation wrong")
	}
	j := &job.Job{ID: 1, Name: e.Syms.Intern("x"), User: e.Syms.Intern("u"), Project: e.Syms.Intern("p"), Cores: 1,
		RunTime: 10, ReqWalltime: 20}
	if err := e.SubmitDirect("nope", job.SymLogin, j); err == nil {
		t.Error("unknown machine accepted")
	}
	if err := e.SubmitDirect("big", job.SymLogin, j); err != nil {
		t.Error(err)
	}
	e.K.Run()
}

func TestReplayGen(t *testing.T) {
	e := testEnv(t, 10)
	jobs := []trace.Job{
		{Number: 1, Submit: 0, Run: 100, Procs: 8, ReqProcs: 8, ReqTime: 200,
			Status: 1, UserID: 1, GroupID: 1, ExecID: 1, Queue: 1, Partition: 1},
		{Number: 2, Submit: 50, Run: 60, Procs: 4, ReqProcs: 4, ReqTime: -1,
			Status: 1, UserID: 2, GroupID: 1, ExecID: 2, Queue: 2, Partition: 1},
		{Number: 3, Submit: 100, Run: 0, Procs: 4}, // cancelled entry: skipped
		{Number: 4, Submit: 120, Run: 30, Procs: 1000000, ReqProcs: 1000000,
			ReqTime: 60, Status: 1, Queue: 1}, // clamped to machine size
	}
	(&ReplayGen{Jobs: jobs, Machine: "big"}).Start(e)
	byMod := drain(e)
	total := 0
	for _, js := range byMod {
		total += len(js)
	}
	if total != 3 {
		t.Fatalf("replayed %d jobs, want 3 (one skipped)", total)
	}
	if len(byMod[job.ModUrgent]) != 1 {
		t.Errorf("urgent queue mapping lost: %v", byMod)
	}
	for _, js := range byMod {
		for _, j := range js {
			if j.Cores > 1024 {
				t.Errorf("job not clamped: %d cores", j.Cores)
			}
			if !j.State.Terminal() {
				t.Errorf("replayed job not finished: %v", j.State)
			}
		}
	}
}

func TestReplayGenTimeScaleAndHorizon(t *testing.T) {
	e := testEnv(t, 11)
	e.Horizon = 100
	jobs := []trace.Job{
		{Number: 1, Submit: 40, Run: 10, Procs: 1, ReqTime: 20, Queue: 1},
		{Number: 2, Submit: 90, Run: 10, Procs: 1, ReqTime: 20, Queue: 1},
	}
	// TimeScale 2: submits at 80 and 180; the second is past the horizon.
	(&ReplayGen{Jobs: jobs, Machine: "small", TimeScale: 2}).Start(e)
	byMod := drain(e)
	total := 0
	for _, js := range byMod {
		total += len(js)
	}
	if total != 1 {
		t.Fatalf("replayed %d jobs, want 1 (horizon cut)", total)
	}
}

func TestDelayedGen(t *testing.T) {
	e := testEnv(t, 9)
	after := 3 * des.Day
	(&DelayedGen{After: after,
		Gen: &BatchGen{JobsPerDay: 80, MedianRuntime: 1800}}).Start(e)
	byMod := drain(e)
	total := 0
	for _, jobs := range byMod {
		for _, j := range jobs {
			total++
			if j.SubmitTime < after {
				t.Fatalf("job %d submitted at %v, before the %v delay", j.ID, j.SubmitTime, after)
			}
		}
	}
	if total == 0 {
		t.Fatal("delayed generator produced nothing in the remaining horizon")
	}

	// A delay at/past the horizon generates nothing at all.
	e2 := testEnv(t, 9)
	(&DelayedGen{After: e2.Horizon,
		Gen: &BatchGen{JobsPerDay: 80, MedianRuntime: 1800}}).Start(e2)
	if byMod := drain(e2); len(byMod) != 0 {
		t.Errorf("past-horizon delay still generated %d modalities", len(byMod))
	}

	// Zero delay is transparent.
	e3 := testEnv(t, 9)
	(&DelayedGen{Gen: &BatchGen{JobsPerDay: 80, MedianRuntime: 1800}}).Start(e3)
	if byMod := drain(e3); len(byMod) == 0 {
		t.Error("zero-delay wrapper generated nothing")
	}
}
