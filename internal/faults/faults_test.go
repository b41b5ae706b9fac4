package faults

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/gateway"
	"github.com/tgsim/tgmod/internal/grid"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/metasched"
	"github.com/tgsim/tgmod/internal/network"
	"github.com/tgsim/tgmod/internal/sched"
	"github.com/tgsim/tgmod/internal/simrand"
)

func TestRetryPolicyDelays(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 4, Base: 10, MaxDelay: 45, Multiplier: 2}
	want := []des.Time{10, 20, 40, 45}
	for i, w := range want {
		d, ok := p.Delay(i+1, nil)
		if !ok {
			t.Fatalf("attempt %d disallowed", i+1)
		}
		if d != w {
			t.Errorf("attempt %d delay = %v, want %v", i+1, d, w)
		}
	}
	if _, ok := p.Delay(5, nil); ok {
		t.Error("attempt beyond MaxAttempts allowed")
	}
}

func TestRetryPolicyJitterIsBounded(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 100, Base: 100, Multiplier: 1, Jitter: 0.2}
	rng := simrand.Derive(1, "test/jitter")
	for i := 1; i <= 50; i++ {
		d, ok := p.Delay(i, rng)
		if !ok {
			t.Fatalf("attempt %d disallowed", i)
		}
		if d < 80 || d > 120 {
			t.Fatalf("attempt %d delay %v outside [80,120]", i, d)
		}
	}
}

func TestRetryPolicyWallDelay(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 3, Base: 0.05, MaxDelay: 2, Multiplier: 2}
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
	for i, w := range want {
		d, ok := p.WallDelay(i+1, nil)
		if !ok {
			t.Fatalf("attempt %d disallowed", i+1)
		}
		if d != w {
			t.Errorf("attempt %d wall delay = %v, want %v", i+1, d, w)
		}
	}
	if _, ok := p.WallDelay(4, nil); ok {
		t.Error("attempt beyond MaxAttempts allowed")
	}
}

// ---- Injector harness ----

type brokerSub struct{ b *metasched.Broker }

func (s brokerSub) SubmitJob(j *job.Job) { s.b.Submit(j) }

type rig struct {
	k      *des.Kernel
	scheds []*sched.Scheduler
	broker *metasched.Broker
	fabric *network.Fabric
	gw     *gateway.Gateway
	inj    *Injector
	events []Event
	syms   *job.Symbols
}

func newRig(t *testing.T, seed uint64, cfg Config) *rig {
	t.Helper()
	k, syms := des.New(), job.NewSymbols()
	m1 := &grid.Machine{ID: "m1", Site: "sA", Nodes: 8, CoresPerNode: 8,
		NUPerCoreHour: 1, UrgentCapable: true}
	m2 := &grid.Machine{ID: "m2", Site: "sB", Nodes: 8, CoresPerNode: 8,
		NUPerCoreHour: 1}
	s1 := sched.MustNamed(k, syms, m1, "easy")
	s2 := sched.MustNamed(k, syms, m2, "easy")
	broker := metasched.New(k, syms, metasched.LeastLoaded, simrand.Derive(seed, "broker"),
		[]*sched.Scheduler{s1, s2})
	topo := network.NewTopology()
	if err := topo.AddSite("sA", 1); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddSite("sB", 1); err != nil {
		t.Fatal(err)
	}
	fabric := network.NewFabric(k, topo)
	gw, err := gateway.New("gw1", "community", "proj-gw", "bio", 1.0,
		k, syms, simrand.Derive(seed, "gateway/gw1"), brokerSub{broker}, accounting.NewLedger("sA", syms))
	if err != nil {
		t.Fatal(err)
	}

	r := &rig{k: k, scheds: []*sched.Scheduler{s1, s2}, broker: broker, fabric: fabric, gw: gw, syms: syms}
	r.inj = New(k, cfg, seed)
	r.inj.AddMachines(s1, s2)
	r.inj.SetBroker(broker)
	r.inj.SetFabric(fabric)
	r.inj.AddGateways(gw)
	r.inj.OnEvent = append(r.inj.OnEvent, func(ev Event) { r.events = append(r.events, ev) })
	r.inj.Start()
	return r
}

func crashOnlyConfig() Config {
	cfg := DefaultConfig()
	cfg.MachineMTBF = 2000
	cfg.MachineRepair = 500
	cfg.NodeMTBF = 0
	cfg.LinkMTBF = 0
	cfg.GatewayMTBF = 0
	cfg.Cooldown = 100
	return cfg
}

// loadUntil keeps both machines saturated with long jobs so crashes always
// find victims.
func loadUntil(r *rig, horizon des.Time) {
	var nextID job.ID = 1000
	for at := des.Time(0); at < horizon; at += 500 {
		r.k.AtNamed(at, "test-submit", func(*des.Kernel) {
			nextID++
			r.broker.Submit(&job.Job{
				ID: nextID, Name: r.syms.Intern("t"), User: r.syms.Intern("u"), Project: r.syms.Intern("p"),
				Cores: 32, RunTime: 3000, ReqWalltime: 4000,
			})
		})
	}
}

func TestInjectorCrashesFailoverVictims(t *testing.T) {
	r := newRig(t, 7, crashOnlyConfig())
	loadUntil(r, 20000)
	if err := r.k.RunUntil(40000); err != nil {
		t.Fatal(err)
	}
	st := r.inj.Stats()
	if st.MachineCrashes == 0 {
		t.Fatal("no machine crashes over 10 MTBFs of virtual time")
	}
	if st.CrashKills == 0 {
		t.Fatal("crashes never killed a running job despite saturation")
	}
	if st.Failovers+st.Requeues != st.CrashKills {
		t.Errorf("failovers (%d) + requeues (%d) != kills (%d)",
			st.Failovers, st.Requeues, st.CrashKills)
	}
	if st.Failovers == 0 {
		t.Error("no victim was ever failed over with a healthy second machine")
	}
	if r.broker.Failovers() != st.Failovers {
		t.Errorf("broker failover counter %d != injector %d", r.broker.Failovers(), st.Failovers)
	}
	if r.scheds[0].Stats().Crashes+r.scheds[1].Stats().Crashes != st.MachineCrashes {
		t.Error("scheduler crash counters disagree with injector")
	}
	// Kills charge wasted work somewhere.
	for _, ev := range r.events {
		if ev.Kind == EvMachineCrash && ev.Until <= 0 {
			t.Error("crash event without a repair horizon")
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	run := func() ([]Event, Stats) {
		r := newRig(t, 11, crashOnlyConfig())
		loadUntil(r, 20000)
		if err := r.k.RunUntil(40000); err != nil {
			t.Fatal(err)
		}
		return r.events, r.inj.Stats()
	}
	ev1, st1 := run()
	ev2, st2 := run()
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("stats differ across same-seed runs:\n%+v\n%+v", st1, st2)
	}
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("event sequences differ across same-seed runs (%d vs %d events)",
			len(ev1), len(ev2))
	}
	if len(ev1) == 0 {
		t.Fatal("determinism test vacuous: no events fired")
	}
}

func TestInjectorDisabledSchedulesNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Enabled = false
	r := newRig(t, 7, cfg)
	if err := r.k.RunUntil(des.Forever); err != nil {
		t.Fatal(err)
	}
	if r.k.Executed() != 0 {
		t.Errorf("disabled injector executed %d events, want 0", r.k.Executed())
	}
	if len(r.events) != 0 {
		t.Errorf("disabled injector emitted %d events", len(r.events))
	}
}

func TestGatewayFlapRetriesSubmissions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MachineMTBF = 0
	cfg.NodeMTBF = 0
	cfg.LinkMTBF = 0
	cfg.GatewayMTBF = 1000
	cfg.GatewayRepair = 300
	cfg.Retry = RetryPolicy{MaxAttempts: 8, Base: 50, MaxDelay: 400, Multiplier: 2, Jitter: 0.2}
	r := newRig(t, 3, cfg)
	var nextID job.ID = 2000
	for at := des.Time(0); at < 20000; at += 100 {
		r.k.AtNamed(at, "test-request", func(*des.Kernel) {
			nextID++
			r.gw.Request(fmt.Sprintf("user%d", nextID%7), &job.Job{
				ID: nextID, Name: r.syms.Intern("g"), User: r.syms.Intern("u"), Project: r.syms.Intern("p"),
				Cores: 4, RunTime: 50, ReqWalltime: 100,
			})
		})
	}
	if err := r.k.RunUntil(40000); err != nil {
		t.Fatal(err)
	}
	st := r.inj.Stats()
	if st.GatewayFlaps == 0 {
		t.Fatal("gateway never flapped over 20 MTBFs")
	}
	if r.gw.RejectedDown() == 0 {
		t.Fatal("down gateway never rejected a request")
	}
	if st.GatewayRetries == 0 {
		t.Fatal("rejections never scheduled retries")
	}
	// Retried requests must eventually get through: total accepted requests
	// exceed what raw rejections would allow if retries were dropped.
	if r.gw.Requests() == 0 {
		t.Fatal("no request ever succeeded")
	}
}

func TestLinkPartitionAbortsAndRestartsTransfers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MachineMTBF = 0
	cfg.NodeMTBF = 0
	cfg.GatewayMTBF = 0
	cfg.LinkMTBF = 300
	cfg.LinkRepair = 100
	cfg.PartitionProb = 1 // every link event is a partition
	cfg.Retry = RetryPolicy{MaxAttempts: 10, Base: 20, MaxDelay: 200, Multiplier: 2, Jitter: 0.2}
	r := newRig(t, 5, cfg)

	// A transfer that takes ~8000 s at full 1 Gb/s rate: partitions with a
	// 300 s MTBF will interrupt it many times.
	done := 0
	start := func(*des.Kernel) {
		_, err := r.fabric.StartOwned("sA", "sB", int64(1e12), 4,
			network.Ownership{User: "u", Project: "p"}, func(*network.Transfer) { done++ })
		if err != nil {
			t.Error(err)
		}
	}
	r.k.AtNamed(0, "test-xfer", start)
	if err := r.k.RunUntil(200000); err != nil {
		t.Fatal(err)
	}
	st := r.inj.Stats()
	if st.LinkPartitions == 0 {
		t.Fatal("no partitions over many MTBFs")
	}
	if st.TransferAborts == 0 {
		t.Fatal("partition never aborted the in-flight transfer")
	}
	if st.TransferRestarts == 0 && st.GiveUps == 0 {
		t.Fatal("aborted transfer neither restarted nor gave up")
	}
	if done > 1 {
		t.Errorf("done hook fired %d times, want at most once", done)
	}
}

func TestCrashVictimRequeuedWhenNoHealthyMachine(t *testing.T) {
	// Single machine, no broker alternatives: victims must requeue locally.
	k := des.New()
	m := &grid.Machine{ID: "solo", Site: "sA", Nodes: 8, CoresPerNode: 8,
		NUPerCoreHour: 1}
	syms := job.NewSymbols()
	s := sched.MustNamed(k, syms, m, "fcfs")
	broker := metasched.New(k, syms, metasched.LeastLoaded, simrand.Derive(1, "broker"),
		[]*sched.Scheduler{s})
	inj := New(k, crashOnlyConfig(), 1)
	inj.AddMachines(s)
	inj.SetBroker(broker)
	inj.Start()
	var nextID job.ID = 3000
	for at := des.Time(0); at < 20000; at += 400 {
		k.AtNamed(at, "test-submit", func(*des.Kernel) {
			nextID++
			s.Submit(&job.Job{ID: nextID, Name: syms.Intern("t"), User: syms.Intern("u"), Project: syms.Intern("p"),
				Cores: 32, RunTime: 3000, ReqWalltime: 4000})
		})
	}
	if err := k.RunUntil(60000); err != nil {
		t.Fatal(err)
	}
	st := inj.Stats()
	if st.CrashKills == 0 {
		t.Fatal("no kills on a saturated solo machine")
	}
	if st.Failovers != 0 {
		t.Errorf("failovers = %d on a one-machine grid (cooldown should forbid)", st.Failovers)
	}
	if st.Requeues != st.CrashKills {
		t.Errorf("requeues = %d, want all %d kills", st.Requeues, st.CrashKills)
	}
}
