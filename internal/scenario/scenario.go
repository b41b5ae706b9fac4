// Package scenario assembles complete simulations: the standard nine-site
// federation, the network, schedulers, accounting pipeline, allocations,
// gateways, metascheduler, and the workload generators, wired together and
// run to a horizon. Experiments and examples configure a Config, call Run,
// and analyze the returned accounting database with the core package.
package scenario

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/alloc"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/faults"
	"github.com/tgsim/tgmod/internal/gateway"
	"github.com/tgsim/tgmod/internal/grid"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/metasched"
	"github.com/tgsim/tgmod/internal/network"
	"github.com/tgsim/tgmod/internal/obs"
	"github.com/tgsim/tgmod/internal/perf"
	"github.com/tgsim/tgmod/internal/sched"
	"github.com/tgsim/tgmod/internal/simrand"
	"github.com/tgsim/tgmod/internal/storage"
	"github.com/tgsim/tgmod/internal/telemetry"
	"github.com/tgsim/tgmod/internal/users"
	"github.com/tgsim/tgmod/internal/workload"
)

// TG9 builds the standard simulated federation: nine sites with
// heterogeneous machines spanning three orders of magnitude in size, one
// very large capability system, viz partitions at two sites, and
// urgent-capable systems at three. Names are descriptive, not historic.
func TG9() (*grid.Federation, error) {
	mk := func(id, site string, nodes, cpn int, nu float64, viz int, urgent bool) *grid.Machine {
		return &grid.Machine{
			ID: id, Site: site, Nodes: nodes, CoresPerNode: cpn,
			NUPerCoreHour: nu, VizNodes: viz, UrgentCapable: urgent,
		}
	}
	sites := []*grid.Site{
		{ID: "ridge", WANGbps: 30, ArchivePB: 10, Machines: []*grid.Machine{
			mk("ridge-xt", "ridge", 8256, 12, 2.9, 0, false), // ~99k cores, capability
		}},
		{ID: "mesa", WANGbps: 30, ArchivePB: 6, Machines: []*grid.Machine{
			mk("mesa-ranger", "mesa", 3936, 16, 1.9, 0, true), // ~63k cores
		}},
		{ID: "lakeside", WANGbps: 20, ArchivePB: 4, Machines: []*grid.Machine{
			mk("lakeside-abe", "lakeside", 1200, 8, 2.2, 0, true),
			mk("lakeside-viz", "lakeside", 96, 16, 1.0, 64, false),
		}},
		{ID: "harbor", WANGbps: 20, ArchivePB: 25, Machines: []*grid.Machine{
			mk("harbor-db", "harbor", 512, 8, 1.2, 0, false), // data-intensive system
		}},
		{ID: "prairie", WANGbps: 10, ArchivePB: 3, Machines: []*grid.Machine{
			mk("prairie-cluster", "prairie", 768, 8, 1.4, 0, false),
		}},
		{ID: "foothill", WANGbps: 10, ArchivePB: 2, Machines: []*grid.Machine{
			mk("foothill-ia", "foothill", 640, 4, 1.1, 32, false),
		}},
		{ID: "bayou", WANGbps: 10, ArchivePB: 2, Machines: []*grid.Machine{
			mk("bayou-qb", "bayou", 668, 8, 1.6, 0, true),
		}},
		{ID: "summit", WANGbps: 10, ArchivePB: 1, Machines: []*grid.Machine{
			mk("summit-pople", "summit", 384, 8, 1.3, 0, false),
		}},
		{ID: "campus", WANGbps: 10, ArchivePB: 1, Machines: []*grid.Machine{
			mk("campus-condor", "campus", 400, 2, 0.6, 0, false), // HTC farm
		}},
	}
	return grid.NewFederation("tg9", sites...)
}

// GatewayConfig describes one science gateway to instantiate.
type GatewayConfig struct {
	ID           string
	Machine      string // target machine for submissions
	ScienceField string
	AttrCoverage float64 // probability of per-request end-user attributes
}

// Config parameterizes a full simulation.
type Config struct {
	Seed    uint64
	Horizon des.Time
	// DrainTime: extra time after the horizon for queues to empty.
	DrainTime des.Time
	// Policy names the batch policy engine at every site (sched.EngineNames).
	Policy string
	// BrokerPolicy is the metascheduler's selection policy.
	BrokerPolicy metasched.SelectPolicy
	// BrokerTagCoverage is the probability broker jobs carry their tag.
	BrokerTagCoverage float64
	// Population sizing.
	Users users.Config
	// AwardNUs is the mean allocation size (lognormally spread).
	AwardNUs float64
	// Gateways to instantiate.
	Gateways []GatewayConfig
	// Generators to run (constructed by the caller; the scenario injects
	// the Env).
	Generators []workload.Generator
	// ReportInterval is how often site ledgers flush to the central DB.
	ReportInterval des.Time
	// MaintenanceEvery, when positive, schedules a recurring maintenance
	// outage of MaintenanceLength on every machine (staggered by site so
	// the federation never goes fully dark), modeling the preventive-
	// maintenance windows production systems took.
	MaintenanceEvery  des.Time
	MaintenanceLength des.Time
	// Federation override; nil means TG9.
	Federation *grid.Federation
	// EventLimit, when positive, bounds the kernel's future-event list; a
	// run that exceeds it fails with des.ErrEventBacklog. Fleet workers use
	// this to fail a runaway replication cleanly.
	EventLimit int
	// Faults configures the deterministic fault injector
	// (WithFaultIntensity). The zero value disables it entirely: no injector
	// is built, no fault streams are derived, and the run is byte-identical
	// to a pre-fault build.
	Faults faults.Config
	// CheckpointRestart turns on checkpoint/restart at every machine:
	// preempted and fault-killed jobs resume from their last completed
	// checkpoint (losing only the tail past it) instead of from scratch.
	CheckpointRestart bool
	// CheckpointInterval is the checkpoint cadence (zero = 15 min default).
	CheckpointInterval des.Time
	// CheckpointOverhead, when positive, dilates each run by one overhead
	// per completed checkpoint interval — the cost of writing checkpoints.
	CheckpointOverhead des.Time
	// Observers contribute observability wiring through the consolidated
	// Attachment seam; register them with WithObserver. None attached means
	// an unobserved run that pays nothing.
	Observers []Observer
}

// DefaultConfig returns a one-quarter simulation with the standard
// workload mix at moderate load.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:              seed,
		Horizon:           90 * des.Day,
		DrainTime:         14 * des.Day,
		Policy:            "easy",
		BrokerPolicy:      metasched.BestEstimated,
		BrokerTagCoverage: 1.0,
		Users:             users.DefaultConfig(),
		AwardNUs:          2e6,
		Gateways: []GatewayConfig{
			{ID: "nanohub", Machine: "campus-condor", ScienceField: "nanoscience", AttrCoverage: 0.9},
			{ID: "cipres", Machine: "prairie-cluster", ScienceField: "molecular-biosciences", AttrCoverage: 0.9},
			{ID: "climate-portal", Machine: "mesa-ranger", ScienceField: "atmospheric-sciences", AttrCoverage: 0.9},
		},
		Generators:     DefaultGenerators(),
		ReportInterval: des.Day,
	}
}

// DefaultGenerators returns the standard workload mix. Rates are tuned so
// the federation runs at productive-but-contended load under EASY.
func DefaultGenerators() []workload.Generator {
	return []workload.Generator{
		// CapabilityFrac is calibrated so hero jobs offer ~60% of the
		// largest machine's capacity: 700/day × 0.002 = 1.4 heroes/day at
		// a ~16h mean on ~64k mean cores ≈ 1.5M core-hours/day against
		// ridge-xt's 2.4M. Higher fractions make the hero queue unstable
		// over a quarter (offered > capacity), which is an experiment, not
		// a default.
		&workload.BatchGen{JobsPerDay: 700, CapabilityFrac: 0.002, MedianRuntime: 3 * 3600},
		&workload.EnsembleGen{CampaignsPerDay: 12, JobsPerCampaign: 30, TagCoverage: 0.5, MedianRuntime: 1800},
		&workload.WorkflowGen{CampaignsPerDay: 10, TaggedFrac: 0.6, Workers: 8, MedianTask: 1200},
		&workload.GatewayGen{Gateway: "nanohub", RequestsPerDay: 400, EndUsers: 3000, MedianRuntime: 600},
		&workload.GatewayGen{Gateway: "cipres", RequestsPerDay: 150, EndUsers: 1200, MedianRuntime: 1500},
		&workload.GatewayGen{Gateway: "climate-portal", RequestsPerDay: 60, EndUsers: 400, MedianRuntime: 3600},
		&workload.UrgentGen{EventsPerWeek: 4, MedianRuntime: 2 * 3600},
		&workload.InteractiveGen{SessionsPerDay: 50, MedianSession: 1800},
		&workload.DataCentricGen{JobsPerDay: 40, MedianInputGB: 40, MedianRuntime: 2 * 3600},
		&workload.MetaschedGen{JobsPerDay: 80, CoAllocFrac: 0.05, MedianRuntime: 2 * 3600},
	}
}

// Result is everything a finished simulation exposes for analysis.
type Result struct {
	Config     Config
	Kernel     *des.Kernel
	Federation *grid.Federation
	Central    *accounting.Central
	Bank       *alloc.Bank
	Schedulers map[string]*sched.Scheduler
	Broker     *metasched.Broker
	Gateways   map[string]*gateway.Gateway
	Fabric     *network.Fabric
	Population *users.Population
	// Finished counts jobs that reached a terminal state.
	Finished int
	// LargestCores is the batch-core count of the biggest machine, for
	// classifier configuration.
	LargestCores int
	// Sampler holds the virtual-time metric series (nil unless a
	// SampleEvery observer was attached).
	Sampler *obs.Sampler
	// Phases holds the phase-attribution profile (nil unless a
	// ProfilePhases observer was attached).
	Phases *perf.Profiler
	// Faults is the fault injector (nil unless Config.Faults.Enabled); its
	// Stats() summarize every injected failure and resilience action.
	Faults *faults.Injector
}

// federation resolves cfg's federation: the override, or TG9 when nil.
func federation(cfg Config) (*grid.Federation, error) {
	if cfg.Federation != nil {
		return cfg.Federation, nil
	}
	return TG9()
}

// LargestBatchCores is the classifier's capability threshold for cfg: the
// batch cores of its federation's biggest machine. It is the value Run
// reports as Result.LargestCores, resolved before the run for consumers
// that need it up front (stream taps, observatory pushes).
func LargestBatchCores(cfg Config) (int, error) {
	fed, err := federation(cfg)
	if err != nil {
		return 0, err
	}
	return largestBatchCores(fed), nil
}

func largestBatchCores(fed *grid.Federation) int {
	largest := 0
	for _, s := range fed.Sites {
		for _, m := range s.Machines {
			largest = max(largest, m.BatchCores())
		}
	}
	return largest
}

// Run builds and executes the simulation described by cfg.
func Run(cfg Config) (*Result, error) {
	fed, err := federation(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("scenario: non-positive horizon")
	}
	if !slices.ContainsFunc(fed.Sites, func(s *grid.Site) bool { return s.ArchivePB > 0 }) {
		return nil, badConfig{errors.New("scenario: no site has an archive to home project data at")}
	}
	k := des.New()
	if cfg.EventLimit > 0 {
		k.SetPendingLimit(cfg.EventLimit)
	}
	// Merge the registered Observers into the single attachment the rest
	// of assembly wires from.
	att := cfg.attachment()
	spans := att.Spans
	if ev := att.SLO; ev != nil {
		// The evaluator reads the kernel clock for burn-rate exposition and
		// surfaces tg_slo_* families when a registry is configured.
		ev.Now = k.Now
		ev.Bind(att.Registry)
	}
	if att.Phases != nil {
		// Phase profilers are built by callers before the kernel exists;
		// bind this run's kernel so FEL high-water reporting works.
		att.Phases.Bind(k)
	}

	// Network and storage.
	topo := network.NewTopology()
	for _, s := range fed.Sites {
		if err := topo.AddSite(s.ID, s.WANGbps); err != nil {
			return nil, err
		}
	}
	fabric := network.NewFabric(k, topo)
	stager := storage.NewStager(k, fabric)

	// Population and allocations.
	pop, err := users.Synthesize(cfg.Users, simrand.Derive(cfg.Seed, "population"))
	if err != nil {
		return nil, err
	}
	bank := alloc.NewBank()
	awardRNG := simrand.Derive(cfg.Seed, "awards")
	for _, proj := range pop.Projects {
		pi, _ := pop.PI(proj)
		field := ""
		if pi != nil {
			field = pi.Field
		}
		nus := awardRNG.LogNormal(logf(cfg.AwardNUs), 1.0)
		piName := "unknown"
		if pi != nil {
			piName = pi.Name
		}
		if _, err := bank.Award(proj, piName, field, nus); err != nil {
			return nil, err
		}
	}

	// The run's one symbol table, made before anything creates a job: every
	// job, and every record made from one, indexes it. The schedulers,
	// broker, gateways and workload resolve their constant strings in it
	// once; the ledgers, the central database and each flushed packet
	// share it.
	syms := job.NewSymbols()

	// Accounting pipeline.
	central := accounting.NewCentral(syms)
	ledgers := make(map[string]*accounting.Ledger)
	for _, s := range fed.Sites {
		ledgers[s.ID] = accounting.NewLedger(s.ID, syms)
	}
	stager.OnTransfer = func(tr *network.Transfer) {
		l := ledgers[tr.Src]
		if l == nil {
			return
		}
		l.AddTransfer(accounting.TransferRecord{
			TransferID: tr.ID, Src: syms.Intern(tr.Src), Dst: syms.Intern(tr.Dst), Bytes: tr.Bytes,
			Start: float64(tr.StartedAt), End: float64(tr.EndedAt),
			User: syms.Intern(tr.User), Project: syms.Intern(tr.Project), JobID: tr.JobID,
		})
	}

	// Schedulers + event wiring. A scheduler has a single Probe field, so
	// installers append their decision-probe handlers to probes, by
	// machine ID, and each Probe is assigned once below.
	tracker := workload.NewTracker()
	scheds := make(map[string]*sched.Scheduler)
	probes := make(map[string][]func(string, *job.Job))
	finished := 0
	for _, m := range fed.Machines() {
		m := m
		s, err := sched.NewNamed(k, syms, m, cfg.Policy)
		if err != nil {
			return nil, err
		}
		if cfg.CheckpointRestart {
			s.CheckpointRestart = true
			s.CheckpointInterval = cfg.CheckpointInterval
			s.CheckpointOverhead = cfg.CheckpointOverhead
		}
		scheds[m.ID] = s
		s.Subscribe(func(e sched.Event) {
			switch e.Kind {
			case sched.EventFinished:
				finished++
				rec := accounting.RecordOf(e.Job, m)
				ledgers[m.Site].AddJob(rec)
				// Charge the allocation for actual usage; an overdraft
				// (alloc.ErrExhausted) is operational noise, not a
				// simulation failure.
				_ = bank.Charge(syms.Str(e.Job.Project), rec.NUs)
				tracker.JobFinished(e.Job)
			case sched.EventRejected:
				tracker.JobFinished(e.Job)
			}
		})
		if spans != nil {
			probes[m.ID] = append(probes[m.ID], installJobSpans(spans, k, s, syms))
		}
		if att.SLO != nil {
			installSLO(att.SLO, k, s, syms)
		}
	}
	if spans != nil {
		installTransferSpans(spans, k, fabric)
	}

	// Recurring preventive maintenance, staggered per machine.
	if cfg.MaintenanceEvery > 0 && cfg.MaintenanceLength > 0 {
		offset := des.Time(0)
		for _, m := range fed.Machines() {
			s := scheds[m.ID]
			stagger := offset
			offset += cfg.MaintenanceEvery / des.Time(len(fed.Machines()))
			// Announce each window one period ahead so the machine drains
			// instead of preempting.
			var announce func(start des.Time)
			announce = func(start des.Time) {
				if start >= cfg.Horizon {
					return
				}
				if err := s.ScheduleOutage(start, start+cfg.MaintenanceLength); err == nil {
					k.AtNamed(start+cfg.MaintenanceLength, "maint-announce", func(*des.Kernel) {
						announce(start + cfg.MaintenanceEvery)
					})
				}
			}
			announce(cfg.MaintenanceEvery + stagger)
		}
	}

	// Metascheduler.
	broker := metasched.New(k, syms, cfg.BrokerPolicy, simrand.Derive(cfg.Seed, "broker"), schedList(scheds))
	broker.TagCoverage = cfg.BrokerTagCoverage
	broker.Stage = func(from, to string, bytes int64) float64 {
		if from == to {
			return 0
		}
		// Crude planning estimate: site pair at 10 Gb/s effective.
		return float64(bytes) / (10e9 / 8)
	}

	// Gateways.
	gateways := make(map[string]*gateway.Gateway)
	for _, gc := range cfg.Gateways {
		target, ok := scheds[gc.Machine]
		if !ok {
			return nil, fmt.Errorf("scenario: gateway %s targets unknown machine %s", gc.ID, gc.Machine)
		}
		site := target.M.Site
		project := "TG-GW-" + gc.ID
		account := gc.ID + "-community"
		if _, err := bank.Award(project, account, gc.ScienceField, cfg.AwardNUs*5); err != nil {
			return nil, err
		}
		gw, err := gateway.New(gc.ID, account, project, gc.ScienceField, gc.AttrCoverage,
			k, syms, simrand.Derive(cfg.Seed, "gateway-"+gc.ID), submitterFor(target), ledgers[site])
		if err != nil {
			return nil, err
		}
		if spans != nil {
			installGatewaySpans(spans, k, gw)
		}
		gateways[gc.ID] = gw
	}

	// Fault injector, assembled after every component it disrupts exists.
	// Nothing is built on fault-free runs: the injector, its named random
	// streams, and its kernel events only exist when Faults.Enabled.
	var injector *faults.Injector
	if cfg.Faults.Enabled {
		injector = buildInjector(cfg, k, scheds, broker, fabric, gateways)
		if spans != nil {
			installFaultSpans(spans, k, injector)
		}
		if att.Registry != nil {
			installFaultTelemetry(att.Registry, injector)
		}
		injector.Start()
	}

	// Live telemetry, then each scheduler's one Probe, now that every
	// installer has appended its handlers.
	var th *telemetryHooks
	if att.Registry != nil {
		th = installTelemetry(att.Registry, k, syms, fed, scheds, fabric,
			gateways, bank, &finished, spans, probes)
	}
	for id, ps := range probes {
		scheds[id].Probe = func(kind string, j *job.Job) {
			for _, p := range ps {
				p(kind, j)
			}
		}
	}

	// Periodic accounting reporting over the simulated wire. Packet taps
	// (the streaming observatory's live ingest seam) observe each packet
	// after the central ingest, in deterministic site order.
	// The phase profiler charges the ledger flush / wire encode / central
	// ingest to PhaseAccounting and the tap fan-out (live classification
	// ingest) to PhaseClassify; both Region calls are nil-safe no-ops when
	// no profiler is attached.
	//
	// The central database and the taps share the flushed packet, which
	// never changes again. Only the telemetry wire-bytes counter reads the
	// wire form, so a run with a registry encodes each packet into one
	// run-owned buffer, reused across flushes.
	phases := att.Phases
	var wire []byte
	flushAll := func() error {
		for _, s := range fed.Sites {
			endAcct := phases.Region(perf.PhaseAccounting)
			p := ledgers[s.ID].Flush(k.Now())
			if p == nil {
				endAcct()
				continue
			}
			err := central.Ingest(p)
			if err == nil && th != nil {
				wire = p.AppendWire(wire[:0])
				th.flushed(len(p.Jobs), len(wire))
			}
			endAcct()
			if err != nil {
				return err
			}
			endTaps := phases.Region(perf.PhaseClassify)
			for _, tap := range att.Packets {
				tap(k.Now(), p)
			}
			endTaps()
		}
		return nil
	}
	if cfg.ReportInterval > 0 {
		k.EveryNamed(cfg.ReportInterval, "acct-flush", func(*des.Kernel) {
			if err := flushAll(); err != nil {
				panic("scenario: accounting flush: " + err.Error())
			}
		})
	}

	// Data homes: each project's reference data lives at a deterministic
	// random archive site.
	dataHomes := make(map[job.Sym]string)
	var archiveSites []string
	for _, s := range fed.Sites {
		if s.ArchivePB > 0 {
			archiveSites = append(archiveSites, s.ID)
		}
	}
	homeRNG := simrand.Derive(cfg.Seed, "data-homes")
	for _, proj := range pop.Projects {
		dataHomes[syms.Intern(proj)] = archiveSites[homeRNG.Intn(len(archiveSites))]
	}
	broker.DataHome = dataHomes

	// Workload.
	jobs := new(job.Pool)
	env := &workload.Env{
		K: k, Seed: cfg.Seed, Horizon: cfg.Horizon, Syms: syms,
		Pop: pop, Sched: scheds, Broker: broker, Gateways: gateways,
		Stager: stager, DataHomeSite: dataHomes,
		Tracker: tracker, Jobs: jobs,
	}
	for _, g := range cfg.Generators {
		g.Start(env)
	}
	// A job goes back to the pool at its one terminal event, from the last
	// listener of its scheduler, subscribed after every installer
	// (generators included): by then the ledger holds its record, the
	// tracker has routed it, and every observer has read it. A job that
	// never reaches a scheduler (a broker misfit, a gateway or staging
	// give-up, a task of an aborted workflow) is left to the garbage
	// collector.
	for _, s := range scheds {
		s.Subscribe(func(e sched.Event) {
			if e.Kind == sched.EventFinished || e.Kind == sched.EventRejected {
				jobs.Put(e.Job)
			}
		})
	}

	// Virtual-time metric sampling, armed last so the first tick sees the
	// fully assembled federation.
	var sampler *obs.Sampler
	if att.SamplePeriod > 0 {
		sampler = buildSampler(att.SamplePeriod, k, fed, scheds, fabric, bank, &finished)
		sampler.Start(k)
	}

	// Kernel tracers, in order: the profiler, the progress-snapshot
	// publisher (it rides the tracer seam, scheduling no kernel events),
	// then any raw TraceKernel tracers.
	if att.Phases != nil {
		k.AddTracer(att.Phases)
	}
	var pub *telemetry.Publisher
	if sinks := att.Snapshots; len(sinks) > 0 {
		// Observer extras (stream ingest state, etc.) decorate each
		// snapshot after its deterministic fields are built.
		pub = &telemetry.Publisher{
			Build: snapshotBuilder(fed, scheds, &finished, cfg.Horizon+cfg.DrainTime, att.SnapshotExtras),
			Sink: func(s *telemetry.Snapshot) {
				for _, fn := range sinks {
					fn(s)
				}
			},
		}
		k.AddTracer(pub)
	}
	for _, tr := range att.Tracers {
		k.AddTracer(tr)
	}

	// Run to the horizon plus drain, then final flush. A backlog breach
	// (EventLimit) surfaces here as des.ErrEventBacklog.
	if err := k.RunUntil(cfg.Horizon + cfg.DrainTime); err != nil {
		return nil, fmt.Errorf("scenario: run: %w", err)
	}
	if err := flushAll(); err != nil {
		return nil, err
	}
	// The result keeps the kernel (and through it flushAll) and the
	// gateways (and through them the ledgers): drop the buffers the run
	// no longer needs.
	wire = nil
	jobs.Drop()
	for _, l := range ledgers {
		l.Release()
	}
	if pub != nil {
		// One final snapshot so consoles and progress lines end on the true
		// final state, regardless of wall-clock throttling.
		pub.Final(k.Now(), k.Pending())
	}

	return &Result{
		Config: cfg, Kernel: k, Federation: fed, Central: central, Bank: bank,
		Schedulers: scheds, Broker: broker, Gateways: gateways, Fabric: fabric,
		Population: pop, Finished: finished,
		LargestCores: largestBatchCores(fed), Sampler: sampler, Phases: att.Phases,
		Faults: injector,
	}, nil
}

// schedList returns schedulers sorted by machine ID.
func schedList(m map[string]*sched.Scheduler) []*sched.Scheduler {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*sched.Scheduler, len(ids))
	for i, id := range ids {
		out[i] = m[id]
	}
	return out
}

type schedSubmitter struct{ s *sched.Scheduler }

func (ss schedSubmitter) SubmitJob(j *job.Job) { ss.s.Submit(j) }

func submitterFor(s *sched.Scheduler) gateway.Submitter { return schedSubmitter{s} }

func logf(v float64) float64 { return math.Log(v) }
