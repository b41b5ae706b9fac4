package faults

import (
	"sort"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/gateway"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/metasched"
	"github.com/tgsim/tgmod/internal/network"
	"github.com/tgsim/tgmod/internal/sched"
	"github.com/tgsim/tgmod/internal/simrand"
)

// repairSigma is the lognormal spread of repair durations around their
// configured mean (heavy-tailed: most repairs are quick, a few run long).
const repairSigma = 0.6

// Injector drives unplanned failures through the kernel and wires the
// resilience responses. Build one with New, attach targets, then Start.
//
// Determinism: every fault process owns a named stream derived from the run
// seed, targets are armed in sorted order at Start, and retry jitter comes
// from one dedicated stream whose draws happen in event order — so a
// faults-enabled run is a pure function of (seed, config).
type Injector struct {
	k   *des.Kernel
	cfg Config
	// OnEvent observes every injected fault and resilience action
	// (telemetry counters, span instants). Observers append to it; it is
	// called in append order.
	OnEvent []func(Event)

	seed     uint64
	scheds   []*sched.Scheduler
	gateways []*gateway.Gateway
	broker   *metasched.Broker
	fabric   *network.Fabric
	sites    []string

	retryRNG *simrand.Stream
	// gwAttempts tracks per-job gateway retry counts. Keyed lookups only —
	// never iterated — so map order cannot leak into event order.
	gwAttempts map[job.ID]int

	stats Stats
}

// New returns an injector for the given kernel, config, and run seed.
// Attach targets (AddMachines, SetBroker, SetFabric, AddGateways), then
// call Start once.
func New(k *des.Kernel, cfg Config, seed uint64) *Injector {
	return &Injector{k: k, cfg: cfg, seed: seed, gwAttempts: make(map[job.ID]int)}
}

// Stats returns the lifetime fault and resilience counters.
func (inj *Injector) Stats() Stats { return inj.stats }

// AddMachines registers machine schedulers as crash and node-failure
// targets. Their sites become link-fault targets when a fabric is set.
func (inj *Injector) AddMachines(scheds ...*sched.Scheduler) {
	inj.scheds = append(inj.scheds, scheds...)
}

// SetBroker enables failover routing for crash victims and unhealthy
// marking of crashed machines.
func (inj *Injector) SetBroker(b *metasched.Broker) { inj.broker = b }

// SetFabric registers the WAN fabric as a link-fault target.
func (inj *Injector) SetFabric(f *network.Fabric) { inj.fabric = f }

// AddGateways registers gateways as endpoint-flap targets and wires their
// submission retry loop.
func (inj *Injector) AddGateways(gws ...*gateway.Gateway) {
	inj.gateways = append(inj.gateways, gws...)
}

func (inj *Injector) emit(ev Event) {
	for _, fn := range inj.OnEvent {
		fn(ev)
	}
}

// ttf draws a time-to-failure with mean mtbf/intensity.
func (inj *Injector) ttf(rng *simrand.Stream, mtbf des.Time) des.Time {
	return des.Time(rng.Exp(inj.cfg.intensity() / float64(mtbf)))
}

// repairDur draws a lognormally spread repair duration with the given mean.
func (inj *Injector) repairDur(rng *simrand.Stream, mean des.Time) des.Time {
	// exp(mu + sigma^2/2) = 1 when mu = -sigma^2/2, so the multiplier has
	// mean 1 and the draw has mean `mean`.
	d := des.Time(float64(mean) * rng.LogNormal(-repairSigma*repairSigma/2, repairSigma))
	if d < 1 {
		d = 1
	}
	return d
}

// Start derives all fault streams and arms the first failure of every
// process. Call exactly once, before the kernel runs. Disabled configs
// (Enabled false) derive nothing and schedule nothing.
func (inj *Injector) Start() {
	if !inj.cfg.Enabled {
		return
	}
	// Deterministic arming order: machines, then gateways, then sites —
	// each sorted by ID. Stream derivation is order-independent (named
	// streams), but event-queue insertion order is not.
	sort.Slice(inj.scheds, func(i, j int) bool { return inj.scheds[i].M.ID < inj.scheds[j].M.ID })
	sort.Slice(inj.gateways, func(i, j int) bool { return inj.gateways[i].ID < inj.gateways[j].ID })
	inj.retryRNG = simrand.Derive(inj.seed, "faults/retry")

	for _, s := range inj.scheds {
		inj.armCrash(s)
		inj.armNodeFail(s)
	}
	for _, gw := range inj.gateways {
		inj.wireGatewayRetry(gw)
		inj.armGatewayFlap(gw)
	}
	if inj.fabric != nil {
		seen := make(map[string]bool)
		for _, s := range inj.scheds {
			if !seen[s.M.Site] {
				seen[s.M.Site] = true
				inj.sites = append(inj.sites, s.M.Site)
			}
		}
		sort.Strings(inj.sites)
		for _, site := range inj.sites {
			inj.armLinkFault(site)
		}
	}
}

// ---- Machine crashes ----

func (inj *Injector) armCrash(s *sched.Scheduler) {
	if inj.cfg.MachineMTBF <= 0 {
		return
	}
	rng := simrand.Derive(inj.seed, "faults/crash/"+s.M.ID)
	var arm func(delay des.Time)
	arm = func(delay des.Time) {
		inj.k.ScheduleNamed(delay, "fault-crash", func(*des.Kernel) {
			now := inj.k.Now()
			repair := inj.repairDur(rng, inj.cfg.MachineRepair)
			inj.stats.MachineCrashes++
			inj.emit(Event{Kind: EvMachineCrash, Target: s.M.ID, Until: now + repair})
			if inj.broker != nil {
				// Mark unhealthy before failover so the broker cannot
				// route victims back onto the machine that just died.
				inj.broker.MarkUnhealthy(s.M.ID, now+repair+inj.cfg.Cooldown)
			}
			victims := s.Crash(now + repair)
			inj.stats.CrashKills += uint64(len(victims))
			for _, j := range victims {
				// Read the ID first: the re-entry submits the job, and a
				// submission may end it (a rejection releases the job).
				id := int64(j.ID)
				if inj.broker != nil {
					if to, ok := inj.broker.Failover(j); ok {
						inj.stats.Failovers++
						inj.emit(Event{Kind: EvFailover, Target: to, JobID: id})
						continue
					}
				}
				s.Requeue(j)
				inj.stats.Requeues++
				inj.emit(Event{Kind: EvRequeue, Target: s.M.ID, JobID: id})
			}
			arm(repair + inj.ttf(rng, inj.cfg.MachineMTBF))
		})
	}
	arm(inj.ttf(rng, inj.cfg.MachineMTBF))
}

// ---- Partial node failures ----

func (inj *Injector) armNodeFail(s *sched.Scheduler) {
	if inj.cfg.NodeMTBF <= 0 || inj.cfg.NodeFailFrac <= 0 {
		return
	}
	rng := simrand.Derive(inj.seed, "faults/nodes/"+s.M.ID)
	cores := int(inj.cfg.NodeFailFrac * float64(s.M.BatchCores()))
	if cores < 1 {
		cores = 1
	}
	var arm func(delay des.Time)
	arm = func(delay des.Time) {
		inj.k.ScheduleNamed(delay, "fault-nodes", func(*des.Kernel) {
			now := inj.k.Now()
			repair := inj.repairDur(rng, inj.cfg.NodeRepair)
			inj.stats.NodeFailures++
			inj.emit(Event{Kind: EvNodeFail, Target: s.M.ID, Until: now + repair})
			victims := s.FailNodes(cores, now+repair)
			inj.stats.NodeKills += uint64(len(victims))
			arm(repair + inj.ttf(rng, inj.cfg.NodeMTBF))
		})
	}
	arm(inj.ttf(rng, inj.cfg.NodeMTBF))
}

// ---- Link degradation and partitions ----

func (inj *Injector) armLinkFault(site string) {
	if inj.cfg.LinkMTBF <= 0 {
		return
	}
	rng := simrand.Derive(inj.seed, "faults/link/"+site)
	var arm func(delay des.Time)
	arm = func(delay des.Time) {
		inj.k.ScheduleNamed(delay, "fault-link", func(*des.Kernel) {
			now := inj.k.Now()
			repair := inj.repairDur(rng, inj.cfg.LinkRepair)
			partition := rng.Bool(inj.cfg.PartitionProb)
			if partition {
				inj.stats.LinkPartitions++
				inj.emit(Event{Kind: EvLinkPartition, Target: site, Until: now + repair})
				_ = inj.fabric.SetSiteDegraded(site, 0)
				for _, tr := range inj.fabric.AbortSite(site) {
					inj.stats.TransferAborts++
					inj.emit(Event{Kind: EvTransferAbort, Target: site, JobID: tr.JobID})
					inj.retryTransfer(tr)
				}
			} else {
				inj.stats.LinkDegrades++
				inj.emit(Event{Kind: EvLinkDegrade, Target: site, Until: now + repair})
				_ = inj.fabric.SetSiteDegraded(site, inj.cfg.DegradeFactor)
			}
			inj.k.ScheduleNamed(repair, "fault-link-repair", func(*des.Kernel) {
				_ = inj.fabric.SetSiteDegraded(site, 1)
				inj.emit(Event{Kind: EvLinkRepair, Target: site})
			})
			arm(repair + inj.ttf(rng, inj.cfg.LinkMTBF))
		})
	}
	arm(inj.ttf(rng, inj.cfg.LinkMTBF))
}

// retryTransfer schedules a backed-off restart of an aborted transfer. The
// restarted flow may stall if the partition still holds — it resumes moving
// the instant the link repairs.
func (inj *Injector) retryTransfer(tr *network.Transfer) {
	attempt := tr.Retries + 1
	delay, ok := inj.cfg.Retry.Delay(attempt, inj.retryRNG)
	if !ok {
		inj.stats.GiveUps++
		inj.emit(Event{Kind: EvGiveUp, Class: "transfer", Target: tr.Dst, JobID: tr.JobID})
		return
	}
	inj.emit(Event{Kind: EvRetry, Class: "transfer", Target: tr.Dst, JobID: tr.JobID})
	inj.k.ScheduleNamed(delay, "fault-retry-transfer", func(*des.Kernel) {
		if _, err := inj.fabric.Restart(tr); err == nil {
			inj.stats.TransferRestarts++
		}
	})
}

// ---- Gateway endpoint flaps ----

func (inj *Injector) armGatewayFlap(gw *gateway.Gateway) {
	if inj.cfg.GatewayMTBF <= 0 {
		return
	}
	rng := simrand.Derive(inj.seed, "faults/gateway/"+gw.ID)
	var arm func(delay des.Time)
	arm = func(delay des.Time) {
		inj.k.ScheduleNamed(delay, "fault-gateway-down", func(*des.Kernel) {
			now := inj.k.Now()
			repair := inj.repairDur(rng, inj.cfg.GatewayRepair)
			inj.stats.GatewayFlaps++
			gw.SetAvailable(false)
			inj.emit(Event{Kind: EvGatewayDown, Target: gw.ID, Until: now + repair})
			inj.k.ScheduleNamed(repair, "fault-gateway-up", func(*des.Kernel) {
				gw.SetAvailable(true)
				inj.emit(Event{Kind: EvGatewayUp, Target: gw.ID})
			})
			arm(repair + inj.ttf(rng, inj.cfg.GatewayMTBF))
		})
	}
	arm(inj.ttf(rng, inj.cfg.GatewayMTBF))
}

// wireGatewayRetry adds retry/give-up handling to the gateway's
// down-rejection and request hooks. Retries re-enter Request, so a request
// that keeps meeting a down endpoint backs off until MaxAttempts, then the
// job fails with its retry state cleared.
func (inj *Injector) wireGatewayRetry(gw *gateway.Gateway) {
	gw.OnDown = append(gw.OnDown, func(endUser string, j *job.Job) {
		attempt := inj.gwAttempts[j.ID] + 1
		inj.gwAttempts[j.ID] = attempt
		delay, ok := inj.cfg.Retry.Delay(attempt, inj.retryRNG)
		if !ok {
			delete(inj.gwAttempts, j.ID)
			j.State = job.StateFailed
			inj.stats.GiveUps++
			inj.emit(Event{Kind: EvGiveUp, Class: "gateway", Target: gw.ID, JobID: int64(j.ID)})
			return
		}
		inj.stats.GatewayRetries++
		inj.emit(Event{Kind: EvRetry, Class: "gateway", Target: gw.ID, JobID: int64(j.ID)})
		inj.k.ScheduleNamed(delay, "fault-retry-gateway", func(*des.Kernel) {
			gw.Request(endUser, j)
		})
	})
	gw.OnRequest = append(gw.OnRequest, func(endUser string, j *job.Job, attributed bool) {
		// The request got through; forget its retry history.
		delete(inj.gwAttempts, j.ID)
	})
}
