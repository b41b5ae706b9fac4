// Package faults is the deterministic fault injector and the resilience
// policies that cope with what it injects. It drives unplanned events
// through the existing DES kernel: machine crashes with repair times
// (killing running jobs and routing the victims), partial node failures
// that shrink a machine's batch capacity, network link degradation and
// partition windows that slow or stall WAN transfers, and gateway endpoint
// flaps that reject submissions until the endpoint recovers.
//
// Determinism is the package's load-bearing property. Every fault process
// draws from its own named simrand stream (faults/crash/<machine>,
// faults/nodes/<machine>, faults/link/<site>, faults/gateway/<id>,
// faults/retry), targets are armed in sorted order, and no fault state is
// consulted unless injection is enabled — so same-seed runs with faults
// are byte-identical, and runs without faults consume zero extra draws and
// schedule zero extra events.
package faults

import (
	"time"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/simrand"
)

// RetryPolicy is exponential backoff with deterministic jitter: delay for
// attempt n (1-based) is Base·Multiplier^(n-1), clamped to MaxDelay, then
// spread by ±Jitter drawn from the caller's stream. The zero value retries
// forever with zero delay; real uses come from DefaultConfig.
type RetryPolicy struct {
	// MaxAttempts bounds retries; attempts beyond it give up. Zero or
	// negative means unbounded.
	MaxAttempts int
	// Base is the first retry's delay.
	Base des.Time
	// MaxDelay caps the exponential growth; zero means uncapped.
	MaxDelay des.Time
	// Multiplier is the per-attempt growth factor; values below 1 are
	// treated as 1 (constant backoff).
	Multiplier float64
	// Jitter spreads each delay uniformly over [1-Jitter, 1+Jitter] so
	// synchronized failures do not retry in lockstep. Zero draws nothing
	// from the stream.
	Jitter float64
}

// Delay returns the backoff before retry attempt n (1-based) and whether
// the policy allows that attempt at all. The jitter draw comes from rng,
// so callers with a dedicated stream stay deterministic.
func (p RetryPolicy) Delay(attempt int, rng *simrand.Stream) (des.Time, bool) {
	if attempt < 1 {
		attempt = 1
	}
	if p.MaxAttempts > 0 && attempt > p.MaxAttempts {
		return 0, false
	}
	mult := p.Multiplier
	if mult < 1 {
		mult = 1
	}
	d := float64(p.Base)
	for i := 1; i < attempt; i++ {
		d *= mult
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 && rng != nil {
		d *= 1 + p.Jitter*(2*rng.Float64()-1)
	}
	if d < 0 {
		d = 0
	}
	return des.Time(d), true
}

// WallDelay is Delay for real-world retry loops: it interprets the
// policy's des.Time fields (virtual seconds) as wall-clock seconds and
// returns a time.Duration. The observatory push client reuses the
// injector's backoff semantics — exponential growth, cap, deterministic
// jitter from a named simrand stream — against the wall clock when
// reconnecting to a daemon.
func (p RetryPolicy) WallDelay(attempt int, rng *simrand.Stream) (time.Duration, bool) {
	d, ok := p.Delay(attempt, rng)
	if !ok {
		return 0, false
	}
	return time.Duration(float64(d) * float64(time.Second)), true
}

// Config parameterizes the injector. All fault processes are renewal
// processes: exponential time-to-failure at the configured MTBF, then a
// lognormally spread repair window around the configured mean (grid
// incident reports show heavy-tailed repairs), then the next failure clock
// starts after repair. A zero MTBF disables that fault class. Intensity
// scales every failure rate at once — the knob the FT chaos experiment
// sweeps.
type Config struct {
	// Enabled gates the whole injector; false means no streams are derived
	// and no events are scheduled.
	Enabled bool
	// Intensity multiplies every failure rate (divides every MTBF).
	// Zero or negative is treated as 1.
	Intensity float64

	// Machine crashes: the whole machine goes dark and running batch jobs
	// are killed.
	MachineMTBF   des.Time
	MachineRepair des.Time // mean repair duration

	// Partial node failures: a fraction of batch cores drops out.
	NodeMTBF     des.Time
	NodeRepair   des.Time
	NodeFailFrac float64 // fraction of batch cores lost per event

	// WAN link faults per site: degradation scales access-link capacity by
	// DegradeFactor; with probability PartitionProb the event is a full
	// partition instead (capacity 0, in-flight transfers aborted).
	LinkMTBF      des.Time
	LinkRepair    des.Time
	DegradeFactor float64
	PartitionProb float64

	// Gateway endpoint flaps: the portal rejects submissions until it
	// recovers.
	GatewayMTBF   des.Time
	GatewayRepair des.Time

	// Cooldown keeps a crashed machine marked unhealthy at the
	// metascheduler beyond its repair time, modeling conservative
	// re-admission after incidents.
	Cooldown des.Time

	// Retry is the backoff policy shared by gateway submission retries and
	// transfer restarts.
	Retry RetryPolicy
}

// DefaultConfig returns the nominal chaos profile at intensity 1: machine
// crashes every couple of weeks per machine, node failures every few days,
// link events every several days, gateway flaps every other day — the
// background failure texture production-grid year-in-the-life reports
// describe, scaled to a quarter-long simulation.
func DefaultConfig() Config {
	return Config{
		Enabled:       true,
		Intensity:     1,
		MachineMTBF:   14 * des.Day,
		MachineRepair: 6 * des.Hour,
		NodeMTBF:      4 * des.Day,
		NodeRepair:    4 * des.Hour,
		NodeFailFrac:  0.05,
		LinkMTBF:      6 * des.Day,
		LinkRepair:    2 * des.Hour,
		DegradeFactor: 0.25,
		PartitionProb: 0.3,
		GatewayMTBF:   2 * des.Day,
		GatewayRepair: 30 * des.Minute,
		Cooldown:      des.Hour,
		Retry: RetryPolicy{
			MaxAttempts: 6,
			Base:        30,
			MaxDelay:    des.Hour,
			Multiplier:  2,
			Jitter:      0.2,
		},
	}
}

// intensity returns the effective rate multiplier.
func (c Config) intensity() float64 {
	if c.Intensity <= 0 {
		return 1
	}
	return c.Intensity
}

// Event kinds reported through Injector.OnEvent.
const (
	EvMachineCrash  = "machine-crash"
	EvNodeFail      = "node-fail"
	EvLinkDegrade   = "link-degrade"
	EvLinkPartition = "link-partition"
	EvLinkRepair    = "link-repair"
	EvGatewayDown   = "gateway-down"
	EvGatewayUp     = "gateway-up"
	EvRetry         = "retry"
	EvGiveUp        = "give-up"
	EvFailover      = "failover"
	EvRequeue       = "requeue"
	EvTransferAbort = "transfer-abort"
)

// Event is one injected fault or resilience action, reported through
// Injector.OnEvent for telemetry and span recording.
type Event struct {
	Kind   string
	Target string   // machine, site, or gateway the event concerns
	Until  des.Time // repair/recovery instant for window events; 0 otherwise
	JobID  int64    // job concerned, for retry/give-up/failover/requeue
	Class  string   // retry class for EvRetry/EvGiveUp: "gateway" or "transfer"
}

// Stats are the injector's lifetime counters.
type Stats struct {
	MachineCrashes   uint64
	CrashKills       uint64 // running jobs killed by machine crashes
	NodeFailures     uint64
	NodeKills        uint64 // running jobs killed by node failures
	LinkDegrades     uint64
	LinkPartitions   uint64
	GatewayFlaps     uint64
	Failovers        uint64 // crash victims re-placed by the metascheduler
	Requeues         uint64 // crash victims requeued locally (no failover)
	TransferAborts   uint64
	TransferRestarts uint64
	GatewayRetries   uint64
	GiveUps          uint64 // work abandoned after exhausting retries
}
