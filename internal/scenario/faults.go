// Fault-layer wiring: assembles the deterministic fault injector into a
// scenario and multiplexes its event stream into the observability and
// telemetry layers. Everything here is conditional on Config.Faults.Enabled
// — a fault-free run constructs no injector, derives no fault streams, and
// registers no tg_fault_*/tg_retry_* families, which is what keeps its
// randomness, event schedule, and exposition byte-identical to pre-fault
// builds.
package scenario

import (
	"sort"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/faults"
	"github.com/tgsim/tgmod/internal/gateway"
	"github.com/tgsim/tgmod/internal/metasched"
	"github.com/tgsim/tgmod/internal/network"
	"github.com/tgsim/tgmod/internal/obs"
	"github.com/tgsim/tgmod/internal/sched"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// WithFaultIntensity enables the default fault mix at the given intensity
// multiplier (1 = nominal MTBFs; 2 = failures twice as often). The chaos
// experiments sweep this knob.
func WithFaultIntensity(x float64) Option {
	return func(c *Config) {
		fc := faults.DefaultConfig()
		fc.Intensity = x
		c.Faults = fc
	}
}

// WithCheckpointRestart turns on checkpoint/restart at every machine:
// preempted and fault-killed jobs resume from their last completed
// checkpoint instead of from scratch. interval <= 0 keeps the scheduler
// default (15 min); overhead, when positive, dilates runtimes by one
// overhead per completed interval.
func WithCheckpointRestart(interval, overhead des.Time) Option {
	return func(c *Config) {
		c.CheckpointRestart = true
		c.CheckpointInterval = interval
		c.CheckpointOverhead = overhead
	}
}

// buildInjector constructs, wires, and arms the fault injector for an
// assembled scenario. Call only when cfg.Faults.Enabled.
func buildInjector(cfg Config, k *des.Kernel, scheds map[string]*sched.Scheduler,
	broker *metasched.Broker, fabric *network.Fabric,
	gateways map[string]*gateway.Gateway) *faults.Injector {

	inj := faults.New(k, cfg.Faults, cfg.Seed)
	inj.AddMachines(schedList(scheds)...)
	inj.SetBroker(broker)
	inj.SetFabric(fabric)
	ids := make([]string, 0, len(gateways))
	for id := range gateways {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		inj.AddGateways(gateways[id])
	}
	return inj
}

// installFaultSpans mirrors every fault and resilience event onto the
// span buffer as an instant in the "fault" category, on the target's
// track, so trace views line crashes and retries up against the job spans
// they disrupt.
func installFaultSpans(spans *obs.Buffer, k *des.Kernel, inj *faults.Injector) {
	inj.OnEvent = append(inj.OnEvent, func(ev faults.Event) {
		kvs := make([]obs.KV, 0, 2)
		if ev.Until > 0 {
			kvs = append(kvs, obs.KV{Key: "until", Value: float64(ev.Until)})
		}
		if ev.JobID != 0 {
			kvs = append(kvs, obs.KV{Key: "job", Value: int64(ev.JobID)})
		}
		spans.Instant(k.Now(), "fault", ev.Kind, ev.Target, kvs...)
	})
}

// installFaultTelemetry registers the tg_fault_*/tg_retry_* families and
// feeds them from the injector's event stream. Families are only created on
// fault-enabled runs, so fault-free exposition is unchanged.
func installFaultTelemetry(reg *telemetry.Registry, inj *faults.Injector) {
	events := reg.Counter("tg_fault_events_total",
		"Injected fault and resilience events.", "kind", "target")
	retries := reg.Counter("tg_retry_attempts_total",
		"Retry attempts scheduled by the resilience layer.", "class")
	giveups := reg.Counter("tg_retry_giveups_total",
		"Operations abandoned after exhausting their retry budget.", "class")
	inj.OnEvent = append(inj.OnEvent, func(ev faults.Event) {
		switch ev.Kind {
		case faults.EvRetry:
			retries.With(ev.Class).Inc()
		case faults.EvGiveUp:
			giveups.With(ev.Class).Inc()
		}
		events.With(ev.Kind, ev.Target).Inc()
	})
}
