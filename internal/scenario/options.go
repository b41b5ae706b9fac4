// Functional options for building a Config. Options compose, document
// their intent at the call site, and give the fleet a natural way to
// rebuild a per-seed Config from one shared option list. Config is the
// scenario's one description: Run, fleet.Spec.Build and the benchmark all
// take it. New with options is one way to build it; setting fields on
// DefaultConfig is the other.
package scenario

import (
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/users"
	"github.com/tgsim/tgmod/internal/workload"
)

// Option mutates a Config under construction.
type Option func(*Config)

// New builds a Config: the defaults for seed, then each option in order.
// Later options override earlier ones, so call-site composition reads
// top-to-bottom:
//
//	cfg := scenario.New(1234,
//		scenario.WithHorizon(10*des.Day),
//		scenario.WithDrain(2*des.Day),
//		scenario.WithObserver(scenario.LiveTelemetry(reg)),
//	)
func New(seed uint64, opts ...Option) Config {
	cfg := DefaultConfig(seed)
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return cfg
}

// WithHorizon sets the simulated horizon.
func WithHorizon(h des.Time) Option {
	return func(c *Config) { c.Horizon = h }
}

// WithDrain sets the extra post-horizon time for queues to empty.
func WithDrain(d des.Time) Option {
	return func(c *Config) { c.DrainTime = d }
}

// WithPolicy sets the batch policy engine (by name) used at every site.
func WithPolicy(name string) Option {
	return func(c *Config) { c.Policy = name }
}

// WithBrokerTagCoverage sets the probability broker jobs carry their tag.
func WithBrokerTagCoverage(f float64) Option {
	return func(c *Config) { c.BrokerTagCoverage = f }
}

// WithUsers sets the population sizing.
func WithUsers(u users.Config) Option {
	return func(c *Config) { c.Users = u }
}

// WithGatewayCoverage sets AttrCoverage on every configured gateway — the
// measurement-deployment knob the gateway-visibility experiments sweep.
func WithGatewayCoverage(coverage float64) Option {
	return func(c *Config) {
		for i := range c.Gateways {
			c.Gateways[i].AttrCoverage = coverage
		}
	}
}

// WithGenerators replaces the workload generator set. Generators are
// stateful; never share one slice across concurrent replications — build
// fresh generators per Config (fleet.Spec.Build exists for exactly this).
func WithGenerators(gens ...workload.Generator) Option {
	return func(c *Config) { c.Generators = gens }
}

// WithMaintenance schedules recurring maintenance outages of the given
// length on every machine, staggered by site.
func WithMaintenance(every, length des.Time) Option {
	return func(c *Config) {
		c.MaintenanceEvery = every
		c.MaintenanceLength = length
	}
}

// WithObserver registers observers on the consolidated observability seam
// (see Observer). Repeated use appends; observers attach in registration
// order.
func WithObserver(obs ...Observer) Option {
	return func(c *Config) { c.Observers = append(c.Observers, obs...) }
}
