// Package telemetry is the simulator's live metrics layer: a registry of
// labeled metric families (counters, gauges, and log-bucketed histograms
// with streaming quantile estimates), an OpenMetrics/Prometheus
// text-exposition writer with fully deterministic ordering, and an HTTP
// run console that serves immutable snapshots published by the simulation
// loop through an atomic pointer.
//
// The package complements internal/obs: obs records *what happened* for
// post-hoc replay (spans, samples, profiles), telemetry aggregates *what is
// happening* into bounded state that can be read live. Histograms keep
// O(buckets) state, not O(observations), so a quarter-long full-scale run
// can be watched without retaining every sample.
//
// Like obs, the layer is strictly opt-in and nil-safe: every instrument
// method is a no-op on a nil receiver, and a nil *Registry hands out nil
// instruments, so uninstrumented runs pay a single nil comparison per
// would-be observation (benchmarked).
package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// Kind is the metric family type.
type Kind int

// Metric family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the OpenMetrics type name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Registry holds labeled metric families. It is not internally synchronized:
// the simulation loop is the only writer and the only direct reader —
// concurrent consumers (the HTTP console) receive pre-rendered snapshots,
// never the registry itself. That split is what keeps exposition off the
// hot path and the kernel deterministic.
type Registry struct {
	families map[string]*family
}

// family is one named metric family: a set of series sharing a name, help
// text, kind, and label-name schema.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	series map[string]*series // key: label values joined by 0xff
}

// series is one labeled time series within a family.
type series struct {
	labelValues []string
	value       float64        // counter or gauge value
	fn          func() float64 // callback gauge; nil for set-gauges
	hist        *Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family registers or fetches a family, enforcing schema consistency:
// re-registering a name with a different kind or label schema panics, which
// turns wiring bugs into immediate failures instead of corrupt exposition.
func (r *Registry) family(name, help string, kind Kind, labels []string) *family {
	f := r.families[name]
	if f == nil {
		if name == "" {
			panic("telemetry: empty metric family name")
		}
		f = &family{name: name, help: help, kind: kind,
			labels: append([]string(nil), labels...), series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.kind != kind || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("telemetry: family %s re-registered with different schema", name))
	}
	for i, l := range labels {
		if f.labels[i] != l {
			panic(fmt.Sprintf("telemetry: family %s re-registered with different labels", name))
		}
	}
	return f
}

// get fetches or creates the series for the given label values.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: family %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	s := f.series[key]
	if s == nil {
		s = &series{labelValues: append([]string(nil), values...)}
		if f.kind == KindHistogram {
			s.hist = NewHistogram()
		}
		f.series[key] = s
	}
	return s
}

// Counter declares (or fetches) a counter family. A nil registry returns a
// nil family whose instruments are all no-ops.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.family(name, help, KindCounter, labels)}
}

// Gauge declares (or fetches) a gauge family. A nil registry returns a nil
// family whose instruments are all no-ops.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.family(name, help, KindGauge, labels)}
}

// Histogram declares (or fetches) a histogram family. A nil registry
// returns a nil family whose instruments are all no-ops.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.family(name, help, KindHistogram, labels)}
}

// CounterVec is a labeled counter family handle.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it at zero.
// Call sites on hot paths should hold the returned *Counter rather than
// calling With per event. Nil-safe.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return &Counter{s: v.f.get(values)}
}

// Counter is a monotonically increasing value.
type Counter struct{ s *series }

// Inc adds one. Nil-safe.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.s.value++
}

// Add adds v, which must be non-negative (counters are monotone; negative
// deltas panic to surface wiring bugs). Nil-safe.
func (c *Counter) Add(v float64) {
	if c == nil {
		return
	}
	if v < 0 {
		panic("telemetry: negative counter increment")
	}
	c.s.value += v
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.s.value
}

// GaugeVec is a labeled gauge family handle.
type GaugeVec struct{ f *family }

// With returns the settable gauge for the given label values. Nil-safe.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return &Gauge{s: v.f.get(values)}
}

// Func registers a callback gauge: fn is evaluated at exposition time,
// always from the simulation goroutine. Nil-safe.
func (v *GaugeVec) Func(fn func() float64, values ...string) {
	if v == nil {
		return
	}
	v.f.get(values).fn = fn
}

// Gauge is a value that can go up and down.
type Gauge struct{ s *series }

// Set assigns the gauge. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.s.value = v
}

// Value returns the current value, evaluating callback gauges (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if g.s.fn != nil {
		return g.s.fn()
	}
	return g.s.value
}

// HistogramVec is a labeled histogram family handle.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values. Nil-safe.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.get(values).hist
}

// Families returns the registered family names, sorted. Nil-safe.
func (r *Registry) Families() []string {
	if r == nil {
		return nil
	}
	out := make([]string, 0, len(r.families))
	for n := range r.families {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// sortedSeries returns a family's series ordered by label-value tuple, so
// exposition is independent of map iteration and insertion order.
func (f *family) sortedSeries() []*series {
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].labelValues, out[j].labelValues
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}
