// Virtual-time metric sampling: a registry of gauges polled by one kernel
// ticker (des.Kernel.EveryNamed) into metrics.TimeSeries, grouped into
// named CSV exports (one column per gauge, one row per sample period).
package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/metrics"
)

// Gauge reads one instantaneous metric value.
type Gauge func() float64

// samplerGroup is one CSV export: an ordered set of columns.
type samplerGroup struct {
	name   string
	cols   []string
	gauges []Gauge
	series []*metrics.TimeSeries
}

// Sampler polls registered gauges at a fixed virtual-time period.
// Registration order fixes column order, so exports are deterministic.
type Sampler struct {
	period  des.Time
	groups  []*samplerGroup
	byName  map[string]*samplerGroup
	started bool
	samples int
}

// NewSampler returns a sampler with the given sampling period (seconds of
// virtual time); the period must be positive.
func NewSampler(period des.Time) *Sampler {
	if period <= 0 {
		panic("obs: non-positive sample period")
	}
	return &Sampler{period: period, byName: make(map[string]*samplerGroup)}
}

// Samples returns the number of sampling ticks taken so far.
func (s *Sampler) Samples() int { return s.samples }

// Register adds a gauge as column col of the named export group. Groups
// and columns are created on first use.
func (s *Sampler) Register(group, col string, g Gauge) {
	grp := s.byName[group]
	if grp == nil {
		grp = &samplerGroup{name: group}
		s.byName[group] = grp
		s.groups = append(s.groups, grp)
	}
	grp.cols = append(grp.cols, col)
	grp.gauges = append(grp.gauges, g)
	grp.series = append(grp.series, metrics.NewTimeSeries(float64(s.period)))
}

// Groups returns the group names in registration order.
func (s *Sampler) Groups() []string {
	out := make([]string, len(s.groups))
	for i, g := range s.groups {
		out[i] = g.name
	}
	return out
}

// Series returns the time series behind one column, or nil when unknown.
func (s *Sampler) Series(group, col string) *metrics.TimeSeries {
	grp := s.byName[group]
	if grp == nil {
		return nil
	}
	for i, c := range grp.cols {
		if c == col {
			return grp.series[i]
		}
	}
	return nil
}

// Start begins sampling on kernel k; the first sample is taken one period
// in. Start may be called once.
func (s *Sampler) Start(k *des.Kernel) {
	if s.started {
		panic("obs: Sampler.Start called twice")
	}
	s.started = true
	k.EveryNamed(s.period, "obs-sample", func(k *des.Kernel) {
		s.sample(k.Now())
	})
}

func (s *Sampler) sample(at des.Time) {
	s.samples++
	for _, grp := range s.groups {
		for i, g := range grp.gauges {
			grp.series[i].Add(float64(at), g())
		}
	}
}

// WriteCSV writes one group as CSV: a time_s column followed by one column
// per registered gauge, one row per sample period. Periods in which no
// sample landed (only the zeroth, under normal ticking) are skipped.
func (s *Sampler) WriteCSV(group string, w io.Writer) error {
	grp := s.byName[group]
	if grp == nil {
		return fmt.Errorf("obs: unknown sampler group %q", group)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("time_s"); err != nil {
		return err
	}
	for _, c := range grp.cols {
		if _, err := bw.WriteString("," + csvCell(c)); err != nil {
			return err
		}
	}
	if err := bw.WriteByte('\n'); err != nil {
		return err
	}
	rows := 0
	for _, ts := range grp.series {
		if ts.Len() > rows {
			rows = ts.Len()
		}
	}
	line := make([]byte, 0, 128)
	for i := 0; i < rows; i++ {
		if grp.series[0].Count(i) == 0 {
			continue
		}
		line = strconv.AppendFloat(line[:0], float64(i)*float64(s.period), 'g', -1, 64)
		for _, ts := range grp.series {
			line = append(line, ',')
			line = strconv.AppendFloat(line, ts.Mean(i), 'g', -1, 64)
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// csvCell quotes a CSV cell when needed.
func csvCell(s string) string {
	for _, r := range s {
		if r == ',' || r == '"' || r == '\n' {
			return `"` + quoteEscape(s) + `"`
		}
	}
	return s
}

func quoteEscape(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			out = append(out, '"')
		}
		out = append(out, s[i])
	}
	return string(out)
}
