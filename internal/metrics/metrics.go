// Package metrics provides the small statistics toolkit the analysis and
// experiment layers share: streaming summaries, exact-percentile samples,
// time series with period bucketing, Gini coefficients for usage
// concentration, confusion matrices for classifier validation, and the
// trailing virtual-time rings behind the SLO burn rates and the stream's
// windowed usage and drift.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates count/mean/min/max/variance in one pass (Welford).
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	if s.n == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.n++
	d := v - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (v - s.mean)
}

// N returns the observation count.
func (s *Summary) N() int { return s.n }

// Mean returns the running mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Min and Max return the extremes (0 when empty).
func (s *Summary) Min() float64 { return s.min }
func (s *Summary) Max() float64 { return s.max }

// Variance returns the sample variance (0 for fewer than 2 points).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Variance()) }

// String formats the summary compactly.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3g min=%.3g max=%.3g sd=%.3g",
		s.n, s.Mean(), s.Min(), s.Max(), s.Stddev())
}

// Sample retains every observation for exact percentile queries. For the
// volumes this repository produces (≤ millions of jobs) exact retention is
// affordable and avoids approximation arguments in experiments.
type Sample struct {
	vals   []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.vals) }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation; it returns 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[len(s.vals)-1]
	}
	rank := p / 100 * float64(len(s.vals)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s.vals) {
		return s.vals[lo]
	}
	return s.vals[lo]*(1-frac) + s.vals[lo+1]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Mean returns the arithmetic mean.
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range s.vals {
		t += v
	}
	return t / float64(len(s.vals))
}

// Gini returns the Gini coefficient of the sample (0 = perfectly equal,
// →1 = maximally concentrated). Usage concentration across users/projects
// is a standard cyberinfrastructure reporting metric.
func (s *Sample) Gini() float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	var cum, total float64
	for i, v := range s.vals {
		cum += float64(i+1) * v
		total += v
	}
	if total == 0 {
		return 0
	}
	return (2*cum)/(float64(n)*total) - float64(n+1)/float64(n)
}

// TimeSeries buckets weighted events into fixed-width periods.
type TimeSeries struct {
	period  float64
	buckets []float64
	counts  []int
}

// NewTimeSeries returns a series with the given bucket width in seconds.
func NewTimeSeries(period float64) *TimeSeries {
	if period <= 0 {
		panic("metrics: non-positive time-series period")
	}
	return &TimeSeries{period: period}
}

// Add records weight at the given timestamp.
func (ts *TimeSeries) Add(at, weight float64) {
	if at < 0 {
		at = 0
	}
	i := int(at / ts.period)
	for len(ts.buckets) <= i {
		ts.buckets = append(ts.buckets, 0)
		ts.counts = append(ts.counts, 0)
	}
	ts.buckets[i] += weight
	ts.counts[i]++
}

// Buckets returns the per-period weights.
func (ts *TimeSeries) Buckets() []float64 { return ts.buckets }

// Counts returns the per-period event counts.
func (ts *TimeSeries) Counts() []int { return ts.counts }

// Len returns the number of periods observed.
func (ts *TimeSeries) Len() int { return len(ts.buckets) }

// Count returns the event count of bucket i (0 when out of range).
func (ts *TimeSeries) Count(i int) int {
	if i < 0 || i >= len(ts.counts) {
		return 0
	}
	return ts.counts[i]
}

// Mean returns the mean weight of bucket i (0 when empty or out of range)
// — the natural read for sampled gauges, where each bucket holds one or
// more point-in-time observations rather than an accumulating total.
func (ts *TimeSeries) Mean(i int) float64 {
	if i < 0 || i >= len(ts.buckets) || ts.counts[i] == 0 {
		return 0
	}
	return ts.buckets[i] / float64(ts.counts[i])
}

// Confusion is a labeled confusion matrix for classifier validation.
type Confusion struct {
	labels []string
	index  map[string]int
	cells  [][]int // cells[truth][predicted]
}

// NewConfusion builds a matrix over the given label set; unknown labels
// encountered later are mapped to an extra "other" row/column.
func NewConfusion(labels []string) *Confusion {
	all := append(append([]string{}, labels...), "other")
	idx := make(map[string]int, len(all))
	for i, l := range all {
		idx[l] = i
	}
	cells := make([][]int, len(all))
	for i := range cells {
		cells[i] = make([]int, len(all))
	}
	return &Confusion{labels: all, index: idx, cells: cells}
}

func (c *Confusion) idx(label string) int {
	if i, ok := c.index[label]; ok {
		return i
	}
	return len(c.labels) - 1
}

// Observe records one (truth, predicted) pair.
func (c *Confusion) Observe(truth, predicted string) {
	c.cells[c.idx(truth)][c.idx(predicted)]++
}

// Count returns a cell value.
func (c *Confusion) Count(truth, predicted string) int {
	return c.cells[c.idx(truth)][c.idx(predicted)]
}

// Total returns all observations.
func (c *Confusion) Total() int {
	t := 0
	for _, row := range c.cells {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// Precision returns TP/(TP+FP) for a label (1 when the label was never
// predicted — vacuous precision).
func (c *Confusion) Precision(label string) float64 {
	j := c.idx(label)
	tp := c.cells[j][j]
	pred := 0
	for i := range c.cells {
		pred += c.cells[i][j]
	}
	if pred == 0 {
		return 1
	}
	return float64(tp) / float64(pred)
}

// Recall returns TP/(TP+FN) for a label (1 when the label never occurred).
func (c *Confusion) Recall(label string) float64 {
	i := c.idx(label)
	tp := c.cells[i][i]
	truth := 0
	for j := range c.cells[i] {
		truth += c.cells[i][j]
	}
	if truth == 0 {
		return 1
	}
	return float64(tp) / float64(truth)
}

// F1 returns the harmonic mean of precision and recall.
func (c *Confusion) F1(label string) float64 {
	p, r := c.Precision(label), c.Recall(label)
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy returns the overall fraction of correct predictions.
func (c *Confusion) Accuracy() float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	correct := 0
	for i := range c.cells {
		correct += c.cells[i][i]
	}
	return float64(correct) / float64(total)
}
