// Log-bucketed streaming histogram: O(buckets) state, replacing metrics.Sample (which retains every observation and
// cannot serve a 90-day full-scale run) for live views.
package telemetry

import "math"

// Histogram bucket geometry. Buckets are powers of two: bucket i covers
// (2^(i+minExp-1), 2^(i+minExp)], with an underflow bucket for values at or
// below 2^(minExp) and an overflow bucket above 2^(maxExp). The span
// [2^-10, 2^40] ≈ [1 ms, 34 years] in seconds or [1/1024 B, 1 TiB] in
// bytes covers every duration and size the simulation produces.
const (
	histMinExp = -10
	histMaxExp = 40
	// histBuckets: one bucket per exponent step plus the overflow bucket.
	histBuckets = histMaxExp - histMinExp + 1
)

// Histogram accumulates observations into logarithmic buckets. A quantile
// read off the buckets is exact only to within bucket resolution (a factor
// of two), which is the live-telemetry tradeoff: bounded memory for bounded
// error.
type Histogram struct {
	counts [histBuckets]uint64
	n      uint64
	sum    float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf maps a value to its bucket index.
func bucketOf(v float64) int {
	if v <= histUpper(0) {
		return 0
	}
	e := int(math.Ceil(math.Log2(v)))
	i := e - histMinExp
	if i < 0 {
		i = 0
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// histUpper returns the inclusive upper bound of bucket i (+Inf for the
// overflow bucket).
func histUpper(i int) float64 {
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	return math.Pow(2, float64(i+histMinExp))
}

// Observe records one observation. Negative values clamp to zero (durations
// and sizes are non-negative; a tiny float underrun must not panic a run).
// Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
}

// N returns the observation count (0 on nil).
func (h *Histogram) N() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the total of all observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// buckets returns (upperBound, cumulativeCount) pairs for every bucket up
// to and including the last non-empty one, always ending with the +Inf
// bucket — the cumulative form OpenMetrics histograms require.
func (h *Histogram) buckets() ([]float64, []uint64) {
	last := -1
	for i, c := range h.counts {
		if c > 0 {
			last = i
		}
	}
	var bounds []float64
	var cums []uint64
	var cum uint64
	for i := 0; i <= last && i < histBuckets-1; i++ {
		cum += h.counts[i]
		bounds = append(bounds, histUpper(i))
		cums = append(cums, cum)
	}
	bounds = append(bounds, math.Inf(1))
	cums = append(cums, h.n)
	return bounds, cums
}
