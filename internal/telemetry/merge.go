// Registry merging for replication fleets: each replication runs with a
// private registry (the registry is deliberately unsynchronized — one
// writer, the replication's own simulation goroutine), and the fleet folds
// the finished registries together afterwards, in seed order. Because
// float64 addition is performed in that fixed order regardless of how the
// replications were scheduled across workers, the merged exposition is
// byte-identical between parallel and sequential fleet runs.
package telemetry

// Merge folds src into r: counters and gauges add, histograms add
// bucket-wise (sums, counts, and exact min/max extremes combine). Callback
// gauges in src are evaluated at merge time and folded into the merged
// series' stored value, so the merged registry never retains closures over
// a replication's live state. Merged gauges are therefore sums across
// replications — divide by the replication count for a mean.
//
// Merging panics if src re-declares a family with a different kind or
// label schema, the same contract family registration itself enforces.
// A nil receiver or source is a no-op.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	for name, sf := range src.families {
		df := r.family(name, sf.help, sf.kind, sf.labels)
		for key, ss := range sf.series {
			ds := df.series[key]
			if ds == nil {
				ds = &series{labelValues: append([]string(nil), ss.labelValues...)}
				if df.kind == KindHistogram {
					ds.hist = NewHistogram()
				}
				df.series[key] = ds
			}
			switch df.kind {
			case KindHistogram:
				ds.hist.Merge(ss.hist)
			default:
				v := ss.value
				if ss.fn != nil {
					v = ss.fn()
				}
				ds.value += v
			}
		}
	}
}

// Merge adds src's observations to h: bucket counts, observation count, and
// sum accumulate. Histograms share one fixed bucket geometry, so the merge
// is exact. Nil-safe on both sides.
func (h *Histogram) Merge(src *Histogram) {
	if h == nil || src == nil || src.n == 0 {
		return
	}
	for i := range h.counts {
		h.counts[i] += src.counts[i]
	}
	h.n += src.n
	h.sum += src.sum
}

// SeriesCount reports the total number of series across all families.
func (r *Registry) SeriesCount() int {
	if r == nil {
		return 0
	}
	n := 0
	for _, f := range r.families {
		n += len(f.series)
	}
	return n
}
