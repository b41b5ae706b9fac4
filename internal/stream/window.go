package stream

import (
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/metrics"
)

// numWindows is the count of trailing windows (array sizing).
const numWindows = len(metrics.TrailingWindows)

// usageCell is one bucket of one modality's usage ring.
type usageCell struct {
	jobs int64
	nus  float64
}

// Plus returns the bucket-wise sum.
func (c usageCell) Plus(o usageCell) usageCell { return usageCell{c.jobs + o.jobs, c.nus + o.nus} }

// usageWindows maintains the windowed per-modality usage view: one ring
// per (window, modality), created lazily, plus lifetime totals.
type usageWindows struct {
	rings [numWindows]map[job.Modality]*metrics.Ring[usageCell]
	// Lifetime totals, for the report denominators and the modality list,
	// and the decision confidence sum for the mean-confidence column.
	lifeJobs map[job.Modality]int64
	lifeNUs  map[job.Modality]float64
	confSum  map[job.Modality]float64
}

func newUsageWindows() *usageWindows {
	u := &usageWindows{
		lifeJobs: make(map[job.Modality]int64),
		lifeNUs:  make(map[job.Modality]float64),
		confSum:  make(map[job.Modality]float64),
	}
	for i := range u.rings {
		u.rings[i] = make(map[job.Modality]*metrics.Ring[usageCell])
	}
	return u
}

// observe accounts one classified job at its visibility time.
func (u *usageWindows) observe(at des.Time, m job.Modality, nus, conf float64) {
	u.lifeJobs[m]++
	u.lifeNUs[m] += nus
	u.confSum[m] += conf
	for i, w := range metrics.TrailingWindows {
		ring := u.rings[i][m]
		if ring == nil {
			ring = metrics.NewWindowRing[usageCell](w)
			u.rings[i][m] = ring
		}
		c := ring.At(at)
		c.jobs++
		c.nus += nus
	}
}

// meanConfidence returns the mean decision confidence for a modality (0
// when it has no decisions yet).
func (u *usageWindows) meanConfidence(m job.Modality) float64 {
	n := u.lifeJobs[m]
	if n == 0 {
		return 0
	}
	return u.confSum[m] / float64(n)
}

// modalities returns every modality with lifetime usage, in canonical
// taxonomy order (then lexical for anything outside the taxonomy).
func (u *usageWindows) modalities() []job.Modality {
	out := make([]job.Modality, 0, len(u.lifeJobs))
	seen := make(map[job.Modality]bool, len(u.lifeJobs))
	for _, m := range job.AllModalities {
		if u.lifeJobs[m] > 0 {
			out = append(out, m)
			seen[m] = true
		}
	}
	rest := make([]job.Modality, 0)
	for m := range u.lifeJobs {
		if !seen[m] {
			rest = append(rest, m)
		}
	}
	// Deterministic tail order.
	for i := 1; i < len(rest); i++ {
		for j := i; j > 0 && rest[j] < rest[j-1]; j-- {
			rest[j], rest[j-1] = rest[j-1], rest[j]
		}
	}
	return append(out, rest...)
}

// windowTotals returns the (jobs, nus) totals for one modality in one
// trailing window as of now.
func (u *usageWindows) windowTotals(w int, m job.Modality, now des.Time) (int64, float64) {
	ring := u.rings[w][m]
	if ring == nil {
		return 0, 0
	}
	t := ring.Total(now)
	return t.jobs, t.nus
}
