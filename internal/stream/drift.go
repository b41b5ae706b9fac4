package stream

import (
	"cmp"
	"slices"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/metrics"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// driftMonitor scores the online classifier against the trailing
// ground-truth labels carried in the records (the generator's
// TruthModality, which classifiers themselves never read). Agreement is
// tracked over the same burn-style trailing windows as usage, plus
// lifetime totals, peak in-window drift, and an hourly history the drift
// experiment reads back to localize a workload shift.
//
// "Drift" here is the disagreement rate: the fraction of recent
// classifications that contradict their trailing truth label. A workload
// shift the online rules don't capture (e.g. a surge of untagged
// campaigns) pushes the short windows up first — exactly the burn-rate
// alerting shape the SLO layer uses.
type driftMonitor struct {
	rings [numWindows]*metrics.Ring[metrics.GoodBad]
	peaks [numWindows]float64

	agree    int64
	disagree int64

	// history holds one agreement cell per scored hour, in ascending
	// hour order.
	history []driftCell

	cAgree    *telemetry.Counter
	cDisagree *telemetry.Counter
}

// driftCell is one hour of agreement history.
type driftCell struct {
	Hour     int64 `json:"hour"` // absolute virtual hour index
	Agree    int64 `json:"agree"`
	Disagree int64 `json:"disagree"`
}

func newDriftMonitor() *driftMonitor {
	d := &driftMonitor{}
	for i, w := range metrics.TrailingWindows {
		d.rings[i] = metrics.NewWindowRing[metrics.GoodBad](w)
	}
	return d
}

func (d *driftMonitor) bind(reg *telemetry.Registry, now func() des.Time) {
	if reg == nil {
		return
	}
	events := reg.Counter("tg_drift_events_total",
		"Online classifications scored against trailing ground truth, by result.", "result")
	d.cAgree = events.With("agree")
	d.cDisagree = events.With("disagree")
	rate := reg.Gauge("tg_drift_rate",
		"Classifier drift (disagreement fraction) per trailing virtual-time window.", "window")
	peak := reg.Gauge("tg_drift_peak",
		"Worst in-window classifier drift observed so far.", "window")
	for i, w := range metrics.TrailingWindows {
		rate.Func(func() float64 { return d.windowRate(i, now()) }, w.Label)
		peak.Func(func() float64 { return d.peaks[i] }, w.Label)
	}
}

// observe scores one classification against its trailing truth label.
// Records without a truth label (operationally: real deployments) score
// as agreement-unknown and are skipped rather than counted either way.
func (d *driftMonitor) observe(at des.Time, measured job.Modality, truth string) {
	if truth == "" {
		return
	}
	good := string(measured) == truth
	if good {
		d.agree++
		d.cAgree.Inc()
	} else {
		d.disagree++
		d.cDisagree.Inc()
	}
	for i := range d.rings {
		d.rings[i].At(at).Add(good)
		if r := d.windowRate(i, at); r > d.peaks[i] {
			d.peaks[i] = r
		}
	}
	d.recordHistory(at, good)
}

// recordHistory counts one scored classification in its hour's cell. A
// live stream offers records in flush order, which interleaves the sites'
// packets, so an hour can recur after a later one: it finds the hour's
// cell, trying the newest first, and inserts a missing one in order.
func (d *driftMonitor) recordHistory(at des.Time, good bool) {
	hour := int64(at / des.Hour)
	i := len(d.history) - 1
	if i < 0 || d.history[i].Hour != hour {
		var found bool
		i, found = slices.BinarySearchFunc(d.history, hour, func(c driftCell, h int64) int {
			return cmp.Compare(c.Hour, h)
		})
		if !found {
			d.history = slices.Insert(d.history, i, driftCell{Hour: hour})
		}
	}
	cell := &d.history[i]
	if good {
		cell.Agree++
	} else {
		cell.Disagree++
	}
}

// windowRate returns the disagreement fraction in window w as of now
// (0 when the window is empty).
func (d *driftMonitor) windowRate(w int, now des.Time) float64 {
	return d.rings[w].Total(now).BadFrac()
}

// lifetimeRate returns the run-wide disagreement fraction.
func (d *driftMonitor) lifetimeRate() float64 {
	if d.agree+d.disagree == 0 {
		return 0
	}
	return float64(d.disagree) / float64(d.agree+d.disagree)
}

// History returns the hourly agreement cells in ascending hour order.
// Callers must not modify the slice.
func (d *driftMonitor) History() []driftCell { return d.history }
