package experiments

import (
	"fmt"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/report"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/stream"
	"github.com/tgsim/tgmod/internal/workload"
)

// DriftRow is one aggregated period of classifier-agreement history.
type DriftRow struct {
	Period   string
	Scored   int64
	Disagree int64
	Rate     float64
}

// DRDrift measures how fast the streaming observatory notices a workload
// shift it was not told about. The standard scenario runs with one
// addition: at half-horizon a workload.DelayedGen switches on a surge of
// fully untagged ensemble campaigns (TagCoverage 0), so the online
// classifier gets no attribute evidence and must infer campaign
// membership from burst similarity — with the inference lag showing up
// as disagreement against the trailing ground truth. The experiment
// reads the tapped processor's hourly drift history back and reports the
// pre-shift period, the post-shift period, and the peak trailing-window
// drift: a visible pre/post step is the expected signature, and its
// absence would mean either the surge never ran or the drift monitor is
// not wired to the live stream.
func DRDrift(seed uint64, sc Scale) (*report.Table, []DriftRow, error) {
	cfg := scenario.New(seed, StandardOptions(sc)...)
	shift := cfg.Horizon / 2
	cfg.Generators = append(cfg.Generators, &workload.DelayedGen{
		After: shift,
		Gen: &workload.EnsembleGen{
			CampaignsPerDay: 18,
			JobsPerCampaign: 15,
			TagCoverage:     0, // the shift the classifier must infer
			MedianRuntime:   900,
		},
	})

	largest, err := scenario.LargestBatchCores(cfg)
	if err != nil {
		return nil, nil, err
	}
	proc := stream.New(stream.Config{LargestCores: largest})
	cfg.Observers = append(cfg.Observers, stream.Tap(proc))

	if _, err := scenario.Run(cfg); err != nil {
		return nil, nil, fmt.Errorf("drift scenario: %w", err)
	}
	proc.Advance(cfg.Horizon + cfg.DrainTime)

	// Aggregate the hourly history into pre-shift and post-shift periods.
	// History cells are absolute virtual-hour indexed; the boundary hour
	// counts as post-shift (the surge switches on at its start).
	shiftHour := int64(shift / des.Hour)
	var pre, post DriftRow
	pre.Period = fmt.Sprintf("pre-shift (hour 0-%d)", shiftHour-1)
	post.Period = fmt.Sprintf("post-shift (hour %d-)", shiftHour)
	for _, c := range proc.DriftHistory() {
		row := &pre
		if c.Hour >= shiftHour {
			row = &post
		}
		row.Scored += c.Agree + c.Disagree
		row.Disagree += c.Disagree
	}
	rows := []DriftRow{pre, post}
	for i := range rows {
		if rows[i].Scored > 0 {
			rows[i].Rate = float64(rows[i].Disagree) / float64(rows[i].Scored)
		}
	}

	dr := proc.Drift()
	peak := 0.0
	for _, w := range dr.Windows {
		if w.Peak > peak {
			peak = w.Peak
		}
	}
	t := report.NewTable(
		fmt.Sprintf("DR: online drift under an untagged ensemble surge at hour %d", shiftHour),
		"period", "scored", "disagree", "drift")
	for _, r := range rows {
		t.AddRowf(r.Period, r.Scored, r.Disagree, report.Percent(r.Rate))
	}
	t.AddRowf("lifetime", dr.Events, dr.Disagree, report.Percent(dr.Rate))
	t.AddRowf("peak trailing window", "", "", report.Percent(peak))
	return t, rows, nil
}
