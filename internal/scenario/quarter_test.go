//go:build !race

package scenario

import (
	"math"
	"testing"
)

// TestQuarterSeed7Anchors pins the default quarter (90 days plus drain,
// seed 7) — the run tgsim -scale full -seed 7 prints and the benchmark
// replays. Its deep queues put nearly all of the run in the
// metascheduler's start-time estimates, so it is the anchor a planning
// change must reproduce. It takes a few seconds, so -short skips it, and
// the race build leaves it out.
func TestQuarterSeed7Anchors(t *testing.T) {
	if testing.Short() {
		t.Skip("quarter-scale run")
	}
	res, err := Run(New(7))
	if err != nil {
		t.Fatal(err)
	}
	events, jobs, nus := res.Kernel.Executed(), len(res.Central.Jobs()), int64(math.Round(res.Central.TotalNUs()))
	if events != 254275 || jobs != 91908 || nus != 263778435 {
		t.Errorf("events/jobs/NUs = %d/%d/%d, want 254275/91908/263778435", events, jobs, nus)
	}
}
