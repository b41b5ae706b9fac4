package scenario_test

import (
	"runtime"
	"testing"

	"github.com/tgsim/tgmod/internal/experiments"
	"github.com/tgsim/tgmod/internal/scenario"
)

// BenchmarkQuickRun is the workload layer's recorded benchmark: whole
// quick-scale seed-7 runs (14210 events, 5129 jobs), with the heap
// allocated per finished job alongside the usual per-run figures. Job
// arrivals (one job.Job each, plus the strings they intern) are the
// largest allocation a run makes, so B/job tracks their cost.
func BenchmarkQuickRun(b *testing.B) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	jobs := 0
	for i := 0; i < b.N; i++ {
		res, err := scenario.Run(experiments.StandardConfig(7, experiments.Quick))
		if err != nil {
			b.Fatal(err)
		}
		if ev := res.Kernel.Executed(); ev != 14210 || res.Finished != 5129 {
			b.Fatalf("events/jobs = %d/%d, want the quick seed-7 anchors 14210/5129", ev, res.Finished)
		}
		jobs += res.Finished
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(jobs), "B/job")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(jobs), "allocs/job")
}
