// Package tgmod's root benchmark is the kernel anchor and throughput-floor
// check BenchmarkStandardKernel. The evaluation's experiments
// (EXPERIMENTS.md) run through cmd/benchtab (-only ID for one of them).
package tgmod

import (
	"testing"

	"github.com/tgsim/tgmod/internal/experiments"
	"github.com/tgsim/tgmod/internal/scenario"
)

const benchSeed = 7

// benchErr fails the benchmark on experiment error.
func benchErr(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}

// The quick seed-7 standard scenario's anchors and kernel throughput floor:
// 0.65 × 300,085.56 events/s, the last BENCH record's cold run on a
// single-core host (EXPERIMENTS.md, "Fleet benchmark noise").
const (
	standardEvents  = 14210
	standardJobs    = 5129
	standardFloorPS = 195_056
)

// BenchmarkStandardKernel times scenario.Run over that scenario, reports
// kernel events/s, and fails off the anchors or below the floor. Run it
// with -benchtime=1x: one cold run in a fresh process, as the floor was set.
func BenchmarkStandardKernel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := experiments.StandardConfig(benchSeed, experiments.Quick)
		b.StartTimer()
		res, err := scenario.Run(cfg)
		benchErr(b, err)
		if ev := res.Kernel.Executed(); ev != standardEvents || res.Finished != standardJobs {
			b.Fatalf("events/jobs = %d/%d, want the quick seed-7 anchors %d/%d",
				ev, res.Finished, standardEvents, standardJobs)
		}
	}
	eps := float64(b.N*standardEvents) / b.Elapsed().Seconds()
	b.ReportMetric(eps, "events/s")
	if eps < standardFloorPS {
		b.Fatalf("kernel throughput %.0f events/s is below the floor %d", eps, standardFloorPS)
	}
}
