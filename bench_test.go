// Package tgmod's root benchmarks time the evaluation's experiments
// (EXPERIMENTS.md) at Quick scale, one per experiment, plus the kernel
// anchor and throughput-floor check BenchmarkStandardKernel; run
// cmd/benchtab -scale full for the published numbers.
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

func BenchmarkT1Taxonomy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := experiments.T1Taxonomy(); t.Rows() == 0 {
			b.Fatal("empty taxonomy")
		}
	}
}

func BenchmarkT2Mechanism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.T2Mechanism(benchSeed, experiments.Quick)
		benchErr(b, err)
	}
}

func BenchmarkT3ModalityUsage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.T3ModalityUsage(benchSeed, experiments.Quick)
		benchErr(b, err)
	}
}

func BenchmarkT4Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.T4Coverage(benchSeed, experiments.Quick)
		benchErr(b, err)
	}
}

func BenchmarkF1JobSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.F1JobSize(benchSeed, experiments.Quick)
		benchErr(b, err)
	}
}

func BenchmarkF2GatewayGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.F2GatewayGrowth(benchSeed, experiments.Quick)
		benchErr(b, err)
	}
}

func BenchmarkF3WaitBySize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.F3WaitBySize(benchSeed, experiments.Quick)
		benchErr(b, err)
	}
}

func BenchmarkF4Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.F4Utilization(benchSeed, experiments.Quick)
		benchErr(b, err)
	}
}

func BenchmarkF5Urgent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.F5Urgent(benchSeed, experiments.Quick)
		benchErr(b, err)
	}
}

func BenchmarkF6Transfers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.F6Transfers(benchSeed, experiments.Quick)
		benchErr(b, err)
	}
}

func BenchmarkF7Kernel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := experiments.F7Kernel(experiments.Quick); t.Rows() == 0 {
			b.Fatal("empty kernel table")
		}
	}
}

func BenchmarkF8Inference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.F8Inference(benchSeed, experiments.Quick)
		benchErr(b, err)
	}
}

func BenchmarkF9Prediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.F9Prediction(benchSeed, experiments.Quick)
		benchErr(b, err)
	}
}
