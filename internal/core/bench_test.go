package core_test

import (
	"testing"

	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/experiments"
	"github.com/tgsim/tgmod/internal/scenario"
)

// BenchmarkClassify times the batch classifier over quick seed 7's
// central database (5,129 job records), the classify layer of every
// modality report. The simulation and the database's seal run before the
// timer starts.
func BenchmarkClassify(b *testing.B) {
	res, err := scenario.Run(experiments.StandardConfig(7, experiments.Quick))
	if err != nil {
		b.Fatal(err)
	}
	if n := len(res.Central.Jobs()); n != 5129 {
		b.Fatalf("quick seed 7 holds %d job records, want 5129", n)
	}
	cl := core.NewClassifier(core.Config{LargestCores: res.LargestCores})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := cl.Classify(res.Central); len(got) != 5129 {
			b.Fatalf("classified %d records", len(got))
		}
	}
}
