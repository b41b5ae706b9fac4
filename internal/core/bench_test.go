package core_test

import (
	"testing"

	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/experiments"
	"github.com/tgsim/tgmod/internal/scenario"
)

// quickSeed7 runs quick seed 7's standard scenario, whose central database
// holds 5,129 job records.
func quickSeed7(tb testing.TB) *scenario.Result {
	tb.Helper()
	res, err := scenario.Run(experiments.StandardConfig(7, experiments.Quick))
	if err != nil {
		tb.Fatal(err)
	}
	if n := len(res.Central.Jobs()); n != 5129 {
		tb.Fatalf("quick seed 7 holds %d job records, want 5129", n)
	}
	return res
}

// BenchmarkClassify times the batch classifier over quick seed 7's
// central database, the classify layer of every modality report. The
// simulation and the database's seal run before the timer starts.
func BenchmarkClassify(b *testing.B) {
	res := quickSeed7(b)
	cl := core.NewClassifier(core.Config{LargestCores: res.LargestCores})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := cl.Classify(res.Central); len(got) != 5129 {
			b.Fatalf("classified %d records", len(got))
		}
	}
}

// BenchmarkBuildReport times the usage-by-modality aggregation over quick
// seed 7's classified records.
func BenchmarkBuildReport(b *testing.B) {
	res := quickSeed7(b)
	results := core.NewClassifier(core.Config{LargestCores: res.LargestCores}).Classify(res.Central)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := core.BuildReport(res.Central, results); len(rep.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

// maxClassifyAllocs bounds the allocations of one Classify call on quick
// seed 7: the results, the pass-1 indexes and one campaign ID per inferred
// campaign (about 90 in all), never one per job (5,129 records).
const maxClassifyAllocs = 300

// TestClassifyAllocs pins that classification allocates per campaign, not
// per job.
func TestClassifyAllocs(t *testing.T) {
	res := quickSeed7(t)
	cl := core.NewClassifier(core.Config{LargestCores: res.LargestCores})
	if n := testing.AllocsPerRun(5, func() { cl.Classify(res.Central) }); n > maxClassifyAllocs {
		t.Errorf("Classify made %.0f allocations on 5,129 records, want at most %d", n, maxClassifyAllocs)
	}
}
