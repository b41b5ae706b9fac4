//go:build !race

// The allocation pins run only outside the race build, which allocates
// 10–17% more and would put them at their limits.

package core_test

import (
	"runtime"
	"testing"

	"github.com/tgsim/tgmod/internal/core"
)

// maxClassifyAllocs bounds the allocations of one Classify call on quick
// seed 7: the results, the pass-1 indexes and the campaign spans (27 in
// all), never one per job (5,129 records) nor one per campaign.
const maxClassifyAllocs = 40

// TestClassifyAllocs pins that classification allocates neither per job
// nor per campaign.
func TestClassifyAllocs(t *testing.T) {
	res, _ := quickSeed7(t)
	cl := core.NewClassifier(core.Config{LargestCores: res.LargestCores})
	if n := testing.AllocsPerRun(5, func() { cl.Classify(res.Central) }); n > maxClassifyAllocs {
		t.Errorf("Classify made %.0f allocations on 5,129 records, want at most %d", n, maxClassifyAllocs)
	}
}

// TestReportReadsInPlace pins that the modality report reads the database
// in place: on a freshly ingested quick seed-7 database, one Classify and
// one BuildReport together allocate fewer bytes than half of one copy of
// its job records (5,129 × 160 B / 2; they allocate about 348 KB).
func TestReportReadsInPlace(t *testing.T) {
	res, packets := quickSeed7(t)
	c := ingested(t, res, packets)
	cl := core.NewClassifier(core.Config{LargestCores: res.LargestCores})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := core.BuildReport(c, cl.Classify(c))
	runtime.ReadMemStats(&after)
	if len(rep.Rows) == 0 {
		t.Fatal("empty report")
	}
	const limit = 5129 * 160 / 2 // half of one record copy
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("Classify + BuildReport allocated %d B, want less than half of one record copy (%d B)", got, limit)
	}
}
