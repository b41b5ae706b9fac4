//go:build !race

// The allocation pins run only outside the race build, which allocates
// 10–17% more and would put them at their limits.

package core_test

import (
	"math"
	"runtime"
	"testing"

	"github.com/tgsim/tgmod/internal/accounting"
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

// maxReportBytes bounds one Classify and one BuildReport on a freshly
// ingested quick seed-7 database (161,736 B measured): the results, the
// evidence index, the end-user attributions and the per-modality bitsets.
// That is under a quarter of one copy of its job records (5,129 × 160 B).
const maxReportBytes = 169_600

// TestReportReadsInPlace pins that the modality report reads the database
// in place, and what its side state costs.
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
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Classify + BuildReport allocated %d B", got)
	if got > maxReportBytes {
		t.Errorf("Classify + BuildReport allocated %d B, want at most %d", got, maxReportBytes)
	}
}

// TestEvidenceIndexFarIDs: an EvidenceIndex gives JobIDs anywhere in int64
// (zero, negative, far past the records added, and one filed before the
// records caught up with it) the direct-evidence answers of a plain map
// from JobID, and the memory of its attributed jobs follows the records
// added, not the largest JobID: a bitset up to catchUp alone would take
// 25 KB.
func TestEvidenceIndexFarIDs(t *testing.T) {
	const catchUp = 200_000 // beyond reach at first, within it after the run of IDs below
	ids := []int64{0, -1, 1 << 40, 1 << 62, math.MaxInt64, math.MinInt64, catchUp}
	for id := int64(1); id <= 4000; id++ {
		ids = append(ids, id)
	}
	attributed, staged := map[int64]bool{}, map[int64]int64{}
	x := core.NewEvidenceIndex()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, id := range ids {
		if i%2 == 0 {
			x.AddGatewayAttr(&accounting.GatewayAttrRecord{JobID: id})
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<10 {
		t.Errorf("indexing %d attribute records allocated %d B, want at most 8 KiB", len(ids)/2, got)
	}
	for i, id := range ids {
		if i%2 == 0 {
			attributed[id] = true
		}
		if i%3 == 0 {
			x.AddTransfer(&accounting.TransferRecord{JobID: id, Bytes: 6 << 30})
			if id != 0 {
				staged[id] += 6 << 30
			}
		}
	}
	for _, id := range append(ids, 2, 4001, catchUp+1, 1<<40+1, -2) {
		want := core.RuleNone
		switch {
		case attributed[id]:
			want = core.RuleGatewayUserRec
		case staged[id] >= 5<<30:
			want = core.RuleStagedBytes
		}
		res, ok := x.Direct(&accounting.JobRecord{JobID: id})
		if res.Rule != want || ok != (want != core.RuleNone) {
			t.Errorf("JobID %d: rule %v (%v), want %v", id, res.Rule, ok, want)
		}
	}
}
