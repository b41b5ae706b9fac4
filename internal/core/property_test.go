package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/simrand"
)

// randomRecords builds a random but internally consistent record set with
// a mix of attribute evidence, bursts, and plain batch jobs.
func randomRecords(rng *simrand.Stream, n int) []accounting.JobRecord {
	recs := make([]accounting.JobRecord, 0, n)
	tm := 0.0
	for i := 0; i < n; i++ {
		r := accounting.JobRecord{
			JobID:   int64(i + 1),
			Name:    sym(fmt.Sprintf("app-%d", rng.Intn(5))),
			User:    sym(fmt.Sprintf("u%d", rng.Intn(8))),
			Project: sym("p"), Site: sym("s"), Machine: sym("m"),
			Cores:      1 << uint(rng.Intn(10)),
			SubmitTime: tm,
			QOS:        sym("normal"),
			ExitStatus: sym("completed"),
			NUs:        float64(rng.Intn(100)),
		}
		r.StartTime = r.SubmitTime + float64(rng.Intn(500))
		r.EndTime = r.StartTime + float64(60+rng.Intn(5000))
		r.WallSeconds = r.EndTime - r.StartTime
		switch rng.Intn(8) {
		case 0:
			r.QOS = sym("urgent")
		case 1:
			r.GatewayID = sym("gw")
		case 2:
			r.EnsembleID = sym(fmt.Sprintf("ens-%d", rng.Intn(3)))
		case 3:
			r.WorkflowID = sym(fmt.Sprintf("wf-%d", rng.Intn(3)))
		case 4:
			r.BrokerJobID = sym("b")
		}
		tm += float64(rng.Intn(600))
		recs = append(recs, r)
	}
	return recs
}

// TestClassifyTotalAndStable: every record receives a non-empty modality,
// and splitting the same records across differently-sized packets (the
// reporting cadence) never changes any per-job decision.
func TestClassifyTotalAndStable(t *testing.T) {
	f := func(seed uint64) bool {
		rng := simrand.New(seed)
		recs := randomRecords(rng, 50+rng.Intn(150))

		ingest := func(chunk int) *accounting.Central {
			c := accounting.NewCentral(testSyms)
			seq := uint64(0)
			for i := 0; i < len(recs); i += chunk {
				end := i + chunk
				if end > len(recs) {
					end = len(recs)
				}
				seq++
				if err := c.Ingest(&accounting.Packet{Site: "s", Seq: seq, Syms: testSyms,
					Jobs: recs[i:end]}); err != nil {
					t.Fatal(err)
				}
			}
			return c
		}
		cl := NewClassifier(Config{LargestCores: 512})
		oneShot := ingest(len(recs))
		chunked := ingest(1 + rng.Intn(9))

		ra := cl.Classify(oneShot)
		rb := cl.Classify(chunked)
		byID := make(map[int64]job.Modality, len(rb))
		for _, r := range rb {
			byID[r.JobID] = r.Rule.Modality()
		}
		for _, r := range ra {
			if r.Rule.Modality() == "" {
				t.Fatalf("seed %d: job %d got empty modality", seed, r.JobID)
			}
			if byID[r.JobID] != r.Rule.Modality() {
				t.Fatalf("seed %d: job %d classified %q vs %q across packet splits",
					seed, r.JobID, r.Rule.Modality(), byID[r.JobID])
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestClassifyOrderInvariant: per-job decisions never depend on record
// order — the property the streaming replay path relies on (a replayed
// export may present records in a different order than the live flushes).
func TestClassifyOrderInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		rng := simrand.New(seed)
		recs := randomRecords(rng, 50+rng.Intn(150))
		// Force submit-time ties so the inference sorts' tiebreakers are
		// actually exercised.
		for i := 1; i < len(recs); i += 7 {
			recs[i].SubmitTime = recs[i-1].SubmitTime
		}
		ingest := func(rs []accounting.JobRecord) *accounting.Central {
			c := accounting.NewCentral(testSyms)
			if err := c.Ingest(&accounting.Packet{Site: "s", Seq: 1, Jobs: rs, Syms: testSyms}); err != nil {
				t.Fatal(err)
			}
			return c
		}
		perm := make([]int, len(recs))
		for i := range perm {
			j := rng.Intn(i + 1)
			perm[i] = perm[j]
			perm[j] = i
		}
		shuffled := make([]accounting.JobRecord, len(recs))
		for i, j := range perm {
			shuffled[i] = recs[j]
		}
		cl := NewClassifier(Config{LargestCores: 512})
		ra := cl.Classify(ingest(recs))
		rb := cl.Classify(ingest(shuffled))
		byID := make(map[int64]job.Modality, len(rb))
		for _, r := range rb {
			byID[r.JobID] = r.Rule.Modality()
		}
		for _, r := range ra {
			if byID[r.JobID] != r.Rule.Modality() {
				t.Fatalf("seed %d: job %d classified %q in order, %q shuffled",
					seed, r.JobID, r.Rule.Modality(), byID[r.JobID])
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestClassifyIdempotent: classifying the same database twice yields
// identical results (no hidden state in the classifier).
func TestClassifyIdempotent(t *testing.T) {
	rng := simrand.New(99)
	recs := randomRecords(rng, 200)
	c := accounting.NewCentral(testSyms)
	if err := c.Ingest(&accounting.Packet{Site: "s", Seq: 1, Jobs: recs, Syms: testSyms}); err != nil {
		t.Fatal(err)
	}
	cl := NewClassifier(Config{LargestCores: 512})
	a := cl.Classify(c)
	b := cl.Classify(c)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs between runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
