package core_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/experiments"
	"github.com/tgsim/tgmod/internal/scenario"
)

// quickSeed7 runs quick seed 7's standard scenario, whose central database
// holds 5,129 job records, and returns it with the packets its ledgers
// flushed, in ingest order.
func quickSeed7(tb testing.TB) (*scenario.Result, []*accounting.Packet) {
	tb.Helper()
	cfg := experiments.StandardConfig(7, experiments.Quick)
	var packets []*accounting.Packet
	cfg.Observers = append(cfg.Observers, scenario.TapPackets(func(_ des.Time, p *accounting.Packet) {
		packets = append(packets, p)
	}))
	res, err := scenario.Run(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if n := res.Central.Len(); n != 5129 {
		tb.Fatalf("quick seed 7 holds %d job records, want 5129", n)
	}
	return res, packets
}

// ingested returns a fresh database holding packets, which nothing has
// read yet.
func ingested(tb testing.TB, res *scenario.Result, packets []*accounting.Packet) *accounting.Central {
	tb.Helper()
	c := accounting.NewCentral(res.Central.Syms())
	for _, p := range packets {
		if err := c.Ingest(p); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// BenchmarkClassify times the batch classifier over quick seed 7's
// central database, the classify layer of every modality report. The
// simulation runs before the timer starts; the classifier reads the
// database as the run left it, ingested and never read.
func BenchmarkClassify(b *testing.B) {
	res, _ := quickSeed7(b)
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
	res, _ := quickSeed7(b)
	results := core.NewClassifier(core.Config{LargestCores: res.LargestCores}).Classify(res.Central)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := core.BuildReport(res.Central, results); len(rep.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

// TestConcurrentClassifyAndExport: reads write nothing, so goroutines may
// classify, report and export a database that has just been ingested and
// never read, all at once, and each gets what it gets alone. Run it with
// -race.
func TestConcurrentClassifyAndExport(t *testing.T) {
	res, packets := quickSeed7(t)
	cl := core.NewClassifier(core.Config{LargestCores: res.LargestCores})
	wantResults := cl.Classify(res.Central)
	wantReport := core.BuildReport(res.Central, wantResults)
	var wantExport bytes.Buffer
	if err := res.Central.Export(&wantExport); err != nil {
		t.Fatal(err)
	}

	c := ingested(t, res, packets)
	var (
		wg      sync.WaitGroup
		results [2][]core.Result
		reports [2]*core.Report
		exports [2]bytes.Buffer
		errs    [2]error
	)
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g] = cl.Classify(c)
			reports[g] = core.BuildReport(c, results[g])
			errs[g] = c.Export(&exports[g])
		}()
	}
	wg.Wait()
	for g := range 2 {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if !reflect.DeepEqual(results[g], wantResults) || !reflect.DeepEqual(reports[g], wantReport) {
			t.Errorf("goroutine %d: concurrent classification differs from the serial one", g)
		}
		if !bytes.Equal(exports[g].Bytes(), wantExport.Bytes()) {
			t.Errorf("goroutine %d: concurrent export differs from the serial one", g)
		}
	}
}
