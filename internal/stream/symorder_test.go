package stream_test

import (
	"bytes"
	"github.com/tgsim/tgmod/internal/job"
	"reflect"
	"testing"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/experiments"
	"github.com/tgsim/tgmod/internal/regress"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/simrand"
	"github.com/tgsim/tgmod/internal/stream"
)

// outputs is everything a run's job records feed: the batch
// classification, the usage report and its rendered table, the stream's
// online payloads after a replay, and the stream's finalized report.
type outputs struct {
	results    []decision
	report     *core.Report
	table      []byte
	modalities []byte
	drift      []byte
	final      *core.Report
}

func outputsOf(t *testing.T, c *accounting.Central, largest int, end des.Time) outputs {
	t.Helper()
	results := core.NewClassifier(core.Config{LargestCores: largest}).Classify(c)
	rep := core.BuildReport(c, results)
	var table bytes.Buffer
	if err := core.ModalityTable(rep).WriteText(&table); err != nil {
		t.Fatal(err)
	}
	p := stream.New(stream.Config{LargestCores: largest})
	rp := &stream.Replay{Run: &regress.Run{Central: c}, EndTime: end}
	if _, _, err := rp.Feed(p); err != nil {
		t.Fatal(err)
	}
	fin, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	decisions := make([]decision, len(results))
	for i, r := range results {
		decisions[i] = decision{r.JobID, r.Rule, r.CampaignID(c.Syms())}
	}
	return outputs{decisions, rep, table.Bytes(), p.ModalitiesJSON(), p.DriftJSON(), fin.Report}
}

// decision is a classifier result with its campaign rendered: a tagged
// campaign's Campaign is a Sym, which only its table gives meaning.
type decision struct {
	jobID    int64
	rule     core.Rule
	campaign string
}

// TestSymbolOrderInvariance: no output depends on Sym numbers. Quick seed
// 7's export is loaded into a fresh table and into a table that already
// holds the run's vocabulary in a shuffled order; both, and the live
// run's own database, must give the same classification, report, table
// and stream payloads.
func TestSymbolOrderInvariance(t *testing.T) {
	cfg := experiments.StandardConfig(7, experiments.Quick)
	res, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var export bytes.Buffer
	if err := res.Central.Export(&export); err != nil {
		t.Fatal(err)
	}
	live := res.Central.Syms()
	permuted := job.NewSymbols()
	permuted.Intern("a string no record holds")
	rng := simrand.New(11)
	perm := make([]int, live.Len())
	for i := range perm {
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	for _, i := range perm {
		permuted.Intern(live.Str(job.Sym(i)))
	}
	load := func(syms *job.Symbols) *accounting.Central {
		c := accounting.NewCentral(syms)
		if err := c.Import(bytes.NewReader(export.Bytes())); err != nil {
			t.Fatal(err)
		}
		return c
	}
	fresh, shuffled := load(nil), load(permuted)
	renumbered := 0
	for i, r := range fresh.Jobs() {
		if r.User != shuffled.Jobs()[i].User {
			renumbered++
		}
	}
	if renumbered == 0 {
		t.Fatal("the shuffled table numbers every user as the fresh one does")
	}

	end := cfg.Horizon + cfg.DrainTime
	want := outputsOf(t, res.Central, res.LargestCores, end)
	for name, c := range map[string]*accounting.Central{"fresh": fresh, "shuffled": shuffled} {
		got := outputsOf(t, c, res.LargestCores, end)
		if !reflect.DeepEqual(got.results, want.results) {
			t.Errorf("%s table: classification differs from the live run's", name)
		}
		if !reflect.DeepEqual(got.report, want.report) || !bytes.Equal(got.table, want.table) {
			t.Errorf("%s table: usage report differs:\n%s\nwant\n%s", name, got.table, want.table)
		}
		if !bytes.Equal(got.modalities, want.modalities) || !bytes.Equal(got.drift, want.drift) {
			t.Errorf("%s table: stream payloads differ from the live run's", name)
		}
		if !reflect.DeepEqual(got.final, want.final) {
			t.Errorf("%s table: stream finalize report differs", name)
		}
	}
}
