// Command modreport analyzes a saved accounting trace: it classifies every
// job record into a usage modality, prints the usage-by-modality report,
// and — when the trace carries ground-truth labels — the validation
// confusion summary.
//
// Usage:
//
//	modreport -trace trace.jsonl [-largest-cores N] [-csv] [-explain]
//
// -explain prints classification provenance: one line per job naming the
// evidence rule that fired, followed by per-rule firing counts.
package main

import (
	"flag"
	"fmt"
	"github.com/tgsim/tgmod/internal/job"
	"os"
	"sort"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/report"
	"github.com/tgsim/tgmod/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "modreport:", err)
		os.Exit(1)
	}
}

func run() error {
	tracePath := flag.String("trace", "", "accounting trace (JSON lines) to analyze")
	swfPath := flag.String("swf", "", "Standard Workload Format trace to analyze instead")
	largest := flag.Int("largest-cores", 0, "batch cores of the largest machine (0 = infer from records)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	explain := flag.Bool("explain", false, "print per-job classification provenance and rule firing counts")
	flag.Parse()
	if (*tracePath == "") == (*swfPath == "") {
		return fmt.Errorf("exactly one of -trace or -swf is required")
	}

	central := accounting.NewCentral(nil)
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := central.Import(f); err != nil {
			return err
		}
	} else {
		f, err := os.Open(*swfPath)
		if err != nil {
			return err
		}
		defer f.Close()
		parsed, err := trace.ReadSWF(f)
		if err != nil {
			return err
		}
		err = central.Ingest(&accounting.Packet{
			Site: "swf-import", Seq: 1, Jobs: trace.Records(parsed, central.Syms()), Syms: central.Syms(),
		})
		if err != nil {
			return err
		}
	}
	if central.Len() == 0 {
		return fmt.Errorf("trace holds no job records")
	}

	lc := *largest
	if lc == 0 {
		for _, r := range central.Jobs() {
			if r.Cores > lc {
				lc = r.Cores
			}
		}
	}
	cl := core.NewClassifier(core.Config{LargestCores: lc})
	results := cl.Classify(central)
	rep := core.BuildReport(central, results)

	t := report.NewTable("Usage by measured modality",
		"modality", "jobs", "NUs", "NU share", "accounts", "end users")
	for _, row := range rep.Rows {
		share := "-"
		if rep.TotalNUs > 0 {
			share = report.Percent(row.NUs / rep.TotalNUs)
		}
		t.AddRowf(string(row.Modality), row.Jobs, row.NUs, share,
			row.AccountUsers, row.EndUsers)
	}
	write := t.WriteText
	if *csv {
		write = t.WriteCSV
	}
	if err := write(os.Stdout); err != nil {
		return err
	}

	// Validation only when the trace carries truth labels.
	hasTruth := false
	for _, r := range central.Jobs() {
		if r.TruthModality != job.SymNone {
			hasTruth = true
			break
		}
	}
	if hasTruth && !*csv {
		conf := core.Validate(central, results)
		fmt.Printf("\nGround truth present: accuracy %.3f over %d jobs\n",
			conf.Accuracy(), conf.Total())
		for _, label := range core.ModalityLabels() {
			fmt.Printf("  %-18s precision %.3f  recall %.3f  F1 %.3f\n",
				label, conf.Precision(label), conf.Recall(label), conf.F1(label))
		}
	}
	v := core.MeasureGatewayVisibility(central)
	if v.GatewayJobs > 0 && !*csv {
		fmt.Printf("\nGateway visibility: %d jobs, %d community accounts, %d recovered end users\n",
			v.GatewayJobs, v.CommunityAccounts, v.RecoveredEndUsers)
	}
	if *explain {
		writeExplain(os.Stdout, results, central.Syms())
	}
	return nil
}

// writeExplain prints per-job provenance (which evidence rule classified
// each record) followed by an aggregate firing-count table sorted by count.
func writeExplain(w *os.File, results []core.Result, syms *job.Symbols) {
	fmt.Fprintf(w, "\nClassification provenance (%d jobs)\n", len(results))
	counts := map[string]int{}
	for _, res := range results {
		camp := ""
		if id := res.CampaignID(syms); id != "" {
			camp = "  campaign=" + id
		}
		fmt.Fprintf(w, "  job %-8d %-18s source=%-10s evidence=%s%s\n",
			res.JobID, res.Rule.Modality(), res.Rule.Source(), res.Rule, camp)
		counts[res.Rule.String()]++
	}
	rules := make([]string, 0, len(counts))
	for r := range counts {
		rules = append(rules, r)
	}
	sort.Slice(rules, func(a, b int) bool {
		if counts[rules[a]] != counts[rules[b]] {
			return counts[rules[a]] > counts[rules[b]]
		}
		return rules[a] < rules[b]
	})
	fmt.Fprintf(w, "\nRule firing counts\n")
	for _, r := range rules {
		fmt.Fprintf(w, "  %-26s %d\n", r, counts[r])
	}
}
