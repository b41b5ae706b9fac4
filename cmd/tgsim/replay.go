package main

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/regress"
	"github.com/tgsim/tgmod/internal/report"
	"github.com/tgsim/tgmod/internal/stream"
)

// runReplay implements tgsim -replay DIR: the exported run directory is
// streamed through the modality observatory in virtual-time order
// (optionally paced by -replay-speed) and the post-run modality report is
// rebuilt from the imported accounting trace.
//
// Replay equivalence: acct.jsonl preserves the live run's central
// ingestion order exactly (Export/Import round-trip), and the batch
// classifier plus report builder are the same code the live run used, so
// the replayed modality table is byte-identical to the live one. Compare
// the two run directories' modality.txt, or tgdiff them.
func runReplay(o *options) error {
	run, err := regress.LoadRunDir(o.replay)
	if err != nil {
		return err
	}
	if run.Central == nil {
		return fmt.Errorf("-replay: %s has no %s (export the run with -export)", o.replay, regress.AcctFile)
	}

	largest := 0
	var endTime des.Time
	if run.Manifest != nil {
		largest = run.Manifest.LargestCores
		endTime = des.Time(run.Manifest.EndTimeS)
	}
	if largest == 0 {
		// Pre-manifest export: fall back to the biggest job seen, the same
		// inference a post-hoc analysis of a real accounting dump would use.
		for _, j := range run.Central.Jobs() {
			largest = max(largest, j.Cores)
		}
	}

	proc := stream.New(stream.Config{LargestCores: largest})
	rp := &stream.Replay{Run: run, Speed: o.replaySpeed, EndTime: endTime}
	records, spans, err := rp.Feed(proc)
	if err != nil {
		return err
	}

	// The byte-identical report path: classify the imported central
	// directly, exactly as the live run classified its own.
	cl := core.NewClassifier(core.Config{LargestCores: largest})
	rep := core.BuildReport(run.Central, cl.Classify(run.Central))
	mod := core.ModalityTable(rep)

	if o.export != "" {
		// Re-export what replay can reproduce exactly: the accounting trace,
		// obs events and modality report round-trip byte-identically;
		// metrics.om does not (a replay has no kernel), so it is
		// deliberately absent. The dashboard payloads ride along.
		var man *regress.Manifest
		if run.Manifest != nil {
			m := *run.Manifest
			man = &m
		}
		if err := regress.WriteRunDir(o.export, nil,
			stream.RebuildObsBuffer(run.Events), run.Central, man); err != nil {
			return err
		}
		if err := writeTo(filepath.Join(o.export, regress.ModalityFile), mod.WriteText); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(o.export, "modalities.json"), proc.ModalitiesJSON(), 0o666); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(o.export, "drift.json"), proc.DriftJSON(), 0o666); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "tgsim: replay exported to %s\n", o.export)
	}

	if o.quiet {
		fmt.Printf("replayed records=%d obs=%d ingested=%d jobs=%d NUs=%.0f\n",
			records, spans, proc.Ingested(), run.Central.Len(), run.Central.TotalNUs())
		return nil
	}

	fmt.Printf("tgsim: replay of %s: %d records + %d obs events through the stream "+
		"(%d ingested)\n\n", o.replay, records, spans, proc.Ingested())
	out := newTableSink(o.csvDir)
	out.table("modality", mod)
	fmt.Println()

	dr := proc.Drift()
	drt := report.NewTable("Classifier drift vs trailing ground truth",
		"window", "scored", "disagree", "drift", "peak")
	for _, w := range dr.Windows {
		drt.AddRowf(w.Window, w.Events, w.Disagree,
			fmt.Sprintf("%.3f", w.Rate), fmt.Sprintf("%.3f", w.Peak))
	}
	drt.AddRowf("lifetime", dr.Events, dr.Disagree, fmt.Sprintf("%.3f", dr.Rate), "")
	out.table("drift", drt)
	return out.err
}
