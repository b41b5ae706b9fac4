// Command wlgen generates a labeled synthetic accounting trace: it runs the
// standard workload mix against the simulated federation and exports the
// central accounting database (job records with ground-truth modality
// labels, transfer records, gateway attribute records) as JSON lines, for
// offline analysis with modreport.
//
// Usage:
//
//	wlgen -out trace.jsonl [-seed N] [-days D] [-gateway-coverage F] [-ensemble-coverage F] [-workflow-tagged F]
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/trace"
	"github.com/tgsim/tgmod/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wlgen:", err)
		os.Exit(1)
	}
}

func run() error {
	out := flag.String("out", "", "output trace path (required)")
	swfPath := flag.String("swf", "", "also export the job stream in Standard Workload Format")
	seed := flag.Uint64("seed", 1, "scenario seed")
	days := flag.Float64("days", 30, "simulated horizon in days")
	gwCov := flag.Float64("gateway-coverage", 0.9, "gateway attribute coverage [0,1]")
	ensCov := flag.Float64("ensemble-coverage", 0.5, "ensemble tag coverage [0,1]")
	wfTag := flag.Float64("workflow-tagged", 0.6, "fraction of workflows run by tagging engines [0,1]")
	brokerCov := flag.Float64("broker-coverage", 1.0, "broker tag coverage [0,1]")
	flag.Parse()
	if *out == "" {
		return fmt.Errorf("-out is required")
	}

	cfg := scenario.DefaultConfig(*seed)
	cfg.Horizon = des.Time(*days) * des.Day
	cfg.DrainTime = cfg.Horizon / 8
	cfg.BrokerTagCoverage = *brokerCov
	for i := range cfg.Gateways {
		cfg.Gateways[i].AttrCoverage = *gwCov
	}
	for _, g := range cfg.Generators {
		switch gg := g.(type) {
		case *workload.EnsembleGen:
			gg.TagCoverage = *ensCov
		case *workload.WorkflowGen:
			gg.TaggedFrac = *wfTag
		}
	}

	res, err := scenario.Run(cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := res.Central.Export(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if *swfPath != "" {
		sf, err := os.Create(*swfPath)
		if err != nil {
			return err
		}
		if err := trace.WriteSWF(sf, res.Central.Jobs(), res.Central.Syms()); err != nil {
			sf.Close()
			return err
		}
		if err := sf.Close(); err != nil {
			return err
		}
		fmt.Printf("wlgen: wrote SWF trace to %s\n", *swfPath)
	}
	fmt.Printf("wlgen: wrote %d job records, %d transfers, %d gateway attributes to %s\n",
		res.Central.Len(), res.Central.Transfers().Len(),
		res.Central.GatewayAttrs().Len(), *out)
	return nil
}
