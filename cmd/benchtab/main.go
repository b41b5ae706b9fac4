// Command benchtab regenerates every table and figure in the evaluation
// (see EXPERIMENTS.md): the modality taxonomy, usage breakdowns, classifier
// validation sweeps, job-size and gateway-growth distributions, scheduler
// comparisons, urgent-computing costs, WAN usage, kernel throughput, and
// inference ablations.
//
// Usage:
//
//	benchtab [-seed N] [-scale quick|full] [-only T3,PX] [-progress]
//
// -only takes comma-separated experiment ids in any case; an unknown id is
// an error that lists the valid ones. -progress prints one line per
// experiment to stderr (id and wall time) without touching stdout, so
// piped table output stays clean. Performance is measured by bench/tgbench
// and the root BenchmarkStandardKernel, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/tgsim/tgmod/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

// gen is one experiment: its EXPERIMENTS.md id and the table it renders.
type gen struct {
	id  string
	run func(seed uint64, sc experiments.Scale) (fmt.Stringer, error)
}

// gens lists every experiment in output order.
var gens = []gen{
	{"T1", func(uint64, experiments.Scale) (fmt.Stringer, error) { return experiments.T1Taxonomy(), nil }},
	{"T2", func(s uint64, sc experiments.Scale) (fmt.Stringer, error) { return experiments.T2Mechanism(s, sc) }},
	{"T3", func(s uint64, sc experiments.Scale) (fmt.Stringer, error) { return experiments.T3ModalityUsage(s, sc) }},
	{"T4", func(s uint64, sc experiments.Scale) (fmt.Stringer, error) { return experiments.T4Coverage(s, sc) }},
	{"F1", func(s uint64, sc experiments.Scale) (fmt.Stringer, error) { return experiments.F1JobSize(s, sc) }},
	{"F2", func(s uint64, sc experiments.Scale) (fmt.Stringer, error) { return experiments.F2GatewayGrowth(s, sc) }},
	{"F3", func(s uint64, sc experiments.Scale) (fmt.Stringer, error) { return experiments.F3WaitBySize(s, sc) }},
	{"F4", func(s uint64, sc experiments.Scale) (fmt.Stringer, error) { return experiments.F4Utilization(s, sc) }},
	{"F5", func(s uint64, sc experiments.Scale) (fmt.Stringer, error) { return experiments.F5Urgent(s, sc) }},
	{"F6", func(s uint64, sc experiments.Scale) (fmt.Stringer, error) { return experiments.F6Transfers(s, sc) }},
	{"F7", func(_ uint64, sc experiments.Scale) (fmt.Stringer, error) { return experiments.F7Kernel(sc), nil }},
	{"F8", func(s uint64, sc experiments.Scale) (fmt.Stringer, error) { return experiments.F8Inference(s, sc) }},
	{"F9", func(s uint64, sc experiments.Scale) (fmt.Stringer, error) { return experiments.F9Prediction(s, sc) }},
	{"GV", func(s uint64, sc experiments.Scale) (fmt.Stringer, error) {
		return experiments.GatewayVisibilityTable(s, sc)
	}},
	{"CC", func(s uint64, sc experiments.Scale) (fmt.Stringer, error) {
		return experiments.ConcentrationTable(s, sc)
	}},
	{"SQ", func(s uint64, sc experiments.Scale) (fmt.Stringer, error) { return experiments.ServiceTable(s, sc) }},
	{"FS", func(s uint64, sc experiments.Scale) (fmt.Stringer, error) { return experiments.FieldTable(s, sc) }},
	{"CR", func(s uint64, sc experiments.Scale) (fmt.Stringer, error) { return experiments.CampaignTable(s, sc) }},
	{"OV", func(s uint64, sc experiments.Scale) (fmt.Stringer, error) { return experiments.OverlapTable(s, sc) }},
	{"MA", func(s uint64, sc experiments.Scale) (fmt.Stringer, error) { return experiments.MaintenanceTable(s, sc) }},
	{"SL", func(s uint64, sc experiments.Scale) (fmt.Stringer, error) { return experiments.SLOTable(s, sc) }},
	{"PX", func(s uint64, sc experiments.Scale) (fmt.Stringer, error) { return experiments.PXPolicyEngines(s, sc) }},
	{"FL", func(s uint64, sc experiments.Scale) (fmt.Stringer, error) {
		t, _, err := experiments.FLFleetScaling(s, sc)
		return t, err
	}},
	{"FT", func(s uint64, sc experiments.Scale) (fmt.Stringer, error) { return experiments.FTChaos(s, sc) }},
	{"DR", func(s uint64, sc experiments.Scale) (fmt.Stringer, error) {
		t, _, err := experiments.DRDrift(s, sc)
		return t, err
	}},
}

func run() error {
	seed := flag.Uint64("seed", 7, "experiment seed")
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. T3,F4); empty = all")
	progress := flag.Bool("progress", false, "print per-experiment progress to stderr")
	flag.Parse()

	var sc experiments.Scale
	switch *scaleFlag {
	case "quick":
		sc = experiments.Quick
	case "full":
		sc = experiments.Full
	default:
		return fmt.Errorf("unknown scale %q", *scaleFlag)
	}
	selected, err := selectGens(*only)
	if err != nil {
		return err
	}

	for _, g := range selected {
		if *progress {
			fmt.Fprintf(os.Stderr, "benchtab: %s...", g.id)
		}
		start := time.Now()
		out, err := g.run(*seed, sc)
		if *progress {
			fmt.Fprintf(os.Stderr, " %.2fs\n", time.Since(start).Seconds())
		}
		if err != nil {
			return fmt.Errorf("%s: %w", g.id, err)
		}
		fmt.Printf("[%s]\n%s\n", g.id, out)
	}
	return nil
}

// selectGens returns the experiments named in only, a comma-separated,
// case-insensitive id list, in output order. An empty list selects every
// experiment; an id no experiment has is an error naming the valid ids.
func selectGens(only string) ([]gen, error) {
	valid := make([]string, len(gens))
	for i, g := range gens {
		valid[i] = g.id
	}
	var want, unknown []string
	for _, id := range strings.Split(only, ",") {
		switch id = strings.TrimSpace(strings.ToUpper(id)); {
		case id == "":
		case slices.Contains(valid, id):
			want = append(want, id)
		default:
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown experiment id %s (valid: %s)",
			strings.Join(unknown, ","), strings.Join(valid, ","))
	}
	if len(want) == 0 {
		return gens, nil
	}
	var out []gen
	for _, g := range gens {
		if slices.Contains(want, g.id) {
			out = append(out, g)
		}
	}
	return out, nil
}
