// Command tgbench is the repository's end-to-end benchmark. One invocation
// measures one workload for a fixed time and prints every metric as
// "name value unit", then, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the run
// alternates untraced and traced batches and reports the per-layer set, and
// writes spans.jsonl, trace.json (Chrome trace) and layers.json into
// -trace-dir. BENCHMARK.json at the repository root lists both sets, and
// README.md describes the workloads. Build and run it with bench/tgbench.sh,
// which keeps every file the build and the run write inside the checkout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	workdir  string
	traceDir string
	jsonOut  string
}

func main() {
	if err := cli(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tgbench:", err)
		os.Exit(2)
	}
}

func cli(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tgbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: quarter, conservative-faults, fleet-quick or obsd-ingest")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	fs.Float64Var(&o.seconds, "seconds", 15, "measure for this many seconds (at least one batch always runs)")
	traceFlag := fs.Int("trace", 0, "1 = alternate untraced and traced batches and report per-layer metrics")
	size := fs.String("size", "full", "full, or smoke: tiny ops for tests (quick-scale quarter, 14-day conservative-faults, 4 reps, 4 pushed runs)")
	fs.StringVar(&o.workdir, "workdir", filepath.Join(os.TempDir(), "tgbench"), "directory for push spill journals, daemon WALs and default trace output")
	fs.StringVar(&o.traceDir, "trace-dir", "", "where a traced run writes spans.jsonl, trace.json and layers.json (default WORKDIR/trace/WORKLOAD)")
	fs.StringVar(&o.jsonOut, "json", "", "append this run's record {workload, seed, metrics, ops, ops_failed, checks} as one JSON line to this file")
	compare := fs.Bool("compare", false, "compare two files of -json records: tgbench -compare [-spec BENCHMARK.json] A.jsonl B.jsonl")
	spec := fs.String("spec", "BENCHMARK.json", "with -compare: the benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two record files")
		}
		return compareRecords(*spec, fs.Arg(0), fs.Arg(1), stdout)
	}
	switch *traceFlag {
	case 0, 1:
		o.trace = *traceFlag == 1
	default:
		return fmt.Errorf("-trace must be 0 or 1, not %d", *traceFlag)
	}
	switch *size {
	case "full":
	case "smoke":
		o.smoke = true
	default:
		return fmt.Errorf("-size must be full or smoke, not %q", *size)
	}
	if o.traceDir == "" {
		o.traceDir = filepath.Join(o.workdir, "trace", o.workload)
	}
	rec, err := run(o)
	if err != nil {
		return err
	}
	return rec.print(stdout, o.jsonOut)
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checkCount is one correctness check's tally in a -json record.
type checkCount struct {
	Name   string `json:"name"`
	Passed int    `json:"passed"`
	Failed int    `json:"failed"`
}

// record is one run's outcome.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Ops       int                    `json:"ops"`
	OpsFailed int                    `json:"ops_failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Checks    []checkCount           `json:"checks"`
	order     []metricDef
}

// print writes the human-readable lines, then the result object as the last
// line, and appends the record to jsonOut when it is set.
func (r *record) print(w io.Writer, jsonOut string) error {
	for _, m := range r.order {
		fmt.Fprintf(w, "%s %s %s\n", m.name, strconv.FormatFloat(r.Metrics[m.name].Value, 'g', -1, 64), m.unit)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "check %s passed=%d failed=%d\n", c.Name, c.Passed, c.Failed)
	}
	result, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Ops, "failed": r.OpsFailed, "metrics": r.Metrics,
	})
	if err != nil {
		return err
	}
	if jsonOut != "" {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(jsonOut, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(w, "%s\n", result)
	return err
}

// side accumulates the batches of one kind (untraced or traced).
type side struct {
	ops, failed int
	items       float64
	wall        float64
	alloc       uint64
	lat         []float64
	retained    []float64
}

func run(o options) (*record, error) {
	if o.seconds < 0 {
		return nil, fmt.Errorf("-seconds must not be negative")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	largest, err := largestCores()
	if err != nil {
		return nil, err
	}
	e := &env{
		ck: newChecks(), largest: largest, smoke: o.smoke, trace: o.trace, seed: o.seed,
		workdir: o.workdir, width: min(2, runtime.NumCPU()),
	}
	w, err := newRunner(o.workload, e)
	if err != nil {
		return nil, err
	}

	// Setup builds the inputs and warms code paths and the allocator. It
	// repeats, at least three times and for about a second, so its median
	// is steady.
	var setup []float64
	for first := time.Now(); len(setup) < 15; {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		if o.smoke || (len(setup) >= 3 && time.Since(first) > time.Second) {
			break
		}
	}

	var tr *tracing
	if o.trace {
		tr = newTracing(time.Now())
	}
	allocs := newAllocReader()
	var plain, traced side
	var batchWalls []float64
	loop := time.Now()
	for n := 0; ; n++ {
		// A traced run alternates untraced and traced batches so the
		// tracing overhead is measured on the same workload mix.
		var btr *tracing
		s := &plain
		if o.trace && n%2 == 1 {
			btr, s = tr, &traced
		}
		base := liveHeap()
		var rt0 runtimeStats
		if btr != nil {
			rt0 = readRuntime()
		}
		a0 := allocs.read()
		t0 := time.Now()
		b, err := w.batch(n, btr)
		wall := time.Since(t0).Seconds()
		a1 := allocs.read()
		if err != nil {
			return nil, err
		}
		if btr != nil {
			rt1 := readRuntime()
			tr.mu.Lock()
			addRuntime(&tr.total, rt0, rt1, wall)
			tr.mu.Unlock()
		}
		held := liveHeap()
		runtime.KeepAlive(b.keep)
		b.keep = nil
		s.ops += b.ops
		s.failed += b.failed
		s.items += b.items
		s.wall += wall
		s.alloc += a1 - a0
		s.lat = append(s.lat, b.lat...)
		if b.ops > 0 {
			s.retained = append(s.retained, (float64(held)-float64(base))/float64(b.ops))
		}
		batchWalls = append(batchWalls, time.Since(t0).Seconds())
		if o.trace && n < 1 {
			continue
		}
		if time.Since(loop).Seconds()+median(batchWalls) > o.seconds {
			break
		}
	}

	rec := &record{
		Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Ops: plain.ops + traced.ops, OpsFailed: plain.failed + traced.failed,
		Metrics: map[string]metricValue{},
	}
	values := map[string]float64{}
	if o.trace {
		overhead := 0.0
		if plain.items > 0 && traced.items > 0 {
			overhead = (traced.wall/traced.items)/(plain.wall/plain.items) - 1
		}
		values = perLayerValues(&tr.total, overhead)
		rec.order = perLayer
		if err := tr.writeTrace(o.traceDir, o.workload, o.seed, overhead); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	} else {
		values["setup_s"] = median(setup)
		values["items_per_s"] = ratio(plain.items, plain.wall)
		values["op_p50_ms"] = percentile(plain.lat, 0.50) * 1e3
		values["op_p95_ms"] = percentile(plain.lat, 0.95) * 1e3
		values["alloc_bytes_per_item"] = ratio(float64(plain.alloc), plain.items)
		values["retained_mb_per_op"] = median(plain.retained) / (1 << 20)
		values["peak_rss_mb"] = peakRSSMB()
		rec.order = endToEnd
	}
	for _, m := range rec.order {
		rec.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	var failures int
	rec.Checks, failures = e.ck.summary()
	rec.Correct = failures == 0 && rec.OpsFailed == 0
	return rec, nil
}
