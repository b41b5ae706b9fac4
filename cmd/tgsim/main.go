// Command tgsim runs a complete federated-cyberinfrastructure simulation
// and prints the usage-modality measurement report: usage by submission
// mechanism, usage by classified modality (against ground truth), gateway
// end-user visibility, and per-machine utilization.
//
// Usage:
//
//	tgsim [-seed N] [-days D] [-scale quick|full] [-policy fcfs|easy|conservative|fairshare]
//	      [-trace out.jsonl] [-csv-dir DIR] [-config cfg.json] [-dump-config cfg.json]
//	      [-maintenance-every D] [-quiet]
//	      [-faults X] [-mtbf DAYS] [-checkpoint MINUTES]
//	      [-chrome-trace t.json] [-obs-jsonl t.jsonl] [-obs-csv DIR]
//	      [-obs-sample-hours H] [-obs-max-events N] [-strict-obs] [-profile]
//	      [-cpuprofile f.pprof] [-memprofile f.pprof] [-pprof]
//	      [-slo] [-analysis] [-export DIR]
//	      [-http :PORT] [-http-hold] [-progress]
//	      [-stream]
//	      [-replay DIR] [-replay-speed X]
//	      [-reps N] [-parallel P]
//
// With -reps N > 1 tgsim runs a replication fleet: N independent
// replications at seeds seed..seed+N-1 across P workers, reporting
// mean ± 95% CI tables instead of single-run point estimates; -export
// writes the merged fleet metrics.
//
// With -stream the streaming modality observatory rides the run live:
// every accounting flush feeds an online classifier whose windowed usage
// and drift views the console serves at /modalities and /drift. With
// -replay DIR the same pipeline replays an exported run directory
// instead of simulating, and reproduces the original run's post-run
// modality report byte-identically: compare the two run directories'
// modality.txt.
//
// A flag the selected mode never reads (per-run observability in fleet
// mode, scenario flags with -config or -replay, a sub-flag without its
// parent such as -push-id without -push) is a usage error, exit code 2.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/tgsim/tgmod/internal/analysis"
	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/experiments"
	"github.com/tgsim/tgmod/internal/faults"
	"github.com/tgsim/tgmod/internal/fleet"
	"github.com/tgsim/tgmod/internal/obs"
	"github.com/tgsim/tgmod/internal/observatory"
	"github.com/tgsim/tgmod/internal/perf"
	"github.com/tgsim/tgmod/internal/regress"
	"github.com/tgsim/tgmod/internal/report"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/slo"
	"github.com/tgsim/tgmod/internal/stream"
	"github.com/tgsim/tgmod/internal/telemetry"
)

func main() {
	err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "tgsim:", err)
	}
	os.Exit(exitCode(err))
}

const openMetricsType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// options is the parsed command line, one field per flag (parseFlags
// documents each); every mode reads it directly.
type options struct {
	seed                                                                               uint64
	days, maintDays, maintHours, faults, mtbf, checkpoint, obsSampleHours, replaySpeed float64
	policy, scale, config, dumpConfig, csvDir, export, trace, chromeTrace, obsJSONL    string
	obsCSV, http, cpuProfile, memProfile, replay, push, pushID, pushSpill              string
	quiet, profile, slo, analysis, strictObs, progress, httpHold, pprof, stream        bool
	obsMaxEvents, reps, parallel, pushRetry                                            int
}

// parseFlags parses the command line and rejects every flag the selected
// mode would never read, so a mistyped invocation fails instead of
// silently running something else.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("tgsim", flag.ContinueOnError)
	fs.Uint64Var(&o.seed, "seed", 1, "scenario seed")
	fs.Float64Var(&o.days, "days", 30, "simulated horizon in days")
	fs.StringVar(&o.policy, "policy", "easy", "batch policy engine: fcfs, easy, conservative, fairshare, gang, priority")
	fs.StringVar(&o.trace, "trace", "", "write the accounting trace (JSON lines) to this file")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress tables; print one summary line")
	fs.Float64Var(&o.maintDays, "maintenance-every", 0, "schedule recurring maintenance every N days (0 = none)")
	fs.Float64Var(&o.maintHours, "maintenance-hours", 8, "maintenance window length in hours")
	fs.StringVar(&o.csvDir, "csv-dir", "", "also write every report as CSV into this directory")
	fs.StringVar(&o.config, "config", "", "load the scenario from a JSON config file (replaces the other scenario flags)")
	fs.StringVar(&o.dumpConfig, "dump-config", "", "write the effective scenario config as JSON and exit")
	fs.StringVar(&o.chromeTrace, "chrome-trace", "", "write a Chrome trace-event JSON file of job/transfer/gateway spans (open in Perfetto)")
	fs.StringVar(&o.obsJSONL, "obs-jsonl", "", "write the span event stream as JSON lines to this file")
	fs.StringVar(&o.obsCSV, "obs-csv", "", "write virtual-time metric CSVs (queue depth, utilization, ...) into this directory")
	fs.Float64Var(&o.obsSampleHours, "obs-sample-hours", 1, "metric sampling period in virtual hours (with -obs-csv)")
	fs.IntVar(&o.obsMaxEvents, "obs-max-events", 0, "cap the in-memory span buffer at N events (0 = unbounded); overflow is counted and dropped")
	fs.BoolVar(&o.profile, "profile", false, "print the kernel self-profile (wall-clock cost per event name) after the run")
	fs.StringVar(&o.http, "http", "", "serve the live run console (dashboard /, /status JSON, /metrics OpenMetrics) on this address, e.g. :8080")
	fs.BoolVar(&o.httpHold, "http-hold", false, "with -http: keep serving the final snapshot after the run until interrupted")
	fs.BoolVar(&o.progress, "progress", false, "print a live one-line progress snapshot to stderr")
	fs.StringVar(&o.scale, "scale", "", "run the standard measurement scenario at a scale (quick or full); replaces -days and the default workload mix")
	fs.BoolVar(&o.slo, "slo", false, "evaluate per-modality virtual-time SLOs and print the conformance table")
	fs.BoolVar(&o.analysis, "analysis", false, "reconstruct job timelines and print wait-decomposition and critical-path tables")
	fs.StringVar(&o.export, "export", "", "write the run's exports (metrics.om, obs.jsonl, acct.jsonl, modality.txt) into this directory for tgdiff")
	fs.BoolVar(&o.strictObs, "strict-obs", false, "exit non-zero when the span buffer or a push lost data")
	fs.IntVar(&o.reps, "reps", 1, "run a replication fleet of N seeds (seed, seed+1, ...) and report mean ± 95% CI tables")
	fs.IntVar(&o.parallel, "parallel", 0, "fleet worker count (with -reps; 0 = GOMAXPROCS)")
	fs.Float64Var(&o.faults, "faults", 0, "enable deterministic fault injection at this intensity (1 = nominal MTBFs, 2 = twice as often; 0 = off)")
	fs.Float64Var(&o.mtbf, "mtbf", 0, "override the machine crash MTBF in days (with -faults; 0 keeps the default)")
	fs.Float64Var(&o.checkpoint, "checkpoint", 0, "checkpoint/restart every N minutes: killed and preempted jobs resume from the last checkpoint (0 = off)")
	fs.BoolVar(&o.stream, "stream", false, "attach the streaming modality observatory: live windowed usage, online classification, and drift served at /modalities and /drift")
	fs.StringVar(&o.replay, "replay", "", "replay an exported run directory through the streaming pipeline instead of simulating")
	fs.Float64Var(&o.replaySpeed, "replay-speed", 0, "replay pacing in virtual seconds per wall second (0 = as fast as possible)")
	fs.StringVar(&o.push, "push", "", "stream telemetry to an observatory daemon (tgobsd) at host:port or unix:PATH; same-seed runs stay byte-identical with or without it")
	fs.StringVar(&o.pushID, "push-id", "", "run identity to request from the observatory daemon (fleet replications get -rNN suffixes; empty = daemon-assigned)")
	fs.IntVar(&o.pushRetry, "push-retry", 12, "max consecutive attempts when (re)connecting to the observatory daemon before the push gives up (0 disables reconnection)")
	fs.StringVar(&o.pushSpill, "push-spill", "", "path for the push replay spill journal (fleet replications get -rNN suffixes; empty = private temp file)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the whole run to this file (open with go tool pprof)")
	fs.StringVar(&o.memProfile, "memprofile", "", "write an end-of-run heap profile to this file (open with go tool pprof)")
	fs.BoolVar(&o.pprof, "pprof", false, "with -http: mount the net/http/pprof endpoints on the run console at /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q (a boolean flag takes -flag=false, not a separate value)", fs.Args())
	}

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	fleetMode := o.reps > 1
	spans := set["export"] || set["analysis"] || set["chrome-trace"] || set["obs-jsonl"]
	for _, r := range []struct {
		on      bool
		where   string
		ignored string // flags the mode never reads
	}{
		{set["replay"], "with -replay", "seed days scale policy config dump-config maintenance-every faults checkpoint " +
			"trace chrome-trace obs-jsonl obs-csv obs-max-events strict-obs profile http progress slo analysis stream reps push"},
		{fleetMode, "with -reps above 1", "trace dump-config chrome-trace obs-jsonl obs-csv obs-max-events profile http slo analysis stream"},
		{fleetMode && !set["push"], "with -reps above 1 but no -push", "strict-obs"},
		{set["config"], "with -config (the file holds the scenario)", "days scale policy maintenance-every faults checkpoint"},
		{set["config"] && !fleetMode, "with -config (the file holds the seed)", "seed"},
		{set["dump-config"], "with -dump-config (nothing runs)", "quiet csv-dir trace export chrome-trace obs-jsonl obs-csv " +
			"obs-max-events strict-obs profile http progress slo analysis stream push"},
		{set["quiet"], "with -quiet (no tables are printed)", "csv-dir"},
		{set["scale"], "with -scale (it sets the horizon)", "days"},
		{!fleetMode, "without -reps above 1", "parallel"},
		{!set["replay"], "without -replay", "replay-speed"},
		{!set["push"], "without -push", "push-id push-retry push-spill"},
		{!set["http"], "without -http", "http-hold pprof"},
		{!set["obs-csv"], "without -obs-csv", "obs-sample-hours"},
		{!set["faults"], "without -faults", "mtbf"},
		{!set["maintenance-every"], "without -maintenance-every", "maintenance-hours"},
		{!spans, "without a span consumer (-export, -analysis, -chrome-trace, -obs-jsonl)", "obs-max-events"},
		{!spans && !set["push"], "without a span consumer or -push", "strict-obs"},
	} {
		for _, name := range strings.Fields(r.ignored) {
			if r.on && set[name] {
				return nil, fmt.Errorf("-%s has no effect %s", name, r.where)
			}
		}
	}
	return o, nil
}

func run(args []string) error {
	o, err := parseFlags(args)
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	if err != nil {
		return err
	}
	// Runtime profiles wrap every mode — replay, fleet, and single runs —
	// so the profile covers exactly what the process did. Profiling only
	// reads Go runtime state: a profiled run's exports stay byte-identical
	// to an unprofiled same-seed run (CI proves this on the determinism
	// gate by profiling one leg).
	stopProfiles, err := startProfiles(o.cpuProfile, o.memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	if o.replay != "" {
		return runReplay(o)
	}
	cfg, err := o.scenarioConfig(o.seed)
	if err != nil {
		return err
	}
	if o.dumpConfig != "" {
		cf, err := scenario.FromConfig(cfg)
		if err != nil {
			return err
		}
		return writeTo(o.dumpConfig, cf.Encode)
	}
	if o.reps > 1 {
		return runFleet(o, cfg)
	}
	return runSingle(o, cfg)
}

// scenarioConfig builds the scenario for a seed. Single runs call it once;
// fleet mode calls it once per replication so every replication gets
// private (stateful) workload generators.
func (o *options) scenarioConfig(seed uint64) (scenario.Config, error) {
	if o.config != "" {
		f, err := os.Open(o.config)
		if err != nil {
			return scenario.Config{}, err
		}
		defer f.Close()
		cf, err := scenario.DecodeConfigFile(f)
		if err != nil {
			return scenario.Config{}, err
		}
		return cf.ToConfig()
	}
	pol, err := scenario.ParsePolicy(o.policy)
	if err != nil {
		return scenario.Config{}, err
	}
	var cfg scenario.Config
	switch o.scale {
	case "":
		cfg = scenario.New(seed, scenario.WithHorizon(des.Time(o.days)*des.Day))
		cfg.DrainTime = cfg.Horizon / 8
	// The standard measurement scenario the experiments and CI use, so CLI
	// runs are directly comparable with published tables.
	case "quick":
		cfg = experiments.StandardConfig(seed, experiments.Quick)
	case "full":
		cfg = experiments.StandardConfig(seed, experiments.Full)
	default:
		return scenario.Config{}, fmt.Errorf("unknown -scale %q (want quick or full)", o.scale)
	}
	cfg.Policy = pol
	if o.maintDays > 0 {
		cfg.MaintenanceEvery = des.Time(o.maintDays) * des.Day
		cfg.MaintenanceLength = des.Time(o.maintHours) * des.Hour
	}
	if o.faults > 0 {
		fc := faults.DefaultConfig()
		fc.Intensity = o.faults
		if o.mtbf > 0 {
			fc.MachineMTBF = des.Time(o.mtbf) * des.Day
		}
		cfg.Faults = fc
	}
	if o.checkpoint > 0 {
		cfg.CheckpointRestart = true
		cfg.CheckpointInterval = des.Time(o.checkpoint) * des.Minute
	}
	return cfg, nil
}

// runSingle executes one simulation with the requested observability and
// prints its report.
func runSingle(o *options, cfg scenario.Config) error {
	// The span buffer is needed by any consumer of the event stream: trace
	// exports, timeline analysis, and the tgdiff run-dir export.
	var spans *obs.Buffer
	if o.chromeTrace != "" || o.obsJSONL != "" || o.analysis || o.export != "" {
		spans = obs.NewBufferCap(o.obsMaxEvents)
		cfg.Observers = append(cfg.Observers, scenario.RecordSpans(spans))
	}
	var sloEval *slo.Evaluator
	if o.slo {
		var err error
		if sloEval, err = slo.New(); err != nil {
			return err
		}
		cfg.Observers = append(cfg.Observers, scenario.EvaluateSLO(sloEval))
	}
	if o.obsCSV != "" {
		if o.obsSampleHours <= 0 {
			return fmt.Errorf("non-positive -obs-sample-hours")
		}
		cfg.Observers = append(cfg.Observers, scenario.SampleEvery(des.Time(o.obsSampleHours)*des.Hour))
	}
	// -profile attaches the phase-attribution profiler (internal/perf): it
	// splits the wall clock across FEL/handler/accounting/classify phases,
	// per event name. Built unbound — scenario.Run binds the kernel during
	// assembly.
	if o.profile {
		cfg.Observers = append(cfg.Observers, scenario.ProfilePhases(perf.New(nil)))
	}

	// Live telemetry: the registry feeds the run console's /metrics; the
	// snapshot sink feeds both the console and the stderr progress line.
	// Everything runs on the simulation goroutine — the HTTP server only
	// reads published immutable snapshots.
	var reg *telemetry.Registry
	var console *telemetry.Console
	if o.http != "" || o.progress || o.export != "" {
		reg = telemetry.New()
		cfg.Observers = append(cfg.Observers, scenario.LiveTelemetry(reg))
	}
	// The streaming modality observatory: a processor tapped into the
	// accounting-flush seam, classifying records online and serving
	// windowed usage and drift through the console.
	var proc *stream.Processor
	if o.stream {
		largest, err := scenario.LargestBatchCores(cfg)
		if err != nil {
			return err
		}
		proc = stream.New(stream.Config{LargestCores: largest, Registry: reg})
		cfg.Observers = append(cfg.Observers, stream.Tap(proc))
	}
	if o.http != "" {
		console = telemetry.NewConsole()
		if o.pprof {
			console.EnablePprof()
		}
		addr, err := console.Serve(o.http)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "tgsim: live run console on http://%s/\n", addr)
	}
	// The runtime sampler feeds the wall-clock-only tg_runtime_* family:
	// sampled on the snapshot cadence (a SnapshotExtra, so /status carries
	// the runtime block) and served as its own exposition at
	// /metrics/runtime — never spliced into the deterministic /metrics.
	var sampler *perf.RuntimeSampler
	if console != nil || o.progress {
		sampler = perf.NewRuntimeSampler()
		cfg.Observers = append(cfg.Observers, scenario.DecorateSnapshots(func(s *telemetry.Snapshot) {
			sampler.Sample(s.Events)
			snap := sampler.Snap()
			s.Runtime = &snap
		}))
	}
	// Declared ahead of the snapshot closure so the console can serve the
	// push transport counters; assigned when -push dials below.
	var pusher *observatory.Pusher
	if reg != nil {
		// Appended before the pusher's observer below, which forwards to
		// whatever snapshot sink is already attached.
		cfg.Observers = append(cfg.Observers, scenario.StreamSnapshots(func(s *telemetry.Snapshot) {
			if console != nil {
				var buf bytes.Buffer
				if err := reg.WriteOpenMetrics(&buf); err == nil {
					console.Update(s, buf.Bytes())
				}
				if sampler != nil {
					console.PublishPage("/metrics/runtime", openMetricsType, sampler.OpenMetrics())
				}
				if pusher != nil {
					// Wall-clock transport counters: like /metrics/runtime,
					// a console-only page the deterministic exports never see.
					console.PublishPage("/metrics/push", openMetricsType,
						append(pusher.AppendOpenMetrics(nil), "# EOF\n"...))
				}
				if proc != nil {
					console.PublishJSON("/modalities", proc.ModalitiesJSON())
					console.PublishJSON("/drift", proc.DriftJSON())
				}
			}
			if o.progress {
				printProgress("", s)
			}
		}))
	}

	// Observatory push: mount the pusher on the packet tap and snapshot
	// sink (zero-perturbation seams only, so the run's bytes are identical
	// with or without it) and stream to the daemon as the run progresses.
	var pushes *pushRuns
	if o.push != "" {
		var err error
		if pushes, err = newPushRuns(o, cfg, false); err != nil {
			return err
		}
		if pusher, err = pushes.dial(0, cfg.Seed); err != nil {
			return err
		}
		cfg.Observers = append(cfg.Observers, pusher.Observer(reg))
		fmt.Fprintf(os.Stderr, "tgsim: pushing telemetry to %s as run %q\n", o.push, pusher.RunID())
	}

	res, err := scenario.Run(cfg)
	if err != nil {
		if pusher != nil {
			pusher.Abort()
		}
		return err
	}
	if proc != nil {
		// Close the stream at the true end of the run so trailing windows
		// expire exactly as far as the simulation reached, then publish the
		// final payloads (the last snapshot may predate the final flush).
		proc.Advance(cfg.Horizon + cfg.DrainTime)
		if console != nil {
			console.PublishJSON("/modalities", proc.ModalitiesJSON())
			console.PublishJSON("/drift", proc.DriftJSON())
		}
	}
	pushLoss := pushes.finish()
	endClassify := res.Phases.Region(perf.PhaseClassify)
	cl := core.NewClassifier(core.Config{LargestCores: res.LargestCores})
	results := cl.Classify(res.Central)
	rep := core.BuildReport(res.Central, results)
	endClassify()
	mod := core.ModalityTable(rep)

	// Observability exports. A truncated span buffer silently invalidates
	// every event-stream consumer (traces, analysis, tgdiff exports), so
	// dropping is loud; -strict-obs upgrades it to a failure.
	if spans != nil && spans.Dropped() > 0 {
		fmt.Fprintln(os.Stderr, strings.Repeat("*", 70))
		fmt.Fprintf(os.Stderr, "* WARNING: observability buffer overflowed: %d events DROPPED.\n", spans.Dropped())
		fmt.Fprintln(os.Stderr, "* Exported traces and analyses below are built from a truncated")
		fmt.Fprintln(os.Stderr, "* stream. Raise -obs-max-events (or use 0 for unbounded).")
		fmt.Fprintln(os.Stderr, strings.Repeat("*", 70))
	}
	for _, f := range []struct {
		path  string
		write func(io.Writer) error
	}{{o.trace, res.Central.Export}, {o.chromeTrace, spans.WriteChromeTrace}, {o.obsJSONL, spans.WriteJSONL}} {
		if f.path != "" {
			if err := writeTo(f.path, f.write); err != nil {
				return err
			}
		}
	}
	if o.obsCSV != "" && res.Sampler != nil {
		if err := os.MkdirAll(o.obsCSV, 0o755); err != nil {
			return err
		}
		for _, group := range res.Sampler.Groups() {
			if err := writeTo(filepath.Join(o.obsCSV, group+".csv"), func(w io.Writer) error {
				return res.Sampler.WriteCSV(group, w)
			}); err != nil {
				return err
			}
		}
	}
	if o.export != "" {
		man := &regress.Manifest{
			Seed:         cfg.Seed,
			LargestCores: res.LargestCores,
			EndTimeS:     float64(cfg.Horizon + cfg.DrainTime),
		}
		if err := regress.WriteRunDir(o.export, reg, spans, res.Central, man); err != nil {
			return err
		}
		if err := writeTo(filepath.Join(o.export, regress.ModalityFile), mod.WriteText); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "tgsim: run exported to %s (diff runs with tgdiff, replay with -replay)\n", o.export)
	}

	out := newTableSink(o.csvDir)
	if o.quiet {
		fmt.Printf("jobs=%d NUs=%.0f users=%d events=%d\n",
			len(res.Central.Jobs()), res.Central.TotalNUs(),
			res.Central.DistinctUsers(), res.Kernel.Executed())
	} else if err := printReport(out, o.analysis, res, results, mod, proc, spans, sloEval); err != nil {
		return err
	}

	// After the report, quiet or not: kernel profile, console
	// hold/shutdown, and the strict-observability verdict.
	if res.Phases != nil {
		fmt.Println()
		fmt.Println(res.Phases.Summary())
		out.table("", res.Phases.PhaseTable())
		fmt.Println()
		out.table("", res.Phases.BreakdownTable())
	}
	if out.err != nil {
		return out.err
	}
	if console != nil {
		if o.httpHold {
			fmt.Fprintln(os.Stderr, "tgsim: -http-hold: run console serving the final snapshot; interrupt (ctrl-C) to exit")
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			<-ctx.Done()
			stop()
		}
		if err := console.Close(2 * time.Second); err != nil {
			return err
		}
	}
	if o.strictObs && spans != nil && spans.Dropped() > 0 {
		return withCode(exitObsLoss,
			fmt.Errorf("-strict-obs: span buffer dropped %d events", spans.Dropped()))
	}
	return pushVerdict(pushLoss, o.strictObs)
}

// printReport prints the single-run measurement report.
func printReport(out *tableSink, withAnalysis bool, res *scenario.Result, results []core.Result,
	mod *report.Table, proc *stream.Processor, spans *obs.Buffer, sloEval *slo.Evaluator) error {
	cfg := res.Config
	fmt.Printf("tgsim: %s federation, %d cores, %.1f simulated days, policy=%s, seed=%d\n",
		res.Federation.Name, res.Federation.TotalCores(),
		float64(cfg.Horizon/des.Day), cfg.Policy, cfg.Seed)
	fmt.Printf("jobs finished: %d   NUs charged: %s   kernel events: %d\n\n",
		res.Finished, report.FormatFloat(res.Central.TotalNUs()), res.Kernel.Executed())

	// Mechanism breakdown (what accounting saw before modality work).
	mech := report.NewTable("Usage by submission mechanism",
		"mechanism", "jobs", "NUs", "accounts")
	for _, r := range core.MechanismReport(res.Central) {
		mech.AddRowf(r.Mechanism, r.Jobs, r.NUs, r.AccountUsers)
	}
	out.table("mechanism", mech)
	fmt.Println()

	// Modality breakdown (the contribution).
	out.table("modality", mod)
	fmt.Println()

	// Streaming observatory summary (only on -stream runs).
	if proc != nil {
		dr := proc.Drift()
		fmt.Printf("Stream: %d records ingested; online drift %.3f over %d scored jobs\n\n",
			proc.Ingested(), dr.Rate, dr.Events)
	}

	// Validation against ground truth.
	conf := core.Validate(res.Central, results)
	val := report.NewTable("Classifier validation vs ground truth",
		"modality", "precision", "recall", "F1")
	for _, label := range core.ModalityLabels() {
		val.AddRowf(label, fmt.Sprintf("%.3f", conf.Precision(label)),
			fmt.Sprintf("%.3f", conf.Recall(label)),
			fmt.Sprintf("%.3f", conf.F1(label)))
	}
	val.AddRowf("OVERALL ACCURACY", "", "", fmt.Sprintf("%.3f", conf.Accuracy()))
	out.table("validation", val)
	fmt.Println()

	// Gateway visibility.
	v := core.MeasureGatewayVisibility(res.Central)
	fmt.Printf("Gateway visibility: %d jobs, %d community accounts hide %d end users\n\n",
		v.GatewayJobs, v.CommunityAccounts, v.RecoveredEndUsers)

	// Usage by field of science.
	fields := report.NewTable("Usage by field of science", "field", "jobs", "NUs", "projects")
	for i, r := range core.FieldReport(res.Central) {
		if i >= 8 {
			break // top consumers only; the tail is in the CSV exports
		}
		fields.AddRowf(r.Field, r.Jobs, r.NUs, r.Projects)
	}
	out.table("fields", fields)
	fmt.Println()

	// Machine utilization.
	util := report.NewTable("Machine utilization", "machine", "cores", "utilization", "preemptions")
	for _, m := range res.Federation.Machines() {
		s := res.Schedulers[m.ID]
		util.AddRowf(m.ID, m.BatchCores(), report.Percent(s.Utilization()), int(s.Stats().Preemptions))
	}
	out.table("machines", util)

	// Fault-injection summary (only on -faults runs).
	if res.Faults != nil {
		st := res.Faults.Stats()
		fmt.Printf("\nFaults: %d crashes (%d jobs killed), %d node failures (%d killed), "+
			"%d link degrades, %d partitions, %d gateway flaps\n",
			st.MachineCrashes, st.CrashKills, st.NodeFailures, st.NodeKills,
			st.LinkDegrades, st.LinkPartitions, st.GatewayFlaps)
		fmt.Printf("Resilience: %d failovers, %d requeues, %d gateway retries, "+
			"%d transfer restarts, %d give-ups\n",
			st.Failovers, st.Requeues, st.GatewayRetries, st.TransferRestarts, st.GiveUps)
	}

	// Wait decomposition and critical paths (the trace-analysis layer).
	if withAnalysis {
		fmt.Println()
		ts, err := analysis.Reconstruct(spans.Events())
		if err != nil {
			return err
		}
		out.table("decomposition", analysis.DecompositionTable(analysis.Decompose(ts)))
		if ts.Incomplete > 0 || ts.UnattributedTransfers > 0 {
			fmt.Printf("(%d jobs still queued or running at trace end; %d transfers not job-bound)\n",
				ts.Incomplete, ts.UnattributedTransfers)
		}
		fmt.Println()
		out.table("critical_paths", analysis.CriticalPathTable(analysis.CriticalPaths(res.Central.Jobs(), res.Central.Syms()), 10))
	}

	// SLO conformance.
	if sloEval != nil {
		fmt.Println()
		out.table("slo", sloEval.Table())
		if failed := sloEval.Failed(); len(failed) > 0 {
			fmt.Printf("SLO objectives MISSED: %s\n", strings.Join(failed, ", "))
		}
	}
	return out.err
}

// runFleet executes -reps replications in parallel and prints the
// cross-replication tables: fleet summary, per-modality usage with 95%
// confidence intervals, and per-mechanism usage with CIs. With -progress
// each replication streams per-worker progress lines; with -push every
// replication is pushed to the observatory daemon as its own run. cfg is
// the base seed's scenario, already built, so flag errors surfaced before
// any worker started.
func runFleet(o *options, cfg scenario.Config) error {
	var pushes *pushRuns
	if o.push != "" {
		var err error
		if pushes, err = newPushRuns(o, cfg, true); err != nil {
			return err
		}
	}
	var progressMu sync.Mutex
	spec := fleet.Spec{
		Reps: o.reps, Parallel: o.parallel, BaseSeed: o.seed,
		Build: func(seed uint64) scenario.Config {
			cfg, err := o.scenarioConfig(seed)
			if err != nil {
				panic(err) // the base seed built; the fleet reports a panic as the rep's error
			}
			return cfg
		},
	}
	if o.progress || pushes != nil {
		spec.Observe = func(rep int, seed uint64, reg *telemetry.Registry) []scenario.Observer {
			var obs []scenario.Observer
			// Progress first, pusher second: the pusher composes with (never
			// replaces) an existing snapshot sink, so both see every snapshot.
			if o.progress {
				obs = append(obs, scenario.StreamSnapshots(func(s *telemetry.Snapshot) {
					progressMu.Lock()
					defer progressMu.Unlock()
					printProgress(fmt.Sprintf("[rep %02d seed %d] ", rep, seed), s)
				}))
			}
			if pushes != nil {
				if p, err := pushes.dial(rep, seed); err != nil {
					fmt.Fprintf(os.Stderr, "tgsim: fleet rep %d: push: %v\n", rep, err)
				} else {
					obs = append(obs, p.Observer(reg))
				}
			}
			return obs
		}
	}
	res, err := fleet.Run(spec)
	if o.progress {
		fmt.Fprintf(os.Stderr, "\r\x1b[K") // clear any partial status line
	}
	pushLoss := pushes.finish()
	if res == nil {
		return err
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tgsim: fleet:", err)
		err = withCode(exitFleetPartial,
			fmt.Errorf("fleet: %d of %d replications failed", len(res.Reps)-res.Succeeded(), len(res.Reps)))
	}
	if verr := pushVerdict(pushLoss, o.strictObs); verr != nil {
		return verr
	}

	if o.export != "" {
		if werr := regress.WriteRunDir(o.export, res.Merged, nil, nil, nil); werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "tgsim: merged fleet metrics exported to %s\n", o.export)
	}

	if o.quiet {
		fmt.Printf("reps=%d ok=%d workers=%d events=%d wall=%.3fs events_per_sec=%.0f\n",
			len(res.Reps), res.Succeeded(), res.Workers,
			res.TotalEvents(), res.Wall, res.EventsPerSec())
		return err
	}
	out := newTableSink(o.csvDir)
	out.table("fleet", res.SummaryTable())
	fmt.Println()
	out.table("modality_ci", res.ModalityTable())
	fmt.Println()
	out.table("mechanism_ci", res.MechanismTable())
	if out.err != nil {
		return out.err
	}
	return err
}

// pushRuns is the -push lifecycle shared by single runs and fleet
// replications: dial one pusher per run, finish them all at the end of
// virtual time, and fold what they lost into one verdict.
type pushRuns struct {
	o       *options
	fleet   bool
	largest int
	endTime float64
	mu      sync.Mutex
	pushers []*observatory.Pusher
	failed  int // fleet replications that could not connect
}

func newPushRuns(o *options, cfg scenario.Config, fleet bool) (*pushRuns, error) {
	largest, err := scenario.LargestBatchCores(cfg)
	if err != nil {
		return nil, err
	}
	return &pushRuns{o: o, fleet: fleet, largest: largest, endTime: float64(cfg.Horizon + cfg.DrainTime)}, nil
}

// dial connects one run to the daemon. Fleet replication rep gets a -rNN
// suffix on its run ID (base "fleet" by default) and spill path.
func (ps *pushRuns) dial(rep int, seed uint64) (*observatory.Pusher, error) {
	h := observatory.Hello{Run: ps.o.pushID, Seed: seed, LargestCores: ps.largest, EndTimeS: ps.endTime, Source: "tgsim"}
	opts := observatory.DefaultPushOptions()
	opts.SpillPath = ps.o.pushSpill
	if ps.fleet {
		if h.Run == "" {
			h.Run = "fleet"
		}
		h.Run, h.Source = fmt.Sprintf("%s-r%02d", h.Run, rep), "fleet"
		if opts.SpillPath != "" {
			opts.SpillPath = fmt.Sprintf("%s-r%02d", opts.SpillPath, rep)
		}
	}
	opts.Retry.MaxAttempts = ps.o.pushRetry
	if ps.o.pushRetry <= 0 {
		opts.Retry.MaxAttempts = -1 // single-shot: no reconnection
	}
	p, err := observatory.DialPush(ps.o.push, h, opts)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err != nil {
		ps.failed++
		return nil, err
	}
	ps.pushers = append(ps.pushers, p)
	return p, nil
}

// finish closes every pusher at the end of virtual time, reports the
// disconnects they survived, and returns the first loss: a failed finish,
// a lossy run, or a fleet replication that never connected. A nil
// pushRuns (no -push) has nothing to finish.
func (ps *pushRuns) finish() error {
	if ps == nil {
		return nil
	}
	var loss error
	var reconnects, replayed, lost uint64
	for _, p := range ps.pushers {
		err := p.Finish(ps.endTime)
		st := p.Stats()
		if err == nil && p.Lossy() {
			who := "push"
			if ps.fleet {
				who = "run " + p.RunID()
			}
			err = fmt.Errorf("%s lost %d packet frames", who, st.PacketsLost)
		}
		if loss == nil {
			loss = err
		}
		reconnects, replayed, lost = reconnects+st.Reconnects, replayed+st.Replayed, lost+st.PacketsLost
	}
	switch {
	case reconnects > 0 && ps.fleet:
		fmt.Fprintf(os.Stderr, "tgsim: observatory push survived %d disconnect(s) across the fleet: %d frame(s) replayed\n",
			reconnects, replayed)
	case reconnects > 0:
		fmt.Fprintf(os.Stderr, "tgsim: observatory push survived %d disconnect(s): %d frame(s) replayed, %d lost\n",
			reconnects, replayed, lost)
	}
	if loss == nil && ps.failed > 0 {
		loss = fmt.Errorf("%d of %d replications could not connect", ps.failed, ps.failed+len(ps.pushers))
	}
	return loss
}

// pushVerdict folds a push loss into the run's outcome: exit code 3 under
// -strict-obs, a warning otherwise.
func pushVerdict(loss error, strict bool) error {
	if loss == nil {
		return nil
	}
	if strict {
		return withCode(exitObsLoss, fmt.Errorf("-strict-obs: daemon-side record incomplete: %w", loss))
	}
	fmt.Fprintf(os.Stderr, "tgsim: WARNING: observatory push incomplete: %v\n", loss)
	return nil
}

// printProgress overwrites the live stderr status line with s, ending the
// line once the run is done.
func printProgress(prefix string, s *telemetry.Snapshot) {
	end := ""
	if s.Done {
		end = "\n"
	}
	fmt.Fprintf(os.Stderr, "\r\x1b[K%s%s%s", prefix, s.Line(), end)
}

// tableSink is where every report table goes: printed to stdout and, with
// -csv-dir, saved as <csv-dir>/<name>.csv. The first error sticks; later
// tables are skipped and err reports it.
type tableSink struct {
	csvDir string
	err    error
}

func newTableSink(csvDir string) *tableSink {
	out := &tableSink{csvDir: csvDir}
	if csvDir != "" {
		out.err = os.MkdirAll(csvDir, 0o755)
	}
	return out
}

// table prints t and saves it under name; an empty name prints only.
func (out *tableSink) table(name string, t *report.Table) {
	if out.err != nil {
		return
	}
	out.err = t.WriteText(os.Stdout)
	if out.err == nil && out.csvDir != "" && name != "" {
		out.err = writeTo(filepath.Join(out.csvDir, name+".csv"), t.WriteCSV)
	}
}

// startProfiles starts the requested runtime profiles and returns the stop
// function that flushes them: the CPU profile stops and closes, then the
// heap profile is captured after a forced GC so it reflects live objects.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpu *os.File
	if cpuPath != "" {
		var err error
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if memPath != "" {
			runtime.GC()
			if err := writeTo(memPath, pprof.WriteHeapProfile); err != nil {
				fmt.Fprintln(os.Stderr, "tgsim: -memprofile:", err)
			}
		}
	}, nil
}

// writeTo creates path, hands it to write, and closes it, reporting the
// first error.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
