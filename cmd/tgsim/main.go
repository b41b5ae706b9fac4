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
//	      [-stream] [-stream-buf N] [-modality-out FILE]
//	      [-replay DIR] [-replay-speed X]
//	      [-reps N] [-parallel P]
//
// With -reps N > 1 tgsim runs a replication fleet: N independent
// replications at seeds seed..seed+N-1 across P workers, reporting
// mean ± 95% CI tables instead of single-run point estimates. Per-run
// observability flags are ignored in fleet mode; -export writes the
// merged fleet metrics.
//
// With -stream the streaming modality observatory rides the run live:
// every accounting flush feeds an online classifier whose windowed usage
// and drift views the console serves at /modalities and /drift. With
// -replay DIR the same pipeline replays an exported run directory
// instead of simulating, and reproduces the original run's post-run
// modality report byte-identically (compare with -modality-out).
package main

import (
	"bytes"
	"context"
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
	err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tgsim:", err)
	}
	os.Exit(exitCode(err))
}

func run() error {
	seed := flag.Uint64("seed", 1, "scenario seed")
	days := flag.Float64("days", 30, "simulated horizon in days")
	policy := flag.String("policy", "easy", "batch policy engine: fcfs, easy, conservative, fairshare, gang, priority")
	tracePath := flag.String("trace", "", "write the accounting trace (JSON lines) to this file")
	quiet := flag.Bool("quiet", false, "suppress tables; print one summary line")
	maintDays := flag.Float64("maintenance-every", 0, "schedule recurring maintenance every N days (0 = none)")
	maintHours := flag.Float64("maintenance-hours", 8, "maintenance window length in hours")
	csvDir := flag.String("csv-dir", "", "also write every report as CSV into this directory")
	configPath := flag.String("config", "", "load the scenario from a JSON config file (overrides other scenario flags)")
	dumpConfig := flag.String("dump-config", "", "write the effective scenario config as JSON and exit")
	chromeTrace := flag.String("chrome-trace", "", "write a Chrome trace-event JSON file of job/transfer/gateway spans (open in Perfetto)")
	obsJSONL := flag.String("obs-jsonl", "", "write the span event stream as JSON lines to this file")
	obsCSV := flag.String("obs-csv", "", "write virtual-time metric CSVs (queue depth, utilization, ...) into this directory")
	obsSampleHours := flag.Float64("obs-sample-hours", 1, "metric sampling period in virtual hours (with -obs-csv)")
	obsMaxEvents := flag.Int("obs-max-events", 0, "cap the in-memory span buffer at N events (0 = unbounded); overflow is counted and dropped")
	profile := flag.Bool("profile", false, "print the kernel self-profile (wall-clock cost per event name) after the run")
	httpAddr := flag.String("http", "", "serve the live run console (dashboard /, /status JSON, /metrics OpenMetrics) on this address, e.g. :8080")
	httpHold := flag.Bool("http-hold", false, "with -http: keep serving the final snapshot after the run until interrupted")
	progress := flag.Bool("progress", false, "print a live one-line progress snapshot to stderr")
	scale := flag.String("scale", "", "run the standard measurement scenario at a scale (quick or full); overrides -days and the default workload mix")
	sloFlag := flag.Bool("slo", false, "evaluate per-modality virtual-time SLOs and print the conformance table")
	analysisFlag := flag.Bool("analysis", false, "reconstruct job timelines and print wait-decomposition and critical-path tables")
	exportDir := flag.String("export", "", "write the run's exports (metrics.om, obs.jsonl, acct.jsonl) into this directory for tgdiff")
	strictObs := flag.Bool("strict-obs", false, "exit non-zero when the span buffer dropped events")
	reps := flag.Int("reps", 1, "run a replication fleet of N seeds (seed, seed+1, ...) and report mean ± 95% CI tables")
	parallel := flag.Int("parallel", 0, "fleet worker count (with -reps; 0 = GOMAXPROCS)")
	faultsX := flag.Float64("faults", 0, "enable deterministic fault injection at this intensity (1 = nominal MTBFs, 2 = twice as often; 0 = off)")
	mtbfDays := flag.Float64("mtbf", 0, "override the machine crash MTBF in days (with -faults; 0 keeps the default)")
	checkpointMin := flag.Float64("checkpoint", 0, "checkpoint/restart every N minutes: killed and preempted jobs resume from the last checkpoint (0 = off)")
	streamFlag := flag.Bool("stream", false, "attach the streaming modality observatory: live windowed usage, online classification, and drift served at /modalities and /drift")
	streamBuf := flag.Int("stream-buf", 0, "cap the streaming ingest inbox at N records (0 = unbounded); overflow is counted, dropped, and fails -strict-obs")
	modalityOut := flag.String("modality-out", "", "write the usage-by-modality table to this file (the replay-equivalence comparison anchor)")
	replayDir := flag.String("replay", "", "replay an exported run directory through the streaming pipeline instead of simulating")
	replaySpeed := flag.Float64("replay-speed", 0, "replay pacing in virtual seconds per wall second (0 = as fast as possible)")
	push := flag.String("push", "", "stream telemetry to an observatory daemon (tgobsd) at host:port or unix:PATH; same-seed runs stay byte-identical with or without it")
	pushID := flag.String("push-id", "", "run identity to request from the observatory daemon (fleet replications get -rNN suffixes; empty = daemon-assigned)")
	pushRetry := flag.Int("push-retry", 12, "max consecutive attempts when (re)connecting to the observatory daemon before the push gives up (0 disables reconnection)")
	pushSpill := flag.String("push-spill", "", "path for the push replay spill journal (fleet replications get -rNN suffixes; empty = private temp file)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (open with go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an end-of-run heap profile to this file (open with go tool pprof)")
	pprofFlag := flag.Bool("pprof", false, "with -http: mount the net/http/pprof endpoints on the run console at /debug/pprof/")
	flag.Parse()

	// Runtime profiles wrap every mode — replay, fleet, and single runs —
	// so the profile covers exactly what the process did. Profiling only
	// reads Go runtime state: a profiled run's exports stay byte-identical
	// to an unprofiled same-seed run (CI proves this on the determinism
	// gate by profiling one leg).
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()
	if *pprofFlag && *httpAddr == "" {
		return fmt.Errorf("-pprof requires -http (the endpoints mount on the run console)")
	}

	if *replayDir != "" {
		return runReplayMode(*replayDir, *replaySpeed, *streamBuf,
			*exportDir, *modalityOut, *csvDir, *quiet)
	}

	// buildCfg rebuilds the scenario for a seed. Single runs call it once;
	// fleet mode calls it once per replication so every replication gets
	// private (stateful) workload generators.
	buildCfg := func(seed uint64) (scenario.Config, error) {
		if *configPath != "" {
			f, err := os.Open(*configPath)
			if err != nil {
				return scenario.Config{}, err
			}
			cf, err := scenario.DecodeConfigFile(f)
			f.Close()
			if err != nil {
				return scenario.Config{}, err
			}
			return cf.ToConfig()
		}
		pol, err := scenario.ParsePolicy(*policy)
		if err != nil {
			return scenario.Config{}, err
		}
		var cfg scenario.Config
		if *scale != "" {
			// The standard measurement scenario the experiments and CI use,
			// so CLI runs are directly comparable with published tables.
			var sc experiments.Scale
			switch *scale {
			case "quick":
				sc = experiments.Quick
			case "full":
				sc = experiments.Full
			default:
				return scenario.Config{}, fmt.Errorf("unknown -scale %q (want quick or full)", *scale)
			}
			cfg = experiments.StandardConfig(seed, sc)
		} else {
			cfg = scenario.New(seed,
				scenario.WithHorizon(des.Time(*days)*des.Day),
			)
			cfg.DrainTime = cfg.Horizon / 8
		}
		cfg.Policy = pol
		if *maintDays > 0 {
			cfg.MaintenanceEvery = des.Time(*maintDays) * des.Day
			cfg.MaintenanceLength = des.Time(*maintHours) * des.Hour
		}
		if *faultsX > 0 {
			fc := faults.DefaultConfig()
			fc.Intensity = *faultsX
			if *mtbfDays > 0 {
				fc.MachineMTBF = des.Time(*mtbfDays) * des.Day
			}
			cfg.Faults = fc
		}
		if *checkpointMin > 0 {
			cfg.CheckpointRestart = true
			cfg.CheckpointInterval = des.Time(*checkpointMin) * des.Minute
		}
		return cfg, nil
	}

	cfg, err := buildCfg(*seed)
	if err != nil {
		return err
	}

	if *reps > 1 {
		// Fleet mode: per-run observability flags (tracing, SLOs, the run
		// console, profiles) describe ONE kernel and do not compose across
		// N concurrent replications, so they are ignored here; -export
		// writes the merged fleet metrics instead of a single run dir.
		return runFleetMode(fleetOpts{
			reps: *reps, parallel: *parallel, baseSeed: *seed,
			buildCfg: buildCfg, baseCfg: cfg,
			quiet: *quiet, exportDir: *exportDir, csvDir: *csvDir,
			push: *push, pushID: *pushID,
			pushRetry: *pushRetry, pushSpill: *pushSpill,
			progress: *progress, strictObs: *strictObs,
		})
	}
	// Observability applies regardless of where the config came from. The
	// span buffer is needed by any consumer of the event stream: trace
	// exports, timeline analysis, and the tgdiff run-dir export.
	var spans *obs.Buffer
	if *chromeTrace != "" || *obsJSONL != "" || *analysisFlag || *exportDir != "" {
		spans = obs.NewBufferCap(*obsMaxEvents)
		cfg.Observers = append(cfg.Observers, scenario.RecordSpans(spans))
	}
	var sloEval *slo.Evaluator
	if *sloFlag {
		var err error
		if sloEval, err = slo.New(); err != nil {
			return err
		}
		cfg.Observers = append(cfg.Observers, scenario.EvaluateSLO(sloEval))
	}
	if *obsCSV != "" {
		if *obsSampleHours <= 0 {
			return fmt.Errorf("non-positive -obs-sample-hours")
		}
		cfg.Observers = append(cfg.Observers, scenario.SampleEvery(des.Time(*obsSampleHours)*des.Hour))
	}
	// -profile attaches the phase-attribution profiler (internal/perf): it
	// splits the wall clock across FEL/handler/accounting/classify phases,
	// per event name. Built unbound — scenario.Run binds the kernel during
	// assembly.
	var phases *perf.Profiler
	if *profile {
		phases = perf.New(nil)
		cfg.Observers = append(cfg.Observers, scenario.ProfilePhases(phases))
	}

	// Live telemetry: the registry feeds the run console's /metrics; the
	// snapshot sink feeds both the console and the stderr progress line.
	// Everything runs on the simulation goroutine — the HTTP server only
	// reads published immutable snapshots.
	var reg *telemetry.Registry
	var console *telemetry.Console
	if *httpAddr != "" || *progress || *exportDir != "" {
		reg = telemetry.New()
		cfg.Observers = append(cfg.Observers, scenario.LiveTelemetry(reg))
	}
	// The streaming modality observatory: a processor tapped into the
	// accounting-flush seam, classifying records online and serving
	// windowed usage and drift through the console.
	var proc *stream.Processor
	if *streamFlag {
		largest, err := largestBatchCores(cfg)
		if err != nil {
			return err
		}
		proc = stream.New(stream.Config{
			LargestCores: largest, InboxCap: *streamBuf, Registry: reg,
		})
		cfg.Observers = append(cfg.Observers, stream.Tap(proc))
	}
	if *httpAddr != "" {
		console = telemetry.NewConsole()
		if *pprofFlag {
			console.EnablePprof()
		}
		addr, err := console.Serve(*httpAddr)
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
	if console != nil || *progress {
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
		showProgress := *progress
		cfg.Observers = append(cfg.Observers, scenario.StreamSnapshots(func(s *telemetry.Snapshot) {
			if console != nil {
				var buf bytes.Buffer
				if err := reg.WriteOpenMetrics(&buf); err == nil {
					console.Update(s, buf.Bytes())
				}
				if sampler != nil {
					console.PublishPage("/metrics/runtime",
						"application/openmetrics-text; version=1.0.0; charset=utf-8",
						sampler.OpenMetrics())
				}
				if pusher != nil {
					// Wall-clock transport counters: like /metrics/runtime,
					// a console-only page the deterministic exports never see.
					console.PublishPage("/metrics/push",
						"application/openmetrics-text; version=1.0.0; charset=utf-8",
						append(pusher.AppendOpenMetrics(nil), "# EOF\n"...))
				}
				if proc != nil {
					console.PublishJSON("/modalities", proc.ModalitiesJSON())
					console.PublishJSON("/drift", proc.DriftJSON())
				}
			}
			if showProgress {
				if s.Done {
					fmt.Fprintf(os.Stderr, "\r\x1b[K%s\n", s.Line())
				} else {
					fmt.Fprintf(os.Stderr, "\r\x1b[K%s", s.Line())
				}
			}
		}))
	}

	if *dumpConfig != "" {
		cf, err := scenario.FromConfig(cfg)
		if err != nil {
			return err
		}
		f, err := os.Create(*dumpConfig)
		if err != nil {
			return err
		}
		if err := cf.Encode(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	// Observatory push: mount the pusher on the packet tap and snapshot
	// sink (zero-perturbation seams only, so the run's bytes are identical
	// with or without it) and stream to the daemon as the run progresses.
	endTime := float64(cfg.Horizon + cfg.DrainTime)
	if *push != "" {
		largest, err := largestBatchCores(cfg)
		if err != nil {
			return err
		}
		pusher, err = observatory.DialPush(*push, observatory.Hello{
			Run: *pushID, Seed: cfg.Seed, LargestCores: largest,
			EndTimeS: endTime, Source: "tgsim",
		}, pushOptions(*pushRetry, *pushSpill))
		if err != nil {
			return err
		}
		cfg.Observers = append(cfg.Observers, pusher.Observer(reg))
		fmt.Fprintf(os.Stderr, "tgsim: pushing telemetry to %s as run %q\n", *push, pusher.RunID())
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
	var pushFinishErr error
	if pusher != nil {
		pushFinishErr = pusher.Finish(endTime)
	}
	endClassify := res.Phases.Region(perf.PhaseClassify)
	cl := core.NewClassifier(core.Config{LargestCores: res.LargestCores})
	results := cl.Classify(res.Central)
	rep := core.BuildReport(res.Central, results)
	endClassify()
	mod := modalityTable(rep)
	if *modalityOut != "" {
		if err := writeTo(*modalityOut, mod.WriteText); err != nil {
			return err
		}
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
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
	}

	// The epilogue runs on every exit path after the simulation: kernel
	// profile, console hold/shutdown, and the strict-observability verdict.
	epilogue := func() error {
		if err := printProfile(res); err != nil {
			return err
		}
		if console != nil {
			if *httpHold {
				fmt.Fprintln(os.Stderr, "tgsim: -http-hold: run console serving the final snapshot; interrupt (ctrl-C) to exit")
				ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
				<-ctx.Done()
				stop()
			}
			if err := console.Close(2 * time.Second); err != nil {
				return err
			}
		}
		if *strictObs && spans != nil && spans.Dropped() > 0 {
			return withCode(exitObsLoss,
				fmt.Errorf("-strict-obs: span buffer dropped %d events", spans.Dropped()))
		}
		if *strictObs && proc != nil && proc.Dropped() > 0 {
			return withCode(exitObsLoss,
				fmt.Errorf("-strict-obs: stream inbox dropped %d records (raise -stream-buf or use 0 for unbounded)", proc.Dropped()))
		}
		if pusher != nil {
			if st := pusher.Stats(); st.Reconnects > 0 {
				fmt.Fprintf(os.Stderr, "tgsim: observatory push survived %d disconnect(s): %d frame(s) replayed, %d lost\n",
					st.Reconnects, st.Replayed, st.PacketsLost)
			}
		}
		if pusher != nil && (pushFinishErr != nil || pusher.Lossy()) {
			st := pusher.Stats()
			err := pushFinishErr
			if err == nil {
				err = fmt.Errorf("push lost %d packet frames", st.PacketsLost)
			}
			if *strictObs {
				return withCode(exitObsLoss, fmt.Errorf("-strict-obs: daemon-side record incomplete: %w", err))
			}
			fmt.Fprintf(os.Stderr, "tgsim: WARNING: observatory push incomplete: %v\n", err)
		}
		return nil
	}

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
	if spans != nil && *chromeTrace != "" {
		if err := writeTo(*chromeTrace, spans.WriteChromeTrace); err != nil {
			return err
		}
	}
	if spans != nil && *obsJSONL != "" {
		if err := writeTo(*obsJSONL, spans.WriteJSONL); err != nil {
			return err
		}
	}
	if *obsCSV != "" && res.Sampler != nil {
		if err := os.MkdirAll(*obsCSV, 0o755); err != nil {
			return err
		}
		for _, group := range res.Sampler.Groups() {
			group := group
			path := filepath.Join(*obsCSV, group+".csv")
			if err := writeTo(path, func(w io.Writer) error {
				return res.Sampler.WriteCSV(group, w)
			}); err != nil {
				return err
			}
		}
	}
	if *exportDir != "" {
		man := &regress.Manifest{
			Seed:         cfg.Seed,
			LargestCores: res.LargestCores,
			EndTimeS:     float64(cfg.Horizon + cfg.DrainTime),
		}
		if err := regress.WriteRunDir(*exportDir, reg, spans, res.Central, man); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "tgsim: run exported to %s (diff runs with tgdiff, replay with -replay)\n", *exportDir)
	}

	var saveCSV func(name string, t *report.Table) error
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		saveCSV = func(name string, t *report.Table) error {
			f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
			if err != nil {
				return err
			}
			if err := t.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
	} else {
		saveCSV = func(string, *report.Table) error { return nil }
	}

	if *quiet {
		fmt.Printf("jobs=%d NUs=%.0f users=%d events=%d\n",
			len(res.Central.Jobs()), res.Central.TotalNUs(),
			res.Central.DistinctUsers(), res.Kernel.Executed())
		return epilogue()
	}

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
	if err := mech.WriteText(os.Stdout); err != nil {
		return err
	}
	if err := saveCSV("mechanism", mech); err != nil {
		return err
	}
	fmt.Println()

	// Modality breakdown (the contribution).
	if err := mod.WriteText(os.Stdout); err != nil {
		return err
	}
	if err := saveCSV("modality", mod); err != nil {
		return err
	}
	fmt.Println()

	// Streaming observatory summary (only on -stream runs).
	if proc != nil {
		dr := proc.Drift()
		snap := proc.Snap()
		fmt.Printf("Stream: %d records ingested, %d dropped (inbox high water %d); "+
			"online drift %.3f over %d scored jobs\n\n",
			snap.Ingested, snap.Dropped, snap.HighWater, dr.Rate, dr.Events)
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
	if err := val.WriteText(os.Stdout); err != nil {
		return err
	}
	if err := saveCSV("validation", val); err != nil {
		return err
	}
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
	if err := fields.WriteText(os.Stdout); err != nil {
		return err
	}
	if err := saveCSV("fields", fields); err != nil {
		return err
	}
	fmt.Println()

	// Machine utilization.
	util := report.NewTable("Machine utilization", "machine", "cores", "utilization", "preemptions")
	for _, m := range res.Federation.Machines() {
		s := res.Schedulers[m.ID]
		util.AddRowf(m.ID, m.BatchCores(), report.Percent(s.Utilization()), int(s.Stats().Preemptions))
	}
	if err := util.WriteText(os.Stdout); err != nil {
		return err
	}
	if err := saveCSV("machines", util); err != nil {
		return err
	}

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
	if *analysisFlag {
		fmt.Println()
		ts, err := analysis.Reconstruct(spans.Events())
		if err != nil {
			return err
		}
		decomp := analysis.DecompositionTable(analysis.Decompose(ts))
		if err := decomp.WriteText(os.Stdout); err != nil {
			return err
		}
		if err := saveCSV("decomposition", decomp); err != nil {
			return err
		}
		if ts.Incomplete > 0 || ts.UnattributedTransfers > 0 {
			fmt.Printf("(%d jobs still queued or running at trace end; %d transfers not job-bound)\n",
				ts.Incomplete, ts.UnattributedTransfers)
		}
		fmt.Println()
		cp := analysis.CriticalPathTable(analysis.CriticalPaths(res.Central.Jobs()), 10)
		if err := cp.WriteText(os.Stdout); err != nil {
			return err
		}
		if err := saveCSV("critical_paths", cp); err != nil {
			return err
		}
	}

	// SLO conformance.
	if sloEval != nil {
		fmt.Println()
		tab := sloEval.Table()
		if err := tab.WriteText(os.Stdout); err != nil {
			return err
		}
		if err := saveCSV("slo", tab); err != nil {
			return err
		}
		if failed := sloEval.Failed(); len(failed) > 0 {
			fmt.Printf("SLO objectives MISSED: %s\n", strings.Join(failed, ", "))
		}
	}
	return epilogue()
}

// fleetOpts carries the -reps mode configuration.
type fleetOpts struct {
	reps, parallel int
	baseSeed       uint64
	buildCfg       func(uint64) (scenario.Config, error)
	// baseCfg is the already-built base-seed config; fleet-wide scenario
	// shape (horizon, federation) is read from it.
	baseCfg   scenario.Config
	quiet     bool
	exportDir string
	csvDir    string
	push      string
	pushID    string
	pushRetry int
	pushSpill string
	progress  bool
	strictObs bool
}

// pushOptions maps the -push-retry/-push-spill flags onto the pusher's
// fault-tolerance options. retry <= 0 disables reconnection outright
// (the pre-resilience single-shot behavior).
func pushOptions(retry int, spill string) observatory.PushOptions {
	o := observatory.DefaultPushOptions()
	if retry <= 0 {
		o.Retry.MaxAttempts = -1
	} else {
		o.Retry.MaxAttempts = retry
	}
	o.SpillPath = spill
	return o
}

// runFleetMode executes -reps replications in parallel and prints the
// cross-replication tables: fleet summary, per-modality usage with 95%
// confidence intervals, and per-mechanism usage with CIs. With -progress
// each replication streams per-worker progress lines; with -push every
// replication is pushed to the observatory daemon as its own run.
func runFleetMode(o fleetOpts) error {
	// Validate the configuration once, eagerly, so flag errors surface
	// before N workers each trip over them.
	if _, err := o.buildCfg(o.baseSeed); err != nil {
		return err
	}
	endTime := float64(o.baseCfg.Horizon + o.baseCfg.DrainTime)
	largest, lerr := largestBatchCores(o.baseCfg)
	if lerr != nil {
		return lerr
	}
	pushBase := o.pushID
	if pushBase == "" {
		pushBase = "fleet"
	}
	var (
		pushMu  sync.Mutex
		pushers []*observatory.Pusher
		printer *fleetProgress
	)
	if o.progress {
		printer = &fleetProgress{}
	}
	spec := fleet.Spec{
		Reps:     o.reps,
		Parallel: o.parallel,
		BaseSeed: o.baseSeed,
		Build: func(seed uint64) scenario.Config {
			cfg, err := o.buildCfg(seed)
			if err != nil {
				panic(err) // validated above; the fleet reports a panic as the rep's error
			}
			return cfg
		},
	}
	if o.progress || o.push != "" {
		spec.Observe = func(rep int, seed uint64, reg *telemetry.Registry) []scenario.Observer {
			var obs []scenario.Observer
			// Progress first, pusher second: the pusher composes with (never
			// replaces) an existing snapshot sink, so both see every snapshot.
			if printer != nil {
				obs = append(obs, scenario.StreamSnapshots(func(s *telemetry.Snapshot) {
					printer.update(rep, seed, s)
				}))
			}
			if o.push != "" {
				spill := ""
				if o.pushSpill != "" {
					spill = fmt.Sprintf("%s-r%02d", o.pushSpill, rep)
				}
				p, err := observatory.DialPush(o.push, observatory.Hello{
					Run:  fmt.Sprintf("%s-r%02d", pushBase, rep),
					Seed: seed, LargestCores: largest,
					EndTimeS: endTime, Source: "fleet",
				}, pushOptions(o.pushRetry, spill))
				if err != nil {
					fmt.Fprintf(os.Stderr, "tgsim: fleet rep %d: push: %v\n", rep, err)
				} else {
					pushMu.Lock()
					pushers = append(pushers, p)
					pushMu.Unlock()
					obs = append(obs, p.Observer(reg))
				}
			}
			return obs
		}
	}
	res, err := fleet.Run(spec)
	if printer != nil {
		printer.finish()
	}
	// All replications are done; close every push and collect losses.
	var pushLoss error
	var reconnects, replayed uint64
	for _, p := range pushers {
		if ferr := p.Finish(endTime); ferr != nil && pushLoss == nil {
			pushLoss = ferr
		} else if p.Lossy() && pushLoss == nil {
			pushLoss = fmt.Errorf("run %s lost %d packet frames", p.RunID(), p.Stats().PacketsLost)
		}
		st := p.Stats()
		reconnects += st.Reconnects
		replayed += st.Replayed
	}
	if reconnects > 0 {
		fmt.Fprintf(os.Stderr, "tgsim: observatory push survived %d disconnect(s) across the fleet: %d frame(s) replayed\n",
			reconnects, replayed)
	}
	if o.push != "" && len(pushers) < o.reps && pushLoss == nil {
		pushLoss = fmt.Errorf("%d of %d replications could not connect", o.reps-len(pushers), o.reps)
	}
	if res == nil {
		return err
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tgsim: fleet:", err)
		err = withCode(exitFleetPartial,
			fmt.Errorf("fleet: %d of %d replications failed", len(res.Reps)-res.Succeeded(), len(res.Reps)))
	}
	if pushLoss != nil {
		if o.strictObs {
			return withCode(exitObsLoss, fmt.Errorf("-strict-obs: daemon-side record incomplete: %w", pushLoss))
		}
		fmt.Fprintf(os.Stderr, "tgsim: WARNING: observatory push incomplete: %v\n", pushLoss)
	}

	if o.exportDir != "" {
		if werr := regress.WriteRunDir(o.exportDir, res.Merged, nil, nil, nil); werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "tgsim: merged fleet metrics exported to %s\n", o.exportDir)
	}

	quiet, csvDir := o.quiet, o.csvDir
	if quiet {
		fmt.Printf("reps=%d ok=%d workers=%d events=%d wall=%.3fs events_per_sec=%.0f\n",
			len(res.Reps), res.Succeeded(), res.Workers,
			res.TotalEvents(), res.Wall, res.EventsPerSec())
		return err
	}

	tables := []struct {
		name string
		t    *report.Table
	}{
		{"fleet", res.SummaryTable()},
		{"modality_ci", res.ModalityTable()},
		{"mechanism_ci", res.MechanismTable()},
	}
	for i, entry := range tables {
		if i > 0 {
			fmt.Println()
		}
		if werr := entry.t.WriteText(os.Stdout); werr != nil {
			return werr
		}
		if csvDir != "" {
			if werr := os.MkdirAll(csvDir, 0o755); werr != nil {
				return werr
			}
			if werr := writeTo(filepath.Join(csvDir, entry.name+".csv"), entry.t.WriteCSV); werr != nil {
				return werr
			}
		}
	}
	return err
}

// modalityTable renders a core modality report as the usage-by-modality
// table, delegating to the shared core rendering path so live runs,
// -modality-out, -replay, and the observatory daemon's per-run reports
// all compare identical bytes.
func modalityTable(rep *core.Report) *report.Table {
	return core.ModalityTable(rep)
}

// fleetProgress is the -reps -progress printer: replication snapshots
// arrive concurrently from worker goroutines, the latest one overwrites a
// single live status line, and each replication's completion is printed
// on its own line.
type fleetProgress struct {
	mu sync.Mutex
}

func (fp *fleetProgress) update(rep int, seed uint64, s *telemetry.Snapshot) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if s.Done {
		fmt.Fprintf(os.Stderr, "\r\x1b[K[rep %02d seed %d] %s\n", rep, seed, s.Line())
		return
	}
	fmt.Fprintf(os.Stderr, "\r\x1b[K[rep %02d seed %d] %s", rep, seed, s.Line())
}

// finish clears any partial status line once the fleet is done.
func (fp *fleetProgress) finish() {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fmt.Fprintf(os.Stderr, "\r\x1b[K")
}

// largestBatchCores resolves the classifier's capability threshold (the
// biggest machine's batch cores) from the scenario config before the run
// starts, mirroring what scenario.Run reports afterwards.
func largestBatchCores(cfg scenario.Config) (int, error) {
	fed := cfg.Federation
	if fed == nil {
		var err error
		if fed, err = scenario.TG9(); err != nil {
			return 0, err
		}
	}
	largest := 0
	for _, m := range fed.Machines() {
		if m.BatchCores() > largest {
			largest = m.BatchCores()
		}
	}
	return largest, nil
}

// printProfile renders the -profile phase attribution and the per-event
// FEL/handler split when a phase profiler was attached.
func printProfile(res *scenario.Result) error {
	if res.Phases == nil {
		return nil
	}
	fmt.Println()
	fmt.Println(res.Phases.Summary())
	if err := res.Phases.PhaseTable().WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return res.Phases.BreakdownTable().WriteText(os.Stdout)
}

// startProfiles starts the requested runtime profiles and returns the stop
// function that flushes them: the CPU profile stops and closes, then the
// heap profile is captured after a forced GC so it reflects live objects.
func startProfiles(cpuPath, memPath string) (func(), error) {
	stopCPU := func() {}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	return func() {
		stopCPU()
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tgsim: -memprofile:", err)
			return
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tgsim: -memprofile:", err)
		}
		f.Close()
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
