package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/experiments"
	"github.com/tgsim/tgmod/internal/fleet"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/observatory"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/sched"
	"github.com/tgsim/tgmod/internal/stream"
	"github.com/tgsim/tgmod/internal/workload"
)

// Scenario families. A family plus a scenario seed fixes a simulation's
// inputs exactly.
const (
	familyQuarter         = "quarter"                 // scenario.New: 90 d + 14 d drain, default mix, EASY
	familyQuick           = "quick"                   // experiments.StandardOptions(Quick): 14 d + 4 d drain
	familyConsFaults      = "conservative-faults"     // quarter mix without the broker, conservative, faults, checkpoints
	familyConsFaultsSmoke = "conservative-faults-14d" // the same over 14 d + 4 d drain
)

// pinnedSeed is the scenario seed of quarter and conservative-faults. Their
// cost is set by whether some machine's queue blows up, which the seed
// decides: across scenario seeds 1-14 one quarter takes 1.3 s to 39.7 s on
// a 2-core x86-64 host (README.md). No run short enough for this benchmark
// can average that out, so both workloads replay the seed-7 scenario whose
// anchors the repository already pins, and --seed varies the inputs of
// fleet-quick and obsd-ingest only.
const pinnedSeed = 7

// buildConfig returns the scenario of a family at a seed.
func buildConfig(family string, seed uint64) scenario.Config {
	switch family {
	case familyQuick:
		return scenario.New(seed, experiments.StandardOptions(experiments.Quick)...)
	case familyConsFaults, familyConsFaultsSmoke:
		var gens []workload.Generator
		for _, g := range scenario.DefaultGenerators() {
			if _, broker := g.(*workload.MetaschedGen); !broker {
				gens = append(gens, g)
			}
		}
		opts := []scenario.Option{
			scenario.WithGenerators(gens...),
			scenario.WithPolicy("conservative"),
			scenario.WithFaultIntensity(1),
			scenario.WithCheckpointRestart(15*des.Minute, 0),
		}
		if family == familyConsFaultsSmoke {
			opts = append(opts, scenario.WithHorizon(14*des.Day), scenario.WithDrain(4*des.Day))
		}
		return scenario.New(seed, opts...)
	}
	return scenario.New(seed)
}

// largestCores is the batch-core count of the federation's largest machine,
// which the stream processor and the daemon need before a run starts.
func largestCores() (int, error) {
	fed, err := scenario.TG9()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, m := range fed.Machines() {
		n = max(n, m.BatchCores())
	}
	return n, nil
}

func renderTable(rep *core.Report) []byte {
	var b bytes.Buffer
	core.ModalityTable(rep).WriteText(&b) // a bytes.Buffer write cannot fail
	return b.Bytes()
}

// probe is a zero-event workload generator: it schedules nothing and draws
// no random numbers, so a run with it is identical to one without. It
// captures the run's schedulers so the tracer can read queue depths while
// the simulation runs and, when counting, chains a decision probe that
// counts backfill starts.
type probe struct {
	scheds    []*sched.Scheduler
	count     bool
	backfills uint64
}

func (p *probe) Name() string { return "bench-probe" }

func (p *probe) Start(e *workload.Env) {
	for _, id := range e.Machines() {
		s := e.Sched[id]
		p.scheds = append(p.scheds, s)
		if !p.count {
			continue
		}
		prev := s.Probe
		s.Probe = func(kind string, j *job.Job) {
			if kind == sched.ProbeBackfill {
				p.backfills++
			}
			if prev != nil {
				prev(kind, j)
			}
		}
	}
}

func (p *probe) queueDepth() int {
	n := 0
	for _, s := range p.scheds {
		n += s.QueueLen()
	}
	return n
}

// checks counts passes and failures of each correctness check over a run and
// prints the first failure of each check to stderr. Fleet workers and push
// connections record concurrently.
type checks struct {
	mu    sync.Mutex
	names []string
	pass  map[string]int
	fail  map[string]int
}

func newChecks() *checks { return &checks{pass: map[string]int{}, fail: map[string]int{}} }

func (c *checks) expect(name string, ok bool, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pass[name] == 0 && c.fail[name] == 0 {
		c.names = append(c.names, name)
	}
	if ok {
		c.pass[name]++
		return true
	}
	if c.fail[name] == 0 {
		fmt.Fprintf(os.Stderr, "tgbench: check %s failed: %s\n", name, fmt.Sprintf(format, args...))
	}
	c.fail[name]++
	return false
}

// summary returns each check's tally, in first-seen order, and the total
// number of failures.
func (c *checks) summary() ([]checkCount, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []checkCount
	failures := 0
	for _, name := range c.names {
		out = append(out, checkCount{Name: name, Passed: c.pass[name], Failed: c.fail[name]})
		failures += c.fail[name]
	}
	return out, failures
}

// checkRun applies the per-simulation checks that need only the result:
// every finished job reached the central database once, nothing was
// ingested twice, and pinned anchors reproduce exactly.
func checkRun(ck *checks, family string, seed uint64, res *scenario.Result) bool {
	jobs := len(res.Central.Jobs())
	ok := ck.expect("jobs_equal_finished", jobs == res.Finished,
		"%s seed %d: %d central jobs, %d finished", family, seed, jobs, res.Finished)
	ok = ck.expect("no_duplicate_records", res.Central.Duplicates() == 0,
		"%s seed %d: %d duplicate records", family, seed, res.Central.Duplicates()) && ok
	if want, pinned := anchors[family][seed]; pinned {
		got := anchor{res.Kernel.Executed(), jobs, int64(math.Round(res.Central.TotalNUs()))}
		ok = ck.expect("anchors", got == want, "%s seed %d: events/jobs/NUs %d/%d/%d, want %d/%d/%d",
			family, seed, got.events, got.jobs, got.nus, want.events, want.jobs, want.nus) && ok
	}
	return ok
}

// simOp is one simulation with the bench's attachments: a stream processor
// fed by the accounting packet tap, the probe generator and, when traced,
// the kernel tracer.
type simOp struct {
	proc    *stream.Processor
	probe   *probe
	trace   *opTrace
	kt      *kernelTracer
	records float64
}

func newSimOp(largest int, trace *opTrace) *simOp {
	return &simOp{
		proc:  stream.New(stream.Config{LargestCores: largest}),
		probe: &probe{count: trace != nil},
		trace: trace,
	}
}

// attach adds the probe generator and the observers to cfg.
func (o *simOp) attach(cfg *scenario.Config) {
	cfg.Generators = append(append([]workload.Generator(nil), cfg.Generators...), o.probe)
	cfg.Observers = append(cfg.Observers, scenario.TapPackets(o.tap))
	if o.trace != nil {
		o.kt = newKernelTracer(o.trace, o.probe)
		cfg.Observers = append(cfg.Observers, scenario.TraceKernel(o.kt))
	}
}

func (o *simOp) tap(at des.Time, p *accounting.Packet) {
	if o.kt == nil {
		o.proc.OfferPacket(at, p)
		return
	}
	a0 := o.trace.allocs.read()
	t0 := time.Now()
	o.proc.OfferPacket(at, p)
	d := time.Since(t0)
	o.kt.child("stream.offer", lStream, t0, d, o.trace.allocs.read()-a0)
	o.records += float64(len(p.Jobs) + len(p.Transfers) + len(p.GatewayAttrs) + len(p.Storage))
}

// ran closes the kernel trace as soon as the simulation returns, so later
// bench work is not charged to the simulation's layers.
func (o *simOp) ran() {
	if o.kt != nil {
		o.kt.close()
	}
}

// streamTable finalizes the stream and renders its modality table. The
// processor is released afterwards: the run's result still references the
// tap, and the retained-heap metric should not count bench state.
func (o *simOp) streamTable() ([]byte, error) {
	var fin *stream.Final
	var err error
	o.trace.measure("stream.finalize", lStream, func() { fin, err = o.proc.Finalize() })
	if o.trace != nil {
		o.trace.tl.count["stream.records"] += float64(o.proc.Ingested())
		o.trace.tl.count["stream.dropped"] += float64(o.proc.Dropped())
	}
	o.proc = nil
	if err != nil {
		return nil, fmt.Errorf("stream finalize: %w", err)
	}
	return renderTable(fin.Report), nil
}

// collect folds the run's layer counters into the op tally.
func (o *simOp) collect(res *scenario.Result) {
	if o.trace == nil {
		return
	}
	c := o.trace.tl.count
	c["metasched.routed"] += float64(res.Broker.Routed())
	c["metasched.coallocs"] += float64(res.Broker.CoAllocations())
	c["metasched.failovers"] += float64(res.Broker.Failovers())
	for _, s := range res.Schedulers {
		st := s.Stats()
		c["sched.started"] += float64(st.Started)
		c["sched.preemptions"] += float64(st.Preemptions)
		c["sched.crash_kills"] += float64(st.CrashKills)
	}
	c["sched.backfills"] += float64(o.probe.backfills)
	if res.Faults != nil {
		fs := res.Faults.Stats()
		c["faults.requeues"] += float64(fs.Requeues)
		c["faults.give_ups"] += float64(fs.GiveUps)
	}
	c["des.events"] += float64(res.Kernel.Executed())
	c["des.peak_fel"] = max(c["des.peak_fel"], float64(res.Kernel.MaxPending()))
	c["network.transfers"] += float64(res.Fabric.Completed())
	c["accounting.records"] += o.records
	c["core.records"] += float64(len(res.Central.Jobs()))
}

// env is the state every workload shares within a run.
type env struct {
	ck      *checks
	largest int
	smoke   bool
	trace   bool
	seed    uint64
	workdir string
	width   int // fleet workers and push connections: min(2, NumCPU)
}

// batchResult is what one timed batch of ops produced.
type batchResult struct {
	ops    int
	failed int
	items  float64   // kernel events, or accounting records on obsd-ingest
	lat    []float64 // per-op latency, seconds
	keep   any       // outputs held until the retained heap is measured
}

// runner is one workload: setup prepares inputs and warms the process, and
// batch runs the n-th timed batch, traced when tr is non-nil.
type runner interface {
	setup() error
	batch(n int, tr *tracing) (batchResult, error)
}

func newRunner(name string, e *env) (runner, error) {
	switch name {
	case "quarter":
		return &simWorkload{env: e, family: familyQuarter, smokeFamily: familyQuick}, nil
	case "conservative-faults":
		return &simWorkload{env: e, family: familyConsFaults, smokeFamily: familyConsFaultsSmoke}, nil
	case "fleet-quick":
		return &fleetWorkload{env: e}, nil
	case "obsd-ingest":
		return &obsdWorkload{env: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// simWorkload is quarter or conservative-faults: each op simulates the
// pinned scenario with the stream tap attached, then finalizes the stream,
// classifies, renders the modality report and checks it. Setup runs the
// smoke-size op.
type simWorkload struct {
	env                 *env
	family, smokeFamily string
}

func (w *simWorkload) setup() error {
	_, err := w.op(w.smokeFamily, nil, 0)
	return err
}

func (w *simWorkload) batch(n int, tr *tracing) (batchResult, error) {
	family := w.family
	if w.env.smoke {
		family = w.smokeFamily
	}
	return w.op(family, tr, n)
}

func (w *simWorkload) op(family string, tr *tracing, n int) (batchResult, error) {
	trace := tr.beginOp(n, 0)
	o := newSimOp(w.env.largest, trace)
	cfg := buildConfig(family, pinnedSeed)
	o.attach(&cfg)
	start := time.Now()
	res, err := scenario.Run(cfg)
	o.ran()
	if err != nil {
		return batchResult{}, fmt.Errorf("%s: %w", family, err)
	}
	streamTable, err := o.streamTable()
	if err != nil {
		return batchResult{}, err
	}
	var results []core.Result
	trace.measure("core.classify", lCore, func() {
		results = core.NewClassifier(core.Config{LargestCores: res.LargestCores}).Classify(res.Central)
	})
	var rep *core.Report
	var batchTable []byte
	trace.measure("core.report", lCore, func() {
		rep = core.BuildReport(res.Central, results)
		batchTable = renderTable(rep)
	})
	lat := time.Since(start).Seconds()
	ok := checkRun(w.env.ck, family, pinnedSeed, res)
	ok = w.env.ck.expect("stream_table_matches_batch", bytes.Equal(streamTable, batchTable),
		"%s seed %d: stream table differs from the batch table", family, pinnedSeed) && ok
	o.collect(res)
	trace.end()
	b := batchResult{ops: 1, items: float64(res.Kernel.Executed()), lat: []float64{lat}, keep: []any{res, rep}}
	if !ok {
		b.failed = 1
	}
	return b, nil
}

// fleetWorkload is fleet-quick: each batch is one fleet.Run of quick-scale
// replications with per-rep classify and merge, a stream tap on every
// replication, and per-rep checks. Replication seeds run on from --seed, so
// rep 0 of seed 7 is the quick seed-7 anchor run.
type fleetWorkload struct {
	env *env
}

func (w *fleetWorkload) repsPerBatch() int {
	if w.env.smoke {
		return 4
	}
	return 40
}

func (w *fleetWorkload) setup() error {
	_, err := w.run(w.env.seed, 4, w.env.width, nil, 0)
	return err
}

func (w *fleetWorkload) batch(n int, tr *tracing) (batchResult, error) {
	reps := w.repsPerBatch()
	workers := w.env.width
	if w.env.trace {
		// One replication at a time in traced runs, untraced batches
		// included so the overhead compares like with like: the
		// allocation counter the tracer reads is process-wide.
		workers = 1
	}
	return w.run(w.env.seed+uint64(n*reps), reps, workers, tr, n*reps)
}

// fleetSlot is one replication's bench-side state, written only by the
// worker goroutine that runs it.
type fleetSlot struct {
	op          *simOp
	start, end  time.Time
	ok          bool
	streamTable []byte
}

func (w *fleetWorkload) run(base uint64, reps, workers int, tr *tracing, opBase int) (batchResult, error) {
	slots := make([]fleetSlot, reps)
	spec := fleet.Spec{
		Reps: reps, Parallel: workers, BaseSeed: base,
		Build: func(seed uint64) scenario.Config {
			s := &slots[seed-base]
			s.start = time.Now()
			s.op = newSimOp(w.env.largest, tr.beginOp(opBase+int(seed-base), 0))
			cfg := buildConfig(familyQuick, seed)
			s.op.attach(&cfg)
			return cfg
		},
		Inspect: func(seed uint64, res *scenario.Result) any {
			s := &slots[seed-base]
			s.op.ran()
			s.ok = checkRun(w.env.ck, familyQuick, seed, res)
			table, err := s.op.streamTable()
			s.ok = w.env.ck.expect("stream_finalize", err == nil, "quick seed %d: %v", seed, err) && s.ok
			s.streamTable = table
			s.op.collect(res)
			s.op.trace.end()
			s.op = nil
			s.end = time.Now()
			return nil
		},
	}
	start := time.Now()
	res, err := fleet.Run(spec)
	if res == nil {
		return batchResult{}, err
	}
	b := batchResult{keep: res}
	for i, r := range res.Reps {
		s := &slots[i]
		ok := w.env.ck.expect("rep_error", r.Err == nil, "quick seed %d: %v", r.Seed, r.Err)
		if r.Err == nil {
			ok = s.ok && ok
			ok = w.env.ck.expect("stream_table_matches_batch", bytes.Equal(s.streamTable, renderTable(r.Report)),
				"quick seed %d: stream table differs from the batch table", r.Seed) && ok
			b.lat = append(b.lat, s.end.Sub(s.start).Seconds())
			b.items += float64(r.Events)
		}
		b.ops++
		if !ok {
			b.failed++
		}
	}
	if tr != nil {
		tr.addNS("fleet.capacity", int64(workers)*time.Since(start).Nanoseconds())
		tr.addCount("fleet.failed", float64(reps-res.Succeeded()))
	}
	return b, nil
}

// obsdWorkload is obsd-ingest: setup records the accounting packets of a
// corpus of quick-scale runs; each timed batch starts a fresh in-process
// daemon with a write-ahead log, replays corpus runs into it through
// observatory Pushers over width concurrent loopback connections, and checks
// every finalized report byte for byte. No simulation runs in the timed part.
type obsdWorkload struct {
	env    *env
	corpus []corpusRun
}

// corpusRun is one recorded quick-scale run.
type corpusRun struct {
	seed    uint64
	packets []recordedPacket
	records float64
	end     float64
	table   []byte
}

type recordedPacket struct {
	at  des.Time
	pkt *accounting.Packet
}

func (w *obsdWorkload) sizes() (corpus, runs int) {
	if w.env.smoke {
		return 2, 4
	}
	return 8, 16
}

func (w *obsdWorkload) setup() error {
	n, _ := w.sizes()
	w.corpus = w.corpus[:0]
	for i := 0; i < n; i++ {
		seed := w.env.seed + uint64(i)
		run := corpusRun{seed: seed}
		cfg := buildConfig(familyQuick, seed)
		cfg.Observers = append(cfg.Observers, scenario.TapPackets(func(at des.Time, p *accounting.Packet) {
			run.packets = append(run.packets, recordedPacket{at, p})
			run.records += float64(len(p.Jobs) + len(p.Transfers) + len(p.GatewayAttrs) + len(p.Storage))
		}))
		res, err := scenario.Run(cfg)
		if err != nil {
			return fmt.Errorf("corpus seed %d: %w", seed, err)
		}
		checkRun(w.env.ck, familyQuick, seed, res)
		cl := core.NewClassifier(core.Config{LargestCores: res.LargestCores})
		run.table = renderTable(core.BuildReport(res.Central, cl.Classify(res.Central)))
		run.end = float64(cfg.Horizon + cfg.DrainTime)
		w.corpus = append(w.corpus, run)
	}
	// Warm the wire, daemon and WAL paths with one small untimed batch.
	_, err := w.push(-1, w.env.width, nil)
	return err
}

func (w *obsdWorkload) batch(n int, tr *tracing) (batchResult, error) {
	_, runs := w.sizes()
	return w.push(n, runs, tr)
}

// push runs one daemon lifetime: runs pushed runs over width connections.
func (w *obsdWorkload) push(n, runs int, tr *tracing) (batchResult, error) {
	dir := filepath.Join(w.env.workdir, fmt.Sprintf("obsd-%d", n+1))
	wal := filepath.Join(dir, "wal")
	if err := os.MkdirAll(wal, 0o755); err != nil {
		return batchResult{}, err
	}
	defer os.RemoveAll(dir)
	d := observatory.NewDaemon(observatory.Config{WALDir: wal})
	addr, err := d.ListenIngest("127.0.0.1:0")
	if err != nil {
		return batchResult{}, fmt.Errorf("daemon listen: %w", err)
	}
	b := batchResult{keep: d, ops: runs, lat: make([]float64, runs)}
	failed := make([]bool, runs)
	var wg sync.WaitGroup
	for c := 0; c < w.env.width; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := c; j < runs; j += w.env.width {
				op := max(n, 0)*runs + j
				b.lat[j], failed[j] = w.pushRun(d, addr, dir, fmt.Sprintf("b%d-r%d", n+1, j), w.corpus[op%len(w.corpus)], tr.beginOp(op, c))
			}
		}(c)
	}
	wg.Wait()
	if tr != nil {
		tr.addCount("observatory.wal_bytes", float64(dirBytes(wal)))
	}
	if err := d.Shutdown(5 * time.Second); err != nil {
		return batchResult{}, fmt.Errorf("daemon shutdown: %w", err)
	}
	for j := 0; j < runs; j++ {
		b.items += w.corpus[(max(n, 0)*runs+j)%len(w.corpus)].records
		if failed[j] {
			b.failed++
		}
	}
	return b, nil
}

// pushRun replays one corpus run from dial to final ack and checks the
// daemon's report. It returns the op's latency and whether it failed.
func (w *obsdWorkload) pushRun(d *observatory.Daemon, addr, dir, id string, run corpusRun, trace *opTrace) (float64, bool) {
	ck := w.env.ck
	start := time.Now()
	opts := observatory.DefaultPushOptions()
	opts.SpillPath = filepath.Join(dir, id+".spill")
	p, err := observatory.DialPush(addr, observatory.Hello{
		Run: id, Seed: run.seed, LargestCores: w.env.largest, EndTimeS: run.end, Source: "tgbench",
	}, opts)
	if !ck.expect("push_dial", err == nil, "run %s: %v", id, err) {
		return time.Since(start).Seconds(), true
	}
	var a scenario.Attachment
	p.Observer(nil).Attach(&a)
	send := a.Packets[0]
	for _, rp := range run.packets {
		trace.measure("observatory.send", lObservatory, func() { send(rp.at, rp.pkt) })
	}
	trace.measure("observatory.finish", lObservatory, func() { err = p.Finish(run.end) })
	lat := time.Since(start).Seconds()
	ok := ck.expect("push_finish", err == nil, "run %s: %v", id, err)
	ok = ck.expect("push_not_lossy", !p.Lossy(), "run %s lost %d packet frames", id, p.Stats().PacketsLost) && ok
	ok = ck.expect("daemon_report_matches_recorded", bytes.Equal(d.RunReport(p.RunID()), run.table),
		"run %s (corpus seed %d): daemon report differs from the recorded run's table", id, run.seed) && ok
	if trace != nil {
		st := p.Stats()
		c := trace.tl.count
		c["observatory.frames"] += float64(st.Packets + 1)
		c["observatory.bytes"] += float64(st.Bytes)
		c["observatory.reconnects"] += float64(st.Reconnects)
		c["observatory.replayed"] += float64(st.Replayed)
	}
	trace.end()
	return lat, !ok
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
