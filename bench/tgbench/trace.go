package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tgsim/tgmod/internal/des"
)

// Outside-in tracing. Everything here is measured by bench-owned code at the
// simulator's public seams: a des.Tracer that also implements
// des.StepObserver and des.OpProfiler (attached with scenario.TraceKernel),
// the accounting packet tap (scenario.TapPackets), and wall-clock spans
// around the bench's own calls into core, stream, fleet and observatory.
// Spans are kept in memory and written when the run ends.

// layer is a simulator layer spans are charged to.
type layer uint8

const (
	lOther layer = iota
	lMetasched
	lSched
	lFaults
	lWorkload
	lNetwork
	lAccounting
	lStream
	lCore
	lObservatory
	lOp
	numLayers
)

var layerNames = [numLayers]string{
	"other", "metasched", "sched", "faults", "workload", "network",
	"accounting", "stream", "core", "observatory", "op",
}

// eventLayers maps kernel event names to layers; the first matching prefix
// wins, and an unmatched name is charged to "other".
var eventLayers = []struct {
	prefix string
	l      layer
}{
	{"arrival-metasched", lMetasched},
	{"arrival-", lWorkload},
	{"ens-submit", lWorkload},
	{"delayed-start-", lWorkload},
	{"fault-", lFaults},
	{"xfer-", lNetwork},
	{"stage-", lNetwork},
	{"acct-flush", lAccounting},
	{"job-end", lSched},
	{"viz-end", lSched},
	{"resv-start", lSched},
	{"outage-", lSched},
	{"nodes-restore", lSched},
	{"maint-announce", lSched},
	{"resource-grant", lSched},
}

func layerOfEvent(name string) layer {
	for _, e := range eventLayers {
		if strings.HasPrefix(name, e.prefix) {
			return e.l
		}
	}
	return lOther
}

// maxSpans bounds the spans a run keeps in memory; later spans still count
// toward every per-layer total but are not written to spans.jsonl.
const maxSpans = 300000

// span is one recorded interval. Spans of one op share Op; Parent is the
// span that caused this one (0 for an op span).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int    `json:"op"`
	TID    int    `json:"tid"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tally accumulates per-layer totals: wall nanoseconds and allocated bytes
// keyed by layer or span name, and named counts.
type tally struct {
	ns    map[string]int64
	alloc map[string]uint64
	count map[string]float64
}

func newTally() tally {
	return tally{ns: map[string]int64{}, alloc: map[string]uint64{}, count: map[string]float64{}}
}

// add merges o into t. Counts named *.peak_* keep the maximum.
func (t *tally) add(o tally) {
	for k, v := range o.ns {
		t.ns[k] += v
	}
	for k, v := range o.alloc {
		t.alloc[k] += v
	}
	for k, v := range o.count {
		if strings.Contains(k, ".peak_") {
			if v > t.count[k] {
				t.count[k] = v
			}
			continue
		}
		t.count[k] += v
	}
}

// tracing is one run's trace state, shared by every traced op.
type tracing struct {
	start   time.Time
	nextID  atomic.Int64
	kept    atomic.Int64
	dropped atomic.Int64

	mu    sync.Mutex
	total tally
	spans []span
}

func newTracing(start time.Time) *tracing {
	return &tracing{start: start, total: newTally()}
}

// addNS and addCount charge run-level totals that belong to no single op.
func (r *tracing) addNS(key string, ns int64) {
	r.mu.Lock()
	r.total.ns[key] += ns
	r.mu.Unlock()
}

func (r *tracing) addCount(key string, v float64) {
	r.mu.Lock()
	r.total.count[key] += v
	r.mu.Unlock()
}

// opTrace is the trace of one op. A nil *opTrace is an untraced op: its
// methods still run the measured function but record nothing.
type opTrace struct {
	run    *tracing
	op     int
	tid    int
	id     int64
	begin  time.Time
	tl     tally
	spans  []span
	allocs *allocReader
}

// beginOp opens op number op on worker or connection tid.
func (r *tracing) beginOp(op, tid int) *opTrace {
	if r == nil {
		return nil
	}
	return &opTrace{
		run: r, op: op, tid: tid, id: r.nextID.Add(1), begin: time.Now(),
		tl: newTally(), allocs: newAllocReader(),
	}
}

// record keeps a span if the run's span budget allows and returns its ID
// (0 when the span was not kept).
func (o *opTrace) record(name string, l layer, parent int64, start time.Time, d time.Duration) int64 {
	if o.run.kept.Add(1) > maxSpans {
		o.run.dropped.Add(1)
		return 0
	}
	id := o.run.nextID.Add(1)
	o.spans = append(o.spans, span{
		ID: id, Parent: parent, Op: o.op, TID: o.tid, Layer: layerNames[l], Name: name,
		Start: start.Sub(o.run.start).Nanoseconds(), Dur: d.Nanoseconds(),
	})
	return id
}

// measure runs fn, charging its wall time and allocation to key, as a child
// span of the op in layer l.
func (o *opTrace) measure(key string, l layer, fn func()) {
	if o == nil {
		fn()
		return
	}
	a0 := o.allocs.read()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	o.tl.alloc[key] += o.allocs.read() - a0
	o.tl.ns[key] += d.Nanoseconds()
	o.record(key, l, o.id, t0, d)
}

// end closes the op span and merges the op into the run.
func (o *opTrace) end() {
	if o == nil {
		return
	}
	d := time.Since(o.begin)
	o.tl.ns["op"] += d.Nanoseconds()
	o.tl.count["ops"]++
	if o.run.kept.Add(1) <= maxSpans {
		o.spans = append(o.spans, span{
			ID: o.id, Op: o.op, TID: o.tid, Layer: layerNames[lOp], Name: "op",
			Start: o.begin.Sub(o.run.start).Nanoseconds(), Dur: d.Nanoseconds(),
		})
	} else {
		o.run.dropped.Add(1)
	}
	o.run.mu.Lock()
	o.run.total.add(o.tl)
	o.run.spans = append(o.run.spans, o.spans...)
	o.run.mu.Unlock()
}

// allocReader reads the process-wide cumulative heap allocation counter.
type allocReader [1]metrics.Sample

func newAllocReader() *allocReader {
	return &allocReader{{Name: "/gc/heap/allocs:bytes"}}
}

func (a *allocReader) read() uint64 {
	metrics.Read(a[:])
	return a[0].Value.Uint64()
}

// kernelTracer attributes one simulation's kernel time and allocation to
// layers. The window from BeforeStep to Event is the future-event-list pop;
// Event to AfterEvent is the handler, minus the heap operations it performs
// (reported through FELOp) and minus bench child spans (the packet tap).
// Allocation between two Event callbacks belongs to the earlier event's
// layer; allocation before the first event (scenario assembly) and after the
// last (the final flush) belongs to "other". The counter is process-wide, so
// traced runs keep one simulation running at a time.
type kernelTracer struct {
	op    *opTrace
	probe *probe
	names map[string]layer
	alloc *allocReader

	self  [numLayers]int64
	bytes [numLayers]uint64
	count [numLayers]uint64
	fel   int64

	queueSum float64
	step     time.Time
	evStart  time.Time
	inEvent  bool
	felIn    time.Duration
	childNS  int64
	childB   uint64
	cur      layer
	evSpan   int64
	last     uint64
}

func newKernelTracer(op *opTrace, p *probe) *kernelTracer {
	t := &kernelTracer{op: op, probe: p, names: map[string]layer{}, alloc: op.allocs}
	t.last = t.alloc.read()
	return t
}

// BeforeStep implements des.OpProfiler.
func (t *kernelTracer) BeforeStep() { t.step = time.Now() }

// FELOp implements des.OpProfiler.
func (t *kernelTracer) FELOp(d time.Duration) {
	if t.inEvent {
		t.felIn += d
	}
}

// Event implements des.Tracer.
func (t *kernelTracer) Event(at des.Time, name string) {
	now := time.Now()
	if !t.step.IsZero() {
		t.fel += now.Sub(t.step).Nanoseconds()
	}
	a := t.alloc.read()
	t.bytes[t.cur] += a - t.last - t.childB
	t.last, t.childB = a, 0
	l, ok := t.names[name]
	if !ok {
		l = layerOfEvent(name)
		t.names[name] = l
	}
	if l == lMetasched && t.probe != nil {
		t.queueSum += float64(t.probe.queueDepth())
	}
	t.cur, t.inEvent, t.felIn, t.childNS = l, true, 0, 0
	t.evStart = time.Now()
}

// AfterEvent implements des.StepObserver.
func (t *kernelTracer) AfterEvent(at des.Time, name string, pending int) {
	d := time.Since(t.evStart)
	t.self[t.cur] += d.Nanoseconds() - t.felIn.Nanoseconds() - t.childNS
	t.fel += t.felIn.Nanoseconds()
	t.count[t.cur]++
	t.evSpan = t.op.record(name, t.cur, t.op.id, t.evStart, d)
	t.inEvent = false
}

// child charges a bench span that ran inside the current event (or, outside
// any event, directly inside the op) to key, as a span in layer l.
func (t *kernelTracer) child(key string, l layer, start time.Time, d time.Duration, bytes uint64) {
	parent := t.op.id
	if t.inEvent {
		t.childNS += d.Nanoseconds()
		parent = t.evSpan
	}
	t.childB += bytes
	t.op.tl.ns[key] += d.Nanoseconds()
	t.op.tl.alloc[key] += bytes
	t.op.record(key, l, parent, start, d)
}

// close folds the tracer's per-layer arrays into the op tally.
func (t *kernelTracer) close() {
	t.bytes[lOther] += t.alloc.read() - t.last - t.childB
	for l := layer(0); l < numLayers; l++ {
		name := layerNames[l]
		if t.self[l] != 0 {
			t.op.tl.ns[name] += t.self[l]
		}
		if t.bytes[l] != 0 {
			t.op.tl.alloc[name] += t.bytes[l]
		}
		if t.count[l] != 0 {
			t.op.tl.count[name+".events"] += float64(t.count[l])
		}
	}
	t.op.tl.ns["des.fel"] += t.fel
	t.op.tl.count["metasched.queue_sum"] += t.queueSum
}

// perLayerValues derives every per-layer metric from a run's traced total.
// Time shares are over the traced ops' summed wall time.
func perLayerValues(t *tally, overhead float64) map[string]float64 {
	opNS := float64(t.ns["op"])
	frac := func(key string) float64 { return ratio(float64(t.ns[key]), opNS) }
	c := t.count
	v := map[string]float64{
		"metasched.submits":       c["metasched.events"],
		"metasched.self_frac":     frac("metasched"),
		"metasched.routed":        c["metasched.routed"],
		"metasched.coallocs":      c["metasched.coallocs"],
		"metasched.failovers":     c["metasched.failovers"],
		"metasched.alloc_bytes":   float64(t.alloc["metasched"]),
		"sched.events":            c["sched.events"],
		"sched.self_frac":         frac("sched"),
		"sched.started":           c["sched.started"],
		"sched.preemptions":       c["sched.preemptions"],
		"sched.crash_kills":       c["sched.crash_kills"],
		"sched.backfills":         c["sched.backfills"],
		"sched.alloc_bytes":       float64(t.alloc["sched"]),
		"faults.events":           c["faults.events"],
		"faults.self_frac":        frac("faults"),
		"faults.requeues":         c["faults.requeues"],
		"faults.give_ups":         c["faults.give_ups"],
		"workload.arrivals":       c["workload.events"],
		"workload.self_frac":      frac("workload"),
		"workload.alloc_bytes":    float64(t.alloc["workload"]),
		"des.events":              c["des.events"],
		"des.peak_fel":            c["des.peak_fel"],
		"des.fel_frac":            frac("des.fel"),
		"accounting.flushes":      c["accounting.events"],
		"accounting.self_frac":    frac("accounting"),
		"accounting.records":      c["accounting.records"],
		"accounting.alloc_bytes":  float64(t.alloc["accounting"]),
		"network.transfers":       c["network.transfers"],
		"network.self_frac":       frac("network"),
		"stream.offer_frac":       frac("stream.offer"),
		"stream.records":          c["stream.records"],
		"stream.dropped":          c["stream.dropped"],
		"stream.finalize_frac":    frac("stream.finalize"),
		"core.classify_frac":      frac("core.classify"),
		"core.report_frac":        frac("core.report"),
		"core.records":            c["core.records"],
		"runtime.gc_cycles":       c["runtime.gc_cycles"],
		"runtime.gc_cpu_frac":     ratio(c["runtime.gc_cpu_s"], c["runtime.cpu_s"]),
		"runtime.gc_pause_frac":   ratio(c["runtime.gc_pause_s"], c["runtime.wall_s"]),
		"fleet.worker_busy_frac":  ratio(opNS, float64(t.ns["fleet.capacity"])),
		"fleet.failed":            c["fleet.failed"],
		"observatory.send_frac":   frac("observatory.send"),
		"observatory.finish_frac": frac("observatory.finish"),
		"observatory.frames":      c["observatory.frames"],
		"observatory.bytes":       c["observatory.bytes"],
		"observatory.reconnects":  c["observatory.reconnects"],
		"observatory.replayed":    c["observatory.replayed"],
		"observatory.wal_bytes":   c["observatory.wal_bytes"],
		"trace.overhead_frac":     overhead,
	}
	if n := c["metasched.events"]; n > 0 {
		v["metasched.queue_depth_mean"] = c["metasched.queue_sum"] / n
	} else {
		v["metasched.queue_depth_mean"] = 0
	}
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerReport is one row of layers.json.
type layerReport struct {
	Layer          string   `json:"layer"`
	SelfS          float64  `json:"self_s"`
	ShareOfOps     float64  `json:"share_of_op_time"`
	ShareOfHandler float64  `json:"share_of_handler_time,omitempty"`
	Events         float64  `json:"events,omitempty"`
	AllocBytes     uint64   `json:"alloc_bytes"`
	Moves          []string `json:"moves_metrics,omitempty"`
	On             []string `json:"on_workloads,omitempty"`
}

// kernelLayers are the layers kernel event handlers are charged to; their
// self times sum to the handler time.
var kernelLayers = []layer{lMetasched, lSched, lFaults, lWorkload, lNetwork, lAccounting, lOther}

// writeTrace writes spans.jsonl, a Chrome trace (trace.json) and layers.json
// into dir.
func (r *tracing) writeTrace(dir, workload string, seed uint64, overhead float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Slice(r.spans, func(i, j int) bool { return r.spans[i].Start < r.spans[j].Start })
	if err := writeJSONLines(filepath.Join(dir, "spans.jsonl"), r.spans); err != nil {
		return err
	}
	if err := writeChrome(filepath.Join(dir, "trace.json"), r.spans); err != nil {
		return err
	}

	t := &r.total
	var handlerNS int64
	for _, l := range kernelLayers {
		handlerNS += t.ns[layerNames[l]]
	}
	keys := map[string]bool{}
	for k := range t.ns {
		keys[k] = true
	}
	for k := range t.alloc {
		keys[k] = true
	}
	delete(keys, "op")
	delete(keys, "fleet.capacity")
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	var rows []layerReport
	attributed := int64(0)
	for _, k := range names {
		attributed += t.ns[k]
		row := layerReport{
			Layer:      k,
			SelfS:      float64(t.ns[k]) / 1e9,
			ShareOfOps: ratio(float64(t.ns[k]), float64(t.ns["op"])),
			Events:     t.count[k+".events"],
			AllocBytes: t.alloc[k],
		}
		for _, l := range kernelLayers {
			if layerNames[l] == k {
				row.ShareOfHandler = ratio(float64(t.ns[k]), float64(handlerNS))
			}
		}
		if m, ok := layerMoves[layerOfMetric(k)]; ok {
			row.Moves, row.On = m.Metrics, m.Workloads
		}
		rows = append(rows, row)
	}
	doc := map[string]any{
		"workload":       workload,
		"seed":           seed,
		"traced_ops":     t.count["ops"],
		"traced_op_s":    float64(t.ns["op"]) / 1e9,
		"handler_s":      float64(handlerNS) / 1e9,
		"unattributed_s": float64(t.ns["op"]-attributed) / 1e9,
		"overhead_frac":  overhead,
		"spans_kept":     len(r.spans),
		"spans_dropped":  r.dropped.Load(),
		"layers":         rows,
		"per_layer":      perLayerValues(t, overhead),
		"layer_to_e2e":   layerMoves,
		"event_prefixes": eventLayersDoc(),
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(data, '\n'), 0o644)
}

func eventLayersDoc() map[string]string {
	out := make(map[string]string, len(eventLayers))
	for _, e := range eventLayers {
		out[e.prefix] = layerNames[e.l]
	}
	return out
}

func writeJSONLines(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeChrome writes spans as Chrome trace-event complete ("X") events,
// one track per worker or connection.
func writeChrome(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			fmt.Fprint(w, ",\n")
		}
		name, _ := json.Marshal(s.Name)
		fmt.Fprintf(w, `{"name":%s,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d,"id":%d,"parent":%d}}`,
			name, s.Layer, s.TID, float64(s.Start)/1e3, float64(s.Dur)/1e3, s.Op, s.ID, s.Parent)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
