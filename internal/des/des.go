// Package des implements a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a future-event list (a 4-ary
// indexed min-heap over pooled event nodes; see heap.go). Events are
// callbacks scheduled at absolute or relative virtual times. Ties in event
// time are broken by scheduling order (a monotonically increasing sequence
// number), which makes every simulation run fully deterministic for a given
// seed and scenario.
//
// The kernel is intentionally single-threaded: discrete-event simulations
// are dominated by fine-grained causally ordered events, and a sequential
// event loop with a good heap outperforms speculative parallel execution at
// the scales this repository targets (tens of millions of events). The
// package is nevertheless safe to use from multiple kernels concurrently;
// each Kernel is independent — that property is what internal/fleet builds
// on to run many seeded replications in parallel.
package des

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, measured in seconds since the start of
// the simulation. Durations are plain float64 seconds.
type Time float64

// Common virtual-time durations, in seconds.
const (
	Second Time = 1
	Minute Time = 60
	Hour   Time = 3600
	Day    Time = 24 * Hour
	Week   Time = 7 * Day
	Year   Time = 365 * Day
)

// Forever is a time later than any event the kernel will ever execute.
const Forever Time = Time(math.MaxFloat64)

// String renders the time as d:hh:mm:ss for readability in traces, with a
// millisecond suffix (d:hh:mm:ss.mmm) when the value has a fractional part
// — sub-second event times would otherwise all render as 0:00:00:00.
func (t Time) String() string {
	if t == Forever {
		return "forever"
	}
	neg := ""
	if t < 0 {
		neg, t = "-", -t
	}
	s := int64(t)
	ms := int64((float64(t)-float64(s))*1000 + 0.5)
	if ms >= 1000 {
		s++
		ms = 0
	}
	d := s / 86400
	s -= d * 86400
	h := s / 3600
	s -= h * 3600
	m := s / 60
	s -= m * 60
	if ms > 0 {
		return fmt.Sprintf("%s%d:%02d:%02d:%02d.%03d", neg, d, h, m, s, ms)
	}
	return fmt.Sprintf("%s%d:%02d:%02d:%02d", neg, d, h, m, s)
}

// Handler is the callback type executed when an event fires. The kernel
// passes itself so handlers can schedule follow-on events without capturing
// the kernel in every closure.
type Handler func(k *Kernel)

// ErrEventBacklog is the sentinel matched by errors.Is when a run fails
// because the future-event list exceeded the configured pending limit —
// the DES equivalent of an unbounded queue: some component is scheduling
// events faster than virtual time can retire them. Fleet workers use it to
// fail a replication cleanly instead of draining a hot loop forever.
var ErrEventBacklog = errors.New("event backlog: future-event list exceeded pending limit")

// BacklogError is the concrete error returned by Run/RunUntil when the
// pending limit is breached. It unwraps to ErrEventBacklog and records
// where the simulation stood when the limit was hit.
type BacklogError struct {
	At      Time // virtual time of the event being executed at the breach
	Pending int  // future-event-list size that tripped the limit
	Limit   int  // the configured limit
}

func (e *BacklogError) Error() string {
	return fmt.Sprintf("des: event backlog at t=%v: %d events pending exceeds limit %d", e.At, e.Pending, e.Limit)
}

// Unwrap makes errors.Is(err, ErrEventBacklog) true.
func (e *BacklogError) Unwrap() error { return ErrEventBacklog }

// eventNode is one pooled future-event-list entry. Nodes are recycled onto
// the kernel's free list when they fire or are canceled; gen is bumped on
// every recycle so stale Timer handles become inert instead of aliasing
// whatever event reuses the node.
type eventNode struct {
	at    Time
	seq   uint64
	index int32  // heap index, -1 once fired or canceled
	gen   uint32 // incremented each time the node is recycled
	fn    Handler
	name  string
}

// Timer is a cancelable handle to a scheduled event. It is a small value
// (copy it freely); the zero value is a valid, never-pending timer. A
// handle held past its event's firing or cancellation stays safe: the
// underlying pooled node's generation moves on, and Pending/Cancel on the
// stale handle simply report false.
type Timer struct {
	n   *eventNode
	gen uint32
}

// Pending reports whether the event is still scheduled.
func (t Timer) Pending() bool {
	return t.n != nil && t.gen == t.n.gen && t.n.index >= 0
}

// Name returns the debug name attached at scheduling time, or "" once the
// event has fired or been canceled.
func (t Timer) Name() string {
	if t.n == nil || t.gen != t.n.gen {
		return ""
	}
	return t.n.name
}

// Tracer receives a notification for every event executed by the kernel.
// It is intended for debugging and for building event-frequency statistics;
// production scenarios leave it nil.
type Tracer interface {
	Event(at Time, name string)
}

// StepObserver is an optional Tracer extension. When an attached tracer
// also implements it, the kernel calls AfterEvent once the event's handler
// has returned, passing the pending-event count — enough to measure
// per-event wall-clock cost and future-event-list pressure from outside
// the kernel. The implementation check happens once, at AddTracer time, so
// a kernel with only plain tracers never calls AfterEvent.
type StepObserver interface {
	AfterEvent(at Time, name string, pending int)
}

// OpProfiler is an optional Tracer extension for kernel self-profiling at
// phase granularity. When an attached tracer also implements it, the
// kernel reports the wall-clock cost of its own bookkeeping separately
// from handler execution: BeforeStep fires when the kernel begins retiring
// an event (before the future-event-list pop, so the window from
// BeforeStep to Tracer.Event is pure FEL/dispatch cost), and FELOp reports
// the measured duration of each heap mutation a Schedule/At/Cancel call
// performs. Like StepObserver the implementation check happens once, at
// AddTracer time; uninstrumented runs pay one length check per schedule
// and per step. Timing FEL ops costs two clock reads per heap mutation, so
// an attached OpProfiler slows the kernel — it is a profiling tool, not a
// production tracer — but it never touches virtual time or event order,
// so profiled runs stay byte-identical to plain ones.
type OpProfiler interface {
	// BeforeStep fires before the kernel pops the next event.
	BeforeStep()
	// FELOp reports the wall duration of one heap push or remove.
	FELOp(d time.Duration)
}

// Kernel is a discrete-event simulation engine. The zero value is ready to
// use; New is provided for symmetry and future options.
type Kernel struct {
	now          Time
	seq          uint64
	heap         []*eventNode
	free         []*eventNode // recycled nodes awaiting reuse
	executed     uint64
	stopped      bool
	tracers      []Tracer
	after        []StepObserver
	ops          []OpProfiler
	maxPending   int
	pendingLimit int   // 0 = unlimited
	err          error // sticky; set on backlog breach
}

// New returns a ready-to-run kernel with the clock at zero.
func New() *Kernel { return &Kernel{} }

// AddTracer attaches tr to the kernel's event tracers; a nil tr is
// ignored. Tracers are called in the order they were added. If tr also
// implements StepObserver, AfterEvent fires after each handler returns; if
// it also implements OpProfiler, the kernel times its own FEL operations
// and reports each duration to every attached profiler.
func (k *Kernel) AddTracer(tr Tracer) {
	if tr == nil {
		return
	}
	k.tracers = append(k.tracers, tr)
	if so, ok := tr.(StepObserver); ok {
		k.after = append(k.after, so)
	}
	if op, ok := tr.(OpProfiler); ok {
		k.ops = append(k.ops, op)
	}
}

// SetPendingLimit bounds the future-event list. When a Schedule/At call
// pushes the pending count past limit, the kernel records a BacklogError,
// stops after the in-flight handler returns, and Run/RunUntil report the
// error. A limit of zero (the default) disables the check.
func (k *Kernel) SetPendingLimit(limit int) { k.pendingLimit = limit }

// Err returns the sticky kernel error (a *BacklogError), or nil.
func (k *Kernel) Err() error { return k.err }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Executed returns the number of events executed so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// Pending returns the number of events currently scheduled.
func (k *Kernel) Pending() int { return len(k.heap) }

// MaxPending returns the future-event-list high-water mark: the largest
// number of simultaneously pending events observed so far.
func (k *Kernel) MaxPending() int { return k.maxPending }

// alloc returns a recycled event node, or a fresh one when the pool is
// empty. Nodes are allocated in small batches so a cold kernel does not pay
// one garbage-collected allocation per scheduled event.
func (k *Kernel) alloc() *eventNode {
	if n := len(k.free); n > 0 {
		nd := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return nd
	}
	batch := make([]eventNode, 16)
	for i := 1; i < len(batch); i++ {
		k.free = append(k.free, &batch[i])
	}
	return &batch[0]
}

// recycle invalidates outstanding Timer handles to n and returns it to the
// pool. The handler reference is dropped so the pool does not pin closures.
func (k *Kernel) recycle(n *eventNode) {
	n.fn = nil
	n.name = ""
	n.gen++
	k.free = append(k.free, n)
}

// Schedule arranges for fn to run after delay seconds of virtual time and
// returns a cancelable handle. A negative delay is treated as zero.
// Scheduling panics if fn is nil.
func (k *Kernel) Schedule(delay Time, fn Handler) Timer {
	return k.ScheduleNamed(delay, "", fn)
}

// ScheduleNamed is Schedule with a debug name recorded in traces.
func (k *Kernel) ScheduleNamed(delay Time, name string, fn Handler) Timer {
	if delay < 0 {
		delay = 0
	}
	return k.AtNamed(k.now+delay, name, fn)
}

// At arranges for fn to run at absolute virtual time t. Times in the past
// are clamped to the current time (the event fires after all events already
// scheduled at the current time).
func (k *Kernel) At(t Time, fn Handler) Timer {
	return k.AtNamed(t, "", fn)
}

// AtNamed is At with a debug name recorded in traces.
func (k *Kernel) AtNamed(t Time, name string, fn Handler) Timer {
	if fn == nil {
		panic("des: Schedule called with nil handler")
	}
	if t < k.now {
		t = k.now
	}
	n := k.alloc()
	n.at = t
	n.seq = k.seq
	n.fn = fn
	n.name = name
	k.seq++
	if len(k.ops) > 0 {
		t0 := time.Now()
		k.heapPush(n)
		k.felOp(time.Since(t0))
	} else {
		k.heapPush(n)
	}
	if len(k.heap) > k.maxPending {
		k.maxPending = len(k.heap)
		if k.pendingLimit > 0 && len(k.heap) > k.pendingLimit && k.err == nil {
			k.err = &BacklogError{At: k.now, Pending: len(k.heap), Limit: k.pendingLimit}
			k.stopped = true
		}
	}
	return Timer{n: n, gen: n.gen}
}

// Cancel removes a pending event. Canceling an already-fired or
// already-canceled timer is a harmless no-op. Cancel reports whether the
// event was actually removed.
func (k *Kernel) Cancel(t Timer) bool {
	if !t.Pending() {
		return false
	}
	if len(k.ops) > 0 {
		t0 := time.Now()
		k.heapRemove(int(t.n.index))
		k.felOp(time.Since(t0))
	} else {
		k.heapRemove(int(t.n.index))
	}
	k.recycle(t.n)
	return true
}

// felOp reports one timed heap mutation to every attached profiler.
func (k *Kernel) felOp(d time.Duration) {
	for _, op := range k.ops {
		op.FELOp(d)
	}
}

// Step executes the single next event, advancing the clock to its time.
// It reports false when no events remain.
func (k *Kernel) Step() bool {
	if len(k.heap) == 0 {
		return false
	}
	for _, op := range k.ops {
		op.BeforeStep()
	}
	n := k.heapPopMin()
	k.now = n.at
	fn, name := n.fn, n.name
	// Recycle before running the handler: the generation bump makes any
	// handle to this firing event inert, so the node can be reused by
	// whatever the handler schedules next.
	k.recycle(n)
	k.executed++
	for _, tr := range k.tracers {
		tr.Event(k.now, name)
	}
	fn(k)
	for _, so := range k.after {
		so.AfterEvent(k.now, name, len(k.heap))
	}
	return true
}

// Run executes events until the event list is empty or the pending limit
// is breached. It returns the kernel error (nil, or a *BacklogError
// matching ErrEventBacklog).
func (k *Kernel) Run() error {
	if k.err != nil {
		return k.err
	}
	k.stopped = false
	for !k.stopped && k.Step() {
	}
	return k.err
}

// RunUntil executes events with timestamps at or before limit, then sets
// the clock to limit (if the simulation did not already pass it). Events
// scheduled after limit remain pending. Like Run it returns the kernel
// error, if any.
func (k *Kernel) RunUntil(limit Time) error {
	if k.err != nil {
		return k.err
	}
	k.stopped = false
	for !k.stopped && len(k.heap) > 0 && k.heap[0].at <= limit {
		k.Step()
	}
	if k.now < limit {
		k.now = limit
	}
	return k.err
}

// EveryNamed schedules fn to run repeatedly with the given period, starting
// after one period, for as long as the kernel runs; name is recorded in
// traces on every tick. A period of zero or less panics: a zero-period
// ticker would live-lock the kernel.
func (k *Kernel) EveryNamed(period Time, name string, fn Handler) {
	if period <= 0 {
		panic("des: EveryNamed called with non-positive period")
	}
	var tick Handler
	tick = func(k *Kernel) {
		fn(k)
		k.ScheduleNamed(period, name, tick)
	}
	k.ScheduleNamed(period, name, tick)
}
