// Package obs is the simulator's observability layer: structured span and
// instant events for job lifecycles, scheduler decisions, data transfers,
// gateway sessions and maintenance windows (exportable as Chrome
// trace-event JSON or JSONL); and virtual-time metric sampling into
// metrics.TimeSeries with CSV export. Wall-clock kernel profiling lives in
// internal/perf.
//
// The layer is strictly opt-in: a run without a span buffer attached
// installs no span hooks, so it pays nothing.
package obs

import (
	"github.com/tgsim/tgmod/internal/des"
)

// Event phases, mirroring the Chrome trace-event format ("ph" field).
// Spans use the async begin/end pair correlated by (Cat, ID) so that
// overlapping lifecycles on one track (many jobs on one machine) render
// correctly in Perfetto.
const (
	PhaseBegin   byte = 'b' // async span begin
	PhaseEnd     byte = 'e' // async span end
	PhaseInstant byte = 'i' // instantaneous event
)

// KV is one ordered key/value argument attached to an event. Args are a
// slice, not a map, so serialization order — and therefore exported trace
// bytes — is deterministic.
type KV struct {
	Key   string
	Value any // string, int, int64, or float64
}

// Event is one observability record.
type Event struct {
	At    des.Time // virtual time
	Phase byte     // PhaseBegin, PhaseEnd, or PhaseInstant
	Cat   string   // category: "job", "sched", "net", "gateway", "maint"
	Name  string   // event or span name within the category
	Track string   // rendered as a named thread/track (machine ID, "wan", ...)
	ID    int64    // async span correlation id (job ID, transfer ID); 0 for instants
	Args  []KV     // optional ordered arguments
}

// Arg returns the value recorded under key and whether it was present.
// Linear scan: args are short (≤ 6 entries at every call site).
func (ev Event) Arg(key string) (any, bool) {
	for _, a := range ev.Args {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// ArgString returns the string recorded under key ("" when absent or not a
// string).
func (ev Event) ArgString(key string) string {
	v, ok := ev.Arg(key)
	if !ok {
		return ""
	}
	s, _ := v.(string)
	return s
}

// ArgInt returns the integer recorded under key. Events decoded from JSONL
// may carry numeric args as float64; integral floats coerce losslessly.
func (ev Event) ArgInt(key string) (int64, bool) {
	v, ok := ev.Arg(key)
	if !ok {
		return 0, false
	}
	switch x := v.(type) {
	case int:
		return int64(x), true
	case int64:
		return x, true
	case uint64:
		return int64(x), true
	case float64:
		if x == float64(int64(x)) {
			return int64(x), true
		}
	}
	return 0, false
}

// Buffer is the in-memory span sink. Events are appended in execution
// order, which the single-threaded kernel makes deterministic. A nil
// *Buffer records nothing, so call sites need no guards of their own.
type Buffer struct {
	events []Event
}

// NewBuffer returns an empty buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// Record appends ev. Recording into a nil buffer is a no-op.
func (b *Buffer) Record(ev Event) {
	if b == nil {
		return
	}
	b.events = append(b.events, ev)
}

// Begin records an async span begin.
func (b *Buffer) Begin(at des.Time, cat, name, track string, id int64, args ...KV) {
	b.Record(Event{At: at, Phase: PhaseBegin, Cat: cat, Name: name, Track: track, ID: id, Args: args})
}

// End records an async span end matching a prior Begin with the same
// (cat, name, id).
func (b *Buffer) End(at des.Time, cat, name, track string, id int64, args ...KV) {
	b.Record(Event{At: at, Phase: PhaseEnd, Cat: cat, Name: name, Track: track, ID: id, Args: args})
}

// Instant records a zero-duration event.
func (b *Buffer) Instant(at des.Time, cat, name, track string, args ...KV) {
	b.Record(Event{At: at, Phase: PhaseInstant, Cat: cat, Name: name, Track: track, Args: args})
}

// Len returns the number of recorded events.
func (b *Buffer) Len() int { return len(b.events) }

// Events returns the recorded events in execution order. The slice is the
// buffer's backing store; callers must not mutate it.
func (b *Buffer) Events() []Event { return b.events }
