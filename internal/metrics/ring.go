package metrics

import "github.com/tgsim/tgmod/internal/des"

// Bucket is the cell type of a Ring: a value that sums with another.
type Bucket[B any] interface{ Plus(B) B }

// Window is one trailing virtual-time window, covered by WindowBuckets
// ring buckets of Width each.
type Window struct {
	Label string
	Width des.Time
}

// WindowBuckets is the ring length of every trailing window.
const WindowBuckets = 12

// TrailingWindows are the windows the SLO burn rates and the stream's
// usage and drift views report over. The multi-window pairing (short
// detects, long confirms) follows standard burn-rate alerting practice.
var TrailingWindows = [...]Window{
	{"1h", 5 * des.Minute},
	{"6h", 30 * des.Minute},
	{"24h", 2 * des.Hour},
}

// NewWindowRing returns an empty ring over window w.
func NewWindowRing[B Bucket[B]](w Window) *Ring[B] { return NewRing[B](w.Width, WindowBuckets) }

// Ring is a fixed-size ring of buckets over virtual time. Buckets are
// absolute-indexed — bucket i covers [i·width, (i+1)·width) — so the ring
// always represents the trailing len(buckets)·width of virtual time and
// advancing is just zeroing the buckets the clock skipped over. State is
// O(buckets) regardless of event rate.
type Ring[B Bucket[B]] struct {
	width   des.Time
	buckets []B
	lastIdx int64 // absolute index of the newest bucket
	primed  bool  // false until the first access
}

// NewRing returns a ring of n buckets of the given width.
func NewRing[B Bucket[B]](width des.Time, n int) *Ring[B] {
	return &Ring[B]{width: width, buckets: make([]B, n)}
}

// idx maps a time to its absolute bucket index.
func (r *Ring[B]) idx(t des.Time) int64 { return int64(t / r.width) }

// advance rolls the ring forward to now, clearing buckets whose time span
// has rotated out. A full lap clears everything.
func (r *Ring[B]) advance(now des.Time) {
	i := r.idx(now)
	if !r.primed {
		r.primed = true
		r.lastIdx = i
		return
	}
	if i <= r.lastIdx {
		return // same bucket, or an out-of-order observation: nothing expires
	}
	steps := min(i-r.lastIdx, int64(len(r.buckets)))
	var zero B
	for s := int64(1); s <= steps; s++ {
		r.buckets[(r.lastIdx+s)%int64(len(r.buckets))] = zero
	}
	r.lastIdx = i
}

// At rolls the ring forward to now and returns the bucket covering now,
// for the caller to add one observation to.
func (r *Ring[B]) At(now des.Time) *B {
	r.advance(now)
	return &r.buckets[r.idx(now)%int64(len(r.buckets))]
}

// Total rolls the ring forward to now and returns the in-window sum, the
// buckets added in ring order.
func (r *Ring[B]) Total(now des.Time) B {
	r.advance(now)
	var t B
	for _, b := range r.buckets {
		t = t.Plus(b)
	}
	return t
}

// GoodBad counts good and bad events: the bucket of the SLO burn-rate and
// classifier-drift rings.
type GoodBad struct{ Good, Bad int64 }

// Plus returns the bucket-wise sum.
func (g GoodBad) Plus(o GoodBad) GoodBad { return GoodBad{g.Good + o.Good, g.Bad + o.Bad} }

// Add counts one event.
func (g *GoodBad) Add(good bool) {
	if good {
		g.Good++
	} else {
		g.Bad++
	}
}

// BadFrac returns the bad fraction of the counted events (0 when none).
func (g GoodBad) BadFrac() float64 {
	if g.Good+g.Bad == 0 {
		return 0
	}
	return float64(g.Bad) / float64(g.Good+g.Bad)
}
