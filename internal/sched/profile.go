package sched

import (
	"fmt"
	"slices"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
)

// profile is a step function of free cores over future virtual time. It is
// the planning structure behind backfilling and advance reservations: the
// scheduler builds a profile from the guaranteed end times of running jobs
// (start + requested walltime; jobs are killed at the limit, so the
// guarantee is hard) and from committed reservations, then asks where a
// (cores, duration) rectangle first fits.
//
// The representation is a sorted slice of points; points[i].free holds from
// points[i].t (inclusive) until points[i+1].t (exclusive). The last point
// extends to infinity. Invariant: times strictly increase.
type profile struct {
	points []profilePoint
}

type profilePoint struct {
	t    des.Time
	free int
}

// profileRelease is one running batch job's contribution to a built
// profile: its cores come back at its guaranteed end.
type profileRelease struct {
	end   des.Time
	cores int
	id    job.ID
}

// rise appends a step to free cores at t, or updates the last step when it
// is already at t. Building a profile in time order uses it.
func (p *profile) rise(t des.Time, free int) {
	if last := &p.points[len(p.points)-1]; last.t == t {
		last.free = free
	} else {
		p.points = append(p.points, profilePoint{t: t, free: free})
	}
}

// copyFrom overwrites p with the points of src, reusing p's storage. It is
// how tentative planning gets a scratch copy without allocating.
func (p *profile) copyFrom(src *profile) {
	p.points = append(p.points[:0], src.points...)
}

// splitAt ensures a point exists exactly at time t (within the profile's
// domain) and returns its index. Times before the origin are clamped.
func (p *profile) splitAt(t des.Time) int {
	if t <= p.points[0].t {
		return 0
	}
	// Binary search for the segment containing t.
	lo, hi := 0, len(p.points)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.points[mid].t <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if p.points[lo].t == t {
		return lo
	}
	p.points = append(p.points, profilePoint{})
	copy(p.points[lo+2:], p.points[lo+1:])
	p.points[lo+1] = profilePoint{t: t, free: p.points[lo].free}
	return lo + 1
}

// subtract removes cores from the interval [start, end). It panics if the
// subtraction would drive any segment negative — that is a planning bug.
func (p *profile) subtract(start, end des.Time, cores int) {
	if end <= start || cores <= 0 {
		return
	}
	i := p.splitAt(start)
	var j int
	if end == des.Forever {
		j = len(p.points)
	} else {
		j = p.splitAt(end)
	}
	for k := i; k < j; k++ {
		p.points[k].free -= cores
		if p.points[k].free < 0 {
			panic(fmt.Sprintf("sched: profile overcommitted at %v: %d cores short",
				p.points[k].t, -p.points[k].free))
		}
	}
}

// capTo limits free cores to at most limit over [start, end). Unlike
// subtract it never panics: it is used for maintenance outages, which
// override whatever was planned.
func (p *profile) capTo(start, end des.Time, limit int) {
	if end <= start {
		return
	}
	i := p.splitAt(start)
	var j int
	if end == des.Forever {
		j = len(p.points)
	} else {
		j = p.splitAt(end)
	}
	for k := i; k < j; k++ {
		if p.points[k].free > limit {
			p.points[k].free = limit
		}
	}
}

// deduct removes cores from [start, end) like subtract but floors each
// segment at zero instead of panicking. It models partial node failures:
// failed nodes may transiently overlap windows the profile already blanked
// (an outage, another loss), and losing already-unavailable capacity is not
// a planning bug.
func (p *profile) deduct(start, end des.Time, cores int) {
	if end <= start || cores <= 0 {
		return
	}
	i := p.splitAt(start)
	var j int
	if end == des.Forever {
		j = len(p.points)
	} else {
		j = p.splitAt(end)
	}
	for k := i; k < j; k++ {
		p.points[k].free -= cores
		if p.points[k].free < 0 {
			p.points[k].free = 0
		}
	}
}

// segmentIndex returns the index of the segment containing t (the last
// point with time ≤ t; 0 when t precedes the origin).
func (p *profile) segmentIndex(t des.Time) int {
	if t <= p.points[0].t {
		return 0
	}
	lo, hi := 0, len(p.points)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.points[mid].t <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// minFree returns the minimum free cores over [start, end).
func (p *profile) minFree(start, end des.Time) int {
	if end <= start {
		return p.freeAt(start)
	}
	min := int(^uint(0) >> 1)
	for i := p.segmentIndex(start); i < len(p.points); i++ {
		if p.points[i].t >= end {
			break
		}
		if p.points[i].free < min {
			min = p.points[i].free
		}
	}
	return min
}

// freeAt returns the free cores at time t.
func (p *profile) freeAt(t des.Time) int {
	return p.points[p.segmentIndex(t)].free
}

// earliestFit returns the earliest time ≥ from at which a (cores, duration)
// rectangle fits entirely within the profile (see fit).
func (p *profile) earliestFit(from des.Time, cores int, duration des.Time) (des.Time, bool) {
	at, _, ok := p.fit(from, cores, duration)
	return at, ok
}

// fit returns the earliest time ≥ from at which a (cores, duration)
// rectangle fits entirely within the profile, and the index of the segment
// containing that start. Candidate start times are from (clamped to the
// origin) and the profile's later step points: free cores only increase at
// job completions, so checking steps is sufficient. One binary search finds
// the segment of the first candidate; after that the scan index only moves
// forward, so a call is linear in the number of segments. On a violation
// the whole run of segments with too few cores is skipped in one tight
// loop: every candidate inside the run overlaps its own too-small segment,
// so the next candidate that can fit is the first segment after the run.
// The search always terminates because the final segment extends to
// infinity; if cores never fit there the capacity is simply too small and
// the caller must reject the job beforehand.
func (p *profile) fit(from des.Time, cores int, duration des.Time) (des.Time, int, bool) {
	if duration <= 0 {
		duration = 1
	}
	pts := p.points
	cand := from
	if cand < pts[0].t {
		cand = pts[0].t
	}
	first := p.segmentIndex(cand)
	for i, end := first, cand+duration; i < len(pts) && pts[i].t < end; i++ {
		if pts[i].free >= cores {
			continue
		}
		for i+1 < len(pts) && pts[i+1].free < cores {
			i++
		}
		if i+1 >= len(pts) {
			// The violating run extends to infinity.
			return 0, 0, false
		}
		first = i + 1
		cand = pts[first].t
		end = cand + duration
	}
	return cand, first, true
}

// place fits a (cores, duration) rectangle at the earliest start ≥ from and
// subtracts it from the profile in the same pass, returning the start. It
// is exactly earliestFit followed by subtract(at, at+duration, cores), but
// works from the segment index fit returned: no binary searches, and at
// most two points inserted (at the start and at the end of the rectangle)
// with one shift of the tail. Like subtract it panics on an overcommit and
// commits nothing for an empty rectangle.
func (p *profile) place(from des.Time, cores int, duration des.Time) (des.Time, bool) {
	at, i, ok := p.fit(from, cores, duration)
	if !ok || duration <= 0 || cores <= 0 {
		return at, ok
	}
	end := at + duration
	pts := p.points
	n := len(pts)
	// k is the first point at or after the rectangle's end.
	k := i
	for ; k < n && pts[k].t < end; k++ {
		if pts[k].free < cores {
			panic(fmt.Sprintf("sched: profile overcommitted at %v: %d cores short",
				max(pts[k].t, at), cores-pts[k].free))
		}
	}
	ns, ne := 0, 0
	if pts[i].t < at {
		ns = 1
	}
	if end != des.Forever && (k == n || pts[k].t != end) {
		ne = 1
	}
	endFree := pts[k-1].free
	if grow := ns + ne; grow > 0 {
		pts = slices.Grow(pts, grow)[:n+grow]
		copy(pts[k+grow:], pts[k:n])
		if ns == 1 {
			copy(pts[i+2:k+1], pts[i+1:k])
			pts[i+1] = profilePoint{t: at, free: pts[i].free}
		}
		p.points = pts
	}
	for m := i + ns; m < k+ns; m++ {
		pts[m].free -= cores
	}
	if ne == 1 {
		pts[k+ns] = profilePoint{t: end, free: endFree}
	}
	return at, true
}

// planDepth is how many recent placements a planner remembers as floors.
const planDepth = 8

// planner places a sequence of rectangles into one profile, each at its
// earliest start from a common origin, and skips work with dominance
// floors. Within one plan placing only removes capacity, so a rectangle
// needing at least the cores and at least the duration of an earlier
// placement at T cannot start before T: any earlier start would also have
// fit the smaller rectangle when it was placed. T is a candidate of the
// unfloored search too (place leaves a point at every start it commits,
// or T is the origin), so starting the search at T returns exactly the
// start a search from the origin would. The last planDepth placements are
// kept in a fixed array, so a planner on the stack does not allocate.
type planner struct {
	p      *profile
	origin des.Time
	floors [planDepth]planFloor
	n      int // floors in use
	next   int // ring slot the next placement overwrites
}

// planFloor is one committed placement: nothing at least this big starts
// before at.
type planFloor struct {
	cores int
	dur   des.Time
	at    des.Time
}

// place commits a (cores, duration) rectangle at its earliest start from
// the planner's origin, as p.place(origin, cores, duration) would.
func (pl *planner) place(cores int, duration des.Time) (des.Time, bool) {
	dur := duration
	if dur <= 0 {
		dur = 1 // the duration fit searches with
	}
	from := pl.origin
	for _, f := range pl.floors[:pl.n] {
		if f.at > from && cores >= f.cores && dur >= f.dur {
			from = f.at
		}
	}
	at, ok := pl.p.place(from, cores, duration)
	if ok {
		pl.floors[pl.next] = planFloor{cores: cores, dur: dur, at: at}
		pl.next = (pl.next + 1) % planDepth
		pl.n = min(pl.n+1, planDepth)
	}
	return at, ok
}
