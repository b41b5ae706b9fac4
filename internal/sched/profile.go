package sched

import (
	"fmt"

	"github.com/tgsim/tgmod/internal/des"
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

// profileRelease is one running job's contribution to a built profile: its
// cores come back at end.
type profileRelease struct {
	end   des.Time
	cores int
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
// rectangle fits entirely within the profile. Candidate start times are the
// profile's step points (free cores only increase at job completions, so
// checking steps is sufficient). One binary search finds the segment of the
// first candidate; after that the scan index only moves forward: on a
// violation at segment v the next candidate is the start of segment v+1,
// and no segment is examined twice, so a call is linear in the number of
// segments. The search always terminates because the final segment extends
// to infinity; if cores never fit there the capacity is simply too small
// and the caller must reject the job beforehand.
func (p *profile) earliestFit(from des.Time, cores int, duration des.Time) (des.Time, bool) {
	if duration <= 0 {
		duration = 1
	}
	cand := from
	if cand < p.points[0].t {
		cand = p.points[0].t
	}
	i := p.segmentIndex(cand)
	for end := cand + duration; i < len(p.points) && p.points[i].t < end; i++ {
		if p.points[i].free >= cores {
			continue
		}
		if i+1 >= len(p.points) {
			// The violating segment extends to infinity.
			return 0, false
		}
		cand = p.points[i+1].t
		end = cand + duration
	}
	return cand, true
}
