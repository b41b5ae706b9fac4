// Package simrand provides deterministic random-number streams and the
// statistical distributions used by the workload and network models.
//
// Every source of randomness in a scenario is a named Stream derived from a
// single scenario seed. Stream derivation hashes the name, so adding a new
// consumer of randomness does not perturb existing streams — a property
// essential for reproducible experiments and meaningful ablations.
//
// The generator is xoshiro256**, seeded via SplitMix64, both implemented
// here so the repository depends only on the standard library and so the
// sequence is stable across Go releases (math/rand's internal algorithm is
// not covered by the compatibility promise).
package simrand

import (
	"math"
)

// splitMix64 advances the state and returns the next value of the SplitMix64
// sequence, used only for seeding.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashName produces a 64-bit FNV-1a hash of s, used to derive independent
// stream seeds from human-readable names.
func hashName(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Stream is a deterministic pseudo-random number generator
// (xoshiro256**, period 2^256-1). Streams are not safe for concurrent use;
// give each concurrent consumer its own named stream.
type Stream struct {
	s [4]uint64
}

// New returns a stream seeded from the given 64-bit seed.
func New(seed uint64) *Stream {
	st := &Stream{}
	sm := seed
	for i := range st.s {
		st.s[i] = splitMix64(&sm)
	}
	return st
}

// Derive returns an independent stream for the given name, deterministically
// derived from seed. Distinct names yield uncorrelated streams.
func Derive(seed uint64, name string) *Stream {
	return New(seed ^ hashName(name))
}

// Uint64 returns the next 64 random bits.
func (r *Stream) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Float64 returns a uniform value in [0,1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0,n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("simrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + (t >> 32) + (aLo*bHi+t&mask)>>32
	return hi, lo
}

// IntRange returns a uniform integer in [lo, hi]. It panics if hi < lo.
func (r *Stream) IntRange(lo, hi int) int {
	if hi < lo {
		panic("simrand: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Bool returns true with probability p.
func (r *Stream) Bool(p float64) bool { return r.Float64() < p }

// Exp returns an exponential variate with the given rate (mean 1/rate).
func (r *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("simrand: Exp with non-positive rate")
	}
	// -log(1-U) avoids log(0) since Float64 < 1.
	return -math.Log(1-r.Float64()) / rate
}

// Normal returns a normal variate with the given mean and standard
// deviation, via the Marsaglia polar method.
func (r *Stream) Normal(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns a lognormal variate where the underlying normal has the
// given mu and sigma.
func (r *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Pareto returns a Pareto variate with the given minimum xm and tail index
// alpha. Heavy-tailed file sizes and run times use this.
func (r *Stream) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("simrand: Pareto with non-positive parameter")
	}
	return xm / math.Pow(1-r.Float64(), 1/alpha)
}

// Zipf samples integers in [1, n] with probability proportional to
// 1/rank^s. It precomputes the CDF, so construction is O(n) and sampling is
// O(log n).
type Zipf struct {
	cdf []float64
}

// NewZipf returns a Zipf sampler over [1,n] with exponent s > 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 || s <= 0 {
		panic("simrand: NewZipf with non-positive parameter")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), s)
		cdf[i-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against FP rounding
	return &Zipf{cdf: cdf}
}

// Sample draws a rank in [1, n].
func (z *Zipf) Sample(r *Stream) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// Empirical samples from a discrete distribution given by arbitrary
// non-negative weights. Index i is returned with probability
// weights[i]/sum(weights).
type Empirical struct {
	cdf []float64
}

// NewEmpirical builds a sampler from the given weights. It panics if the
// weights are empty, negative, or all zero.
func NewEmpirical(weights []float64) *Empirical {
	if len(weights) == 0 {
		panic("simrand: NewEmpirical with no weights")
	}
	cdf := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("simrand: NewEmpirical with negative weight")
		}
		sum += w
		cdf[i] = sum
	}
	if sum == 0 {
		panic("simrand: NewEmpirical with all-zero weights")
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[len(cdf)-1] = 1
	return &Empirical{cdf: cdf}
}

// Sample draws an index according to the weights.
func (e *Empirical) Sample(r *Stream) int {
	u := r.Float64()
	lo, hi := 0, len(e.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if e.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// PowerOfTwo returns 2^k where k is uniform in [loExp, hiExp]. Parallel job
// sizes cluster at powers of two; this models that directly.
func (r *Stream) PowerOfTwo(loExp, hiExp int) int {
	if hiExp < loExp {
		panic("simrand: PowerOfTwo with hiExp < loExp")
	}
	return 1 << uint(r.IntRange(loExp, hiExp))
}
