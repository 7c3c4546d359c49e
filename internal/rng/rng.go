// Package rng provides a deterministic, splittable pseudo-random number
// generator and the sampling distributions used throughout the RHMD
// reproduction.
//
// Every stochastic component in the repository (program synthesis, trace
// execution, classifier initialization, detector switching) draws from an
// rng.Source seeded explicitly, so experiments are reproducible
// bit-for-bit. The generator is xoshiro256**, seeded through SplitMix64,
// which is the recommended seeding procedure for the xoshiro family.
package rng

import (
	"fmt"
	"math"
)

// Source is a deterministic xoshiro256** PRNG.
//
// The zero value is not usable; construct one with New or Source.Split.
// Source is not safe for concurrent use; split one child per goroutine
// instead of sharing.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via SplitMix64. Any seed value,
// including zero, yields a well-distributed state.
func New(seed uint64) *Source {
	r := &Source{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// NewKeyed derives a Source from a seed and a string key. It is used to
// give subsystems ("trace", "corpus", "switch", ...) independent streams
// from one experiment seed without manual seed bookkeeping.
func NewKeyed(seed uint64, key string) *Source {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return New(seed ^ h)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split returns a new Source whose stream is independent of the parent's
// future output. The parent advances by one step.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn called with n=%d", n))
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	return r.Float64() < p
}

// Norm returns a normally distributed float64 with the given mean and
// standard deviation, using the Marsaglia polar method.
func (r *Source) Norm(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNorm returns a log-normally distributed value exp(Norm(mu, sigma)).
func (r *Source) LogNorm(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// IntRange returns a uniform int in [lo, hi] inclusive. Panics if hi < lo.
func (r *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic(fmt.Sprintf("rng: IntRange with lo=%d > hi=%d", lo, hi))
	}
	return lo + r.Intn(hi-lo+1)
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher–Yates shuffle over n elements using swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Jitter returns v scaled by a uniform factor in [1-frac, 1+frac].
func (r *Source) Jitter(v, frac float64) float64 {
	return v * (1 + frac*(2*r.Float64()-1))
}
