package rng

import (
	"fmt"
	"math"
)

// Categorical samples indices from a fixed discrete distribution in O(1)
// per draw using Vose's alias method. The distribution is immutable after
// construction, so one Categorical may be shared across goroutines as long
// as each uses its own Source.
type Categorical struct {
	prob  []float64 // normalized probabilities, kept for inspection
	alias []int
	cut   []float64
}

// NewCategorical builds an alias table from non-negative weights. Weights
// need not be normalized. It returns an error if no weight is positive or
// any weight is negative/NaN.
func NewCategorical(weights []float64) (*Categorical, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("rng: empty weight vector")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("rng: invalid weight %v at index %d", w, i)
		}
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("rng: all weights are zero")
	}
	if math.IsInf(total, 0) {
		// Each weight is finite but the sum overflowed; normalizing would
		// produce NaNs and a silently broken alias table.
		return nil, fmt.Errorf("rng: weight sum overflows to +Inf")
	}
	c := &Categorical{
		prob:  make([]float64, n),
		alias: make([]int, n),
		cut:   make([]float64, n),
	}
	scaled := make([]float64, n)
	for i, w := range weights {
		c.prob[i] = w / total
		scaled[i] = c.prob[i] * float64(n)
	}
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, s := range scaled {
		if s < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		c.cut[s] = scaled[s]
		c.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		c.cut[i] = 1
		c.alias[i] = i
	}
	for _, i := range small {
		c.cut[i] = 1
		c.alias[i] = i
	}
	return c, nil
}

// MustCategorical is NewCategorical that panics on error; for use with
// literal weight tables known to be valid.
func MustCategorical(weights []float64) *Categorical {
	c, err := NewCategorical(weights)
	if err != nil {
		panic(err)
	}
	return c
}

// Sample draws one index distributed according to the weight table.
func (c *Categorical) Sample(r *Source) int {
	i := r.Intn(len(c.cut))
	if r.Float64() < c.cut[i] {
		return i
	}
	return c.alias[i]
}

// Len returns the number of categories.
func (c *Categorical) Len() int { return len(c.prob) }

// Prob returns the normalized probability of category i.
func (c *Categorical) Prob(i int) float64 { return c.prob[i] }

// Probs returns a copy of the normalized probability vector.
func (c *Categorical) Probs() []float64 {
	out := make([]float64, len(c.prob))
	copy(out, c.prob)
	return out
}

// Dirichlet draws a random probability vector from a symmetric-ish
// Dirichlet distribution whose mean is base (must sum to ~1) and whose
// concentration is alpha: larger alpha keeps draws near base, smaller
// alpha spreads them. Gamma variates use the Marsaglia–Tsang method.
func Dirichlet(r *Source, base []float64, alpha float64) []float64 {
	out := make([]float64, len(base))
	total := 0.0
	for i, b := range base {
		shape := b * alpha
		if shape < 1e-3 {
			shape = 1e-3
		}
		g := gamma(r, shape)
		out[i] = g
		total += g
	}
	if total == 0 {
		copy(out, base)
		return out
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

// gamma draws a Gamma(shape, 1) variate (Marsaglia–Tsang, with the
// shape<1 boost).
func gamma(r *Source, shape float64) float64 {
	if shape < 1 {
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return gamma(r, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Norm(0, 1)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
