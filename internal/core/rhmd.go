// Package core implements RHMD, the paper's primary contribution
// (§7–§8): an evasion-resilient hardware malware detector that
// stochastically switches between diverse base detectors.
//
// Each collection window is classified by one base detector chosen at
// random from the pool; the pool is diverse in feature kind and
// collection period. Because the attacker observes a mixture of
// classifiers, reverse-engineering error is bounded below by the pool's
// internal disagreement (Theorem 1, reproduced in Theorem1Bounds), and
// injection payloads tuned against any single boundary fail against the
// others.
package core

import (
	"fmt"

	"rhmd/internal/dataset"
	"rhmd/internal/features"
	"rhmd/internal/hmd"
	"rhmd/internal/par"
	"rhmd/internal/prog"
	"rhmd/internal/rng"
)

// RHMD is a pool of base detectors with a stochastic switching policy.
//
// A constructed RHMD is immutable and safe for concurrent readers: the
// sampler is a fixed alias table, every DecideTrace call derives its own
// switching stream from Key and the program seed, and trained base
// detectors are read-only at inference time. Do not mutate Detectors or
// Probs after construction.
type RHMD struct {
	// Detectors is the base pool.
	Detectors []*hmd.Detector
	// Probs[i] is the probability window decisions are delegated to
	// Detectors[i]; uniform by default.
	Probs []float64
	// Key seeds the switching PRNG. It models the hardware's secret
	// entropy source: unpredictable to the attacker, but reproducible
	// here so experiments are deterministic.
	Key uint64

	cat *rng.Categorical
}

// New builds an RHMD with uniform switching over the pool.
func New(detectors []*hmd.Detector, key uint64) (*RHMD, error) {
	probs := make([]float64, len(detectors))
	for i := range probs {
		probs[i] = 1
	}
	return NewWeighted(detectors, probs, key)
}

// NewWeighted builds an RHMD with the given (unnormalized) switching
// weights.
func NewWeighted(detectors []*hmd.Detector, weights []float64, key uint64) (*RHMD, error) {
	if len(detectors) == 0 {
		return nil, fmt.Errorf("core: RHMD needs at least one base detector")
	}
	if len(weights) != len(detectors) {
		return nil, fmt.Errorf("core: %d weights for %d detectors", len(weights), len(detectors))
	}
	for i, d := range detectors {
		if d == nil {
			return nil, fmt.Errorf("core: nil detector at index %d", i)
		}
	}
	cat, err := rng.NewCategorical(weights)
	if err != nil {
		return nil, fmt.Errorf("core: switching weights: %v", err)
	}
	return &RHMD{
		Detectors: detectors,
		Probs:     cat.Probs(),
		Key:       key,
		cat:       cat,
	}, nil
}

// Size returns the pool size.
func (r *RHMD) Size() int { return len(r.Detectors) }

// String summarizes the pool, e.g. "RHMD{lr/instructions@2000, lr/memory@2000}".
func (r *RHMD) String() string {
	s := "RHMD{"
	for i, d := range r.Detectors {
		if i > 0 {
			s += ", "
		}
		s += d.Spec.String()
	}
	return s + "}"
}

// switcher returns the per-program switching stream. Mixing the
// program's seed keeps experiments deterministic while remaining opaque
// to the attacker (who does not hold Key).
func (r *RHMD) switcher(p *prog.Program) *rng.Source {
	return rng.NewKeyed(r.Key^p.Seed, "rhmd-switch")
}

// SwitchSource exposes the per-program switching stream for serving
// layers (internal/monitor) that schedule windows themselves instead of
// going through DecideTrace. Each call returns a fresh source, so
// concurrent callers never share PRNG state.
func (r *RHMD) SwitchSource(p *prog.Program) *rng.Source {
	return r.switcher(p)
}

// LiveSampler returns a switching sampler renormalized over the subset
// of detectors with live[i] == true, keeping pool indices stable:
// quarantined detectors get weight zero and are never drawn, survivors
// keep their relative weights. Per §7 the randomized detector's accuracy
// is the (weighted) average of its live base pool, so dropping a faulty
// member and renormalizing degrades accuracy gracefully instead of
// taking the whole pool down. It returns an error when no detector is
// live.
func (r *RHMD) LiveSampler(live []bool) (*rng.Categorical, error) {
	if len(live) != len(r.Detectors) {
		return nil, fmt.Errorf("core: %d live flags for %d detectors", len(live), len(r.Detectors))
	}
	w := make([]float64, len(r.Probs))
	any := false
	for i, ok := range live {
		if ok {
			w[i] = r.Probs[i]
			any = true
		}
	}
	if !any {
		return nil, fmt.Errorf("core: no live detectors to renormalize over")
	}
	cat, err := rng.NewCategorical(w)
	if err != nil {
		return nil, fmt.Errorf("core: renormalizing live pool: %v", err)
	}
	return cat, nil
}

// DecideTrace runs the randomized detector over a program trace: each
// successive window is collected at the period of — and classified by —
// a freshly drawn base detector. It satisfies the same black-box query
// interface as a single hmd.Detector, which is exactly what the
// reverse-engineering attacker interacts with.
func (r *RHMD) DecideTrace(p *prog.Program, traceLen int) ([]hmd.WindowDecision, error) {
	src := r.switcher(p)
	var seq []int
	next := func() int {
		i := r.cat.Sample(src)
		seq = append(seq, i)
		return r.Detectors[i].Spec.Period
	}
	ws, err := features.ExtractScheduled(p, next, traceLen)
	if err != nil {
		return nil, err
	}
	out := make([]hmd.WindowDecision, ws.Windows)
	for i := 0; i < ws.Windows; i++ {
		d := r.Detectors[seq[i]]
		vec := ws.Rows(d.Spec.Kind)[i]
		out[i] = hmd.WindowDecision{
			Start:    ws.Bounds[i][0],
			End:      ws.Bounds[i][1],
			Decision: d.DecideWindow(vec),
		}
	}
	return out, nil
}

// DetectTraced applies the program-level hmd.Majority rule to the
// randomized window decisions.
func (r *RHMD) DetectTraced(p *prog.Program, traceLen int) (bool, error) {
	dec, err := r.DecideTrace(p, traceLen)
	if err != nil {
		return false, err
	}
	return hmd.Majority(dec), nil
}

// PoolSpecs builds the canonical RHMD pools the paper evaluates: the
// cross product of feature kinds and collection periods, all with the
// same (hardware-friendly) algorithm. Two features × one period, three
// features × one period, and the six-detector features × {P, P/2} pool
// of Figure 15.
func PoolSpecs(kinds []features.Kind, periods []int, algo string) []hmd.Spec {
	var out []hmd.Spec
	for _, p := range periods {
		for _, k := range kinds {
			out = append(out, hmd.Spec{Kind: k, Period: p, Algo: algo})
		}
	}
	return out
}

// TrainPool trains one base detector per spec, concurrently. data must
// hold window datasets for every period used by the specs (keyed by
// period). Detector i is trained with an independent seed derived from
// seed. On failure the error is the first failing spec's, in spec order.
func TrainPool(specs []hmd.Spec, data map[int]*dataset.MultiWindowData, seed uint64) ([]*hmd.Detector, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: no specs to train")
	}
	out := make([]*hmd.Detector, len(specs))
	err := par.Each(len(specs), func(i int) error {
		spec := specs[i]
		mw, ok := data[spec.Period]
		if !ok {
			return fmt.Errorf("core: no window data for period %d (spec %s)", spec.Period, spec)
		}
		d, err := hmd.Train(spec, mw.Get(spec.Kind), seed+uint64(i)*0x9e3779b97f4a7c15)
		out[i] = d
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// gridDecisions samples each detector's decision for one program on a
// common instruction grid, so detectors with different periods become
// comparable pointwise.
func gridDecisions(d *hmd.Detector, p *prog.Program, traceLen, step int) ([]int, error) {
	dec, err := d.DecideTrace(p, traceLen)
	if err != nil {
		return nil, err
	}
	var out []int
	limit := dec[len(dec)-1].End
	for pos := step / 2; pos < limit; pos += step {
		out = append(out, hmd.DecisionAt(dec, pos))
	}
	return out, nil
}

// DiversityReport carries the empirical quantities of Theorem 1 for a
// detector pool over an evaluation program set.
type DiversityReport struct {
	// Delta[i][j] is the pairwise disagreement Δᵢⱼ between base
	// detectors, measured pointwise on a common instruction grid.
	Delta [][]float64
	// Errors[i] is e(hᵢ): detector i's pointwise error against ground
	// truth.
	Errors []float64
	// Probs is the switching policy.
	Probs []float64
	// LowerBound is minᵢ Σⱼ pⱼ·Δᵢⱼ — the best error any single
	// pool-class surrogate can achieve against the randomized detector.
	LowerBound float64
	// UpperBound is 2·maxᵢ e(hᵢ).
	UpperBound float64
	// BaselineError is e_p = Σᵢ pᵢ·e(hᵢ), the randomized detector's own
	// error with no adversary.
	BaselineError float64
}

// Diversity measures the pool's pairwise disagreement and per-detector
// error on an evaluation set and evaluates the Theorem-1 bounds.
func Diversity(detectors []*hmd.Detector, probs []float64, programs []*prog.Program, traceLen int) (*DiversityReport, error) {
	n := len(detectors)
	if n == 0 {
		return nil, fmt.Errorf("core: empty pool")
	}
	if len(probs) != n {
		return nil, fmt.Errorf("core: %d probs for %d detectors", len(probs), n)
	}
	if len(programs) == 0 {
		return nil, fmt.Errorf("core: no evaluation programs")
	}
	step := detectors[0].Spec.Period
	for _, d := range detectors {
		if d.Spec.Period < step {
			step = d.Spec.Period
		}
	}

	rep := &DiversityReport{
		Delta:  make([][]float64, n),
		Errors: make([]float64, n),
		Probs:  append([]float64(nil), probs...),
	}
	for i := range rep.Delta {
		rep.Delta[i] = make([]float64, n)
	}

	points := 0
	for _, p := range programs {
		label := 0
		if p.Label == prog.Malware {
			label = 1
		}
		grids := make([][]int, n)
		minLen := -1
		for i, d := range detectors {
			g, err := gridDecisions(d, p, traceLen, step)
			if err != nil {
				return nil, err
			}
			grids[i] = g
			if minLen < 0 || len(g) < minLen {
				minLen = len(g)
			}
		}
		points += minLen
		for i := 0; i < n; i++ {
			for t := 0; t < minLen; t++ {
				if grids[i][t] != label {
					rep.Errors[i]++
				}
			}
			for j := i + 1; j < n; j++ {
				for t := 0; t < minLen; t++ {
					if grids[i][t] != grids[j][t] {
						rep.Delta[i][j]++
					}
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		rep.Errors[i] /= float64(points)
		for j := i + 1; j < n; j++ {
			rep.Delta[i][j] /= float64(points)
			rep.Delta[j][i] = rep.Delta[i][j]
		}
	}

	rep.LowerBound = -1
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += probs[j] * rep.Delta[i][j]
		}
		if rep.LowerBound < 0 || sum < rep.LowerBound {
			rep.LowerBound = sum
		}
	}
	maxErr := 0.0
	for i, e := range rep.Errors {
		rep.BaselineError += probs[i] * e
		if e > maxErr {
			maxErr = e
		}
	}
	rep.UpperBound = 2 * maxErr
	return rep, nil
}

// CheckBounds reports whether an observed reverse-engineering error is
// consistent with Theorem 1: ep,H must be ≥ LowerBound (no surrogate
// from the pool's hypothesis classes can do better). Observed errors
// slightly below the bound are tolerated up to eps to absorb estimation
// noise.
func (r *DiversityReport) CheckBounds(observedError, eps float64) error {
	if observedError < r.LowerBound-eps {
		return fmt.Errorf("core: observed RE error %.4f violates Theorem-1 lower bound %.4f", observedError, r.LowerBound)
	}
	return nil
}
