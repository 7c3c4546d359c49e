package core

import (
	"fmt"

	"rhmd/internal/features"
	"rhmd/internal/hmd"
	"rhmd/internal/prog"
)

// Ensemble is the deterministic alternative the paper contrasts RHMD
// against (§9.1, after Khasawneh et al., RAID 2015): the same diverse
// base detectors, but every window is classified by ALL of them and the
// decisions are combined by majority vote. "Since ensemble classifiers
// are deterministic, they can be reverse engineered and evaded" — the
// ablation experiment in internal/experiments tests exactly that claim
// against the randomized RHMD built from the identical pool.
type Ensemble struct {
	// Detectors is the base pool; all must share one collection period
	// (the ensemble evaluates every member on every window).
	Detectors []*hmd.Detector
}

// NewEnsemble validates and wraps the pool.
func NewEnsemble(detectors []*hmd.Detector) (*Ensemble, error) {
	if len(detectors) == 0 {
		return nil, fmt.Errorf("core: ensemble needs at least one detector")
	}
	for i, d := range detectors {
		if d == nil {
			return nil, fmt.Errorf("core: nil detector at index %d", i)
		}
	}
	period := detectors[0].Spec.Period
	for _, d := range detectors {
		if d.Spec.Period != period {
			return nil, fmt.Errorf("core: ensemble members must share a period (%d vs %d)",
				d.Spec.Period, period)
		}
	}
	return &Ensemble{Detectors: detectors}, nil
}

// Size returns the pool size.
func (e *Ensemble) Size() int { return len(e.Detectors) }

// String summarizes the ensemble.
func (e *Ensemble) String() string {
	s := "Ensemble{"
	for i, d := range e.Detectors {
		if i > 0 {
			s += ", "
		}
		s += d.Spec.String()
	}
	return s + "}"
}

// decideWindowAll applies the majority vote to one window's raw feature
// vectors (indexed by kind).
func (e *Ensemble) decideWindowAll(rows [features.NumKinds][]float64) int {
	votes := 0
	for _, d := range e.Detectors {
		votes += d.DecideWindow(rows[d.Spec.Kind])
	}
	if 2*votes >= len(e.Detectors) {
		return 1
	}
	return 0
}

// DecideTrace implements the same black-box query surface as
// hmd.Detector and RHMD: per-window majority decisions.
func (e *Ensemble) DecideTrace(p *prog.Program, traceLen int) ([]hmd.WindowDecision, error) {
	ws, err := features.Extract(p, e.Detectors[0].Spec.Period, traceLen)
	if err != nil {
		return nil, err
	}
	out := make([]hmd.WindowDecision, ws.Windows)
	for i := 0; i < ws.Windows; i++ {
		var rows [features.NumKinds][]float64
		for _, k := range features.AllKinds() {
			rows[k] = ws.Rows(k)[i]
		}
		out[i] = hmd.WindowDecision{
			Start:    ws.Bounds[i][0],
			End:      ws.Bounds[i][1],
			Decision: e.decideWindowAll(rows),
		}
	}
	return out, nil
}

// DetectTraced applies the program-level hmd.Majority rule to the
// ensemble's window decisions.
func (e *Ensemble) DetectTraced(p *prog.Program, traceLen int) (bool, error) {
	dec, err := e.DecideTrace(p, traceLen)
	if err != nil {
		return false, err
	}
	return hmd.Majority(dec), nil
}
