package core

import (
	"fmt"

	"rhmd/internal/features"
	"rhmd/internal/hmd"
	"rhmd/internal/prog"
	"rhmd/internal/rng"
)

// NonStationary implements the paper's §8.3 extension: "Resilience in
// this case may be achieved if we make the decision boundary of the RHMD
// non-stationary. This can be accomplished by having a large set of
// candidate features and periods, of which a random subset is used for
// the RHMD at any given time."
//
// A NonStationary detector holds a large candidate pool and, every
// EpochWindows windows, re-draws the ActiveSize-detector subset that the
// inner randomized switch selects from. Even an attacker who knows the
// *candidate* pool exactly cannot iteratively evade each base detector
// (the attack RHMD's fixed pool admits, §8.3), because the active subset
// it would need to enumerate moves underneath it.
type NonStationary struct {
	// Pool is the full candidate detector set.
	Pool []*hmd.Detector
	// ActiveSize is the number of detectors active in any epoch.
	ActiveSize int
	// EpochWindows is how many windows an active subset lives for.
	EpochWindows int
	// Key seeds both the subset re-draws and the per-window switch.
	Key uint64
}

// NewNonStationary validates the configuration.
func NewNonStationary(pool []*hmd.Detector, activeSize, epochWindows int, key uint64) (*NonStationary, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("core: empty candidate pool")
	}
	for i, d := range pool {
		if d == nil {
			return nil, fmt.Errorf("core: nil detector at index %d", i)
		}
	}
	if activeSize <= 0 || activeSize > len(pool) {
		return nil, fmt.Errorf("core: active size %d out of range 1..%d", activeSize, len(pool))
	}
	if epochWindows <= 0 {
		return nil, fmt.Errorf("core: epoch must be positive, got %d", epochWindows)
	}
	return &NonStationary{
		Pool:         pool,
		ActiveSize:   activeSize,
		EpochWindows: epochWindows,
		Key:          key,
	}, nil
}

// String summarizes the configuration.
func (n *NonStationary) String() string {
	return fmt.Sprintf("NonStationary{%d of %d, epoch %d windows}",
		n.ActiveSize, len(n.Pool), n.EpochWindows)
}

// DecideTrace walks the trace with the moving active subset: the window
// schedule draws a detector uniformly from the current subset, and the
// subset is re-drawn every EpochWindows windows.
func (n *NonStationary) DecideTrace(p *prog.Program, traceLen int) ([]hmd.WindowDecision, error) {
	src := rng.NewKeyed(n.Key^p.Seed, "nonstationary")
	var active []int
	redraw := func() {
		perm := src.Perm(len(n.Pool))
		active = perm[:n.ActiveSize]
	}
	redraw()

	window := 0
	var seq []int
	next := func() int {
		if window > 0 && window%n.EpochWindows == 0 {
			redraw()
		}
		window++
		i := active[src.Intn(len(active))]
		seq = append(seq, i)
		return n.Pool[i].Spec.Period
	}
	ws, err := features.ExtractScheduled(p, next, traceLen)
	if err != nil {
		return nil, err
	}
	out := make([]hmd.WindowDecision, ws.Windows)
	for i := 0; i < ws.Windows; i++ {
		d := n.Pool[seq[i]]
		out[i] = hmd.WindowDecision{
			Start:    ws.Bounds[i][0],
			End:      ws.Bounds[i][1],
			Decision: d.DecideWindow(ws.Rows(d.Spec.Kind)[i]),
		}
	}
	return out, nil
}

// DetectTraced applies the program-level hmd.Majority rule.
func (n *NonStationary) DetectTraced(p *prog.Program, traceLen int) (bool, error) {
	dec, err := n.DecideTrace(p, traceLen)
	if err != nil {
		return false, err
	}
	return hmd.Majority(dec), nil
}
