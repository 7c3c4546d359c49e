package game

import (
	"fmt"

	"rhmd/internal/core"
	"rhmd/internal/dataset"
	"rhmd/internal/hmd"
	"rhmd/internal/par"
	"rhmd/internal/prog"
	"rhmd/internal/rng"
)

// PoolRetrainResult is the outcome of one online pool retraining round.
type PoolRetrainResult struct {
	// Pool is the retrained RHMD: the same specs, switching policy and
	// key as the base pool, with every base detector retrained on the
	// replay corpus. Its fingerprint differs from the base pool's
	// exactly when the trained parameters changed.
	Pool *core.RHMD
	// Benign and Malware count the corpus programs per class.
	Benign, Malware int
}

// RetrainPool retrains every base detector of a pool against a replay
// corpus of labeled programs — the online counterpart of the paper's §6
// retraining defense, used by internal/driftguard when live drift
// fires. The pool shape is preserved (same specs at the same positions,
// same switching probabilities, same key), so the result is always a
// valid Engine.SwapPool candidate. All stochastic choices derive from
// cfg.Seed; cfg.Algo/Kind/Period/InjectCount are not consulted (the
// specs come from the base pool).
func RetrainPool(base *core.RHMD, corpus []*prog.Program, traceLen int, cfg Config) (*PoolRetrainResult, error) {
	if base == nil || base.Size() == 0 {
		return nil, fmt.Errorf("game: RetrainPool needs a non-empty base pool")
	}
	benign, malware := split(corpus)
	if len(benign) == 0 || len(malware) == 0 {
		return nil, fmt.Errorf("game: RetrainPool corpus needs both classes (%d benign, %d malware)",
			len(benign), len(malware))
	}
	maxPeriod := 0
	for _, d := range base.Detectors {
		if d.Spec.Period > maxPeriod {
			maxPeriod = d.Spec.Period
		}
	}
	if traceLen < maxPeriod {
		return nil, fmt.Errorf("game: RetrainPool traceLen %d shorter than the pool's largest period %d",
			traceLen, maxPeriod)
	}

	// One pass over the corpus extracts every period the pool uses;
	// detectors of the same period share it regardless of feature kind
	// (MultiWindowData holds every kind).
	periods := make([]int, len(base.Detectors))
	for i, d := range base.Detectors {
		periods[i] = d.Spec.Period
	}
	data, err := dataset.ExtractWindows(corpus, periods, traceLen)
	if err != nil {
		return nil, fmt.Errorf("game: extracting replay windows: %w", err)
	}

	// Per-detector training seeds come off the seeded stream in
	// detector order, so the whole round is a pure function of (base,
	// corpus, cfg); the detectors then train concurrently.
	r := rng.NewKeyed(cfg.Seed, "game-retrain-pool")
	seeds := make([]uint64, len(base.Detectors))
	for i := range seeds {
		seeds[i] = r.Uint64()
	}
	newDets := make([]*hmd.Detector, len(base.Detectors))
	err = par.Each(len(base.Detectors), func(i int) error {
		d := base.Detectors[i]
		nd, err := hmd.Train(d.Spec, data[d.Spec.Period].Get(d.Spec.Kind), seeds[i])
		if err != nil {
			return fmt.Errorf("game: retraining detector %d (%s): %w", i, d.Spec, err)
		}
		newDets[i] = nd
		return nil
	})
	if err != nil {
		return nil, err
	}

	pool, err := core.NewWeighted(newDets, base.Probs, base.Key)
	if err != nil {
		return nil, fmt.Errorf("game: rebuilding retrained pool: %w", err)
	}
	return &PoolRetrainResult{
		Pool:    pool,
		Benign:  len(benign),
		Malware: len(malware),
	}, nil
}
