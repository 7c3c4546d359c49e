package driftguard

import (
	"context"

	"rhmd/internal/core"
	"rhmd/internal/game"
	"rhmd/internal/prog"
)

// NewGameRetrainer adapts internal/game.RetrainPool into a Retrainer:
// each drift round retrains every detector of the base pool against the
// replay corpus, preserving the pool shape (specs, switching
// probabilities, key) so the result is always a valid SwapPool
// candidate. The base pool only supplies that shape — training starts
// fresh from the corpus windows — so one base serves every round.
// Successive rounds draw fresh seeds from the same injected stream via
// the round counter, keeping the whole loop a deterministic function of
// (base, seed, traffic).
func NewGameRetrainer(base *core.RHMD, traceLen int, seed uint64) Retrainer {
	var round uint64
	return func(ctx context.Context, corpus []*prog.Program) (*core.RHMD, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		round++
		res, err := game.RetrainPool(base, corpus, traceLen, seed+round)
		if err != nil {
			return nil, err
		}
		return res.Pool, nil
	}
}
