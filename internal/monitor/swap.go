package monitor

import (
	"fmt"

	"rhmd/internal/checkpoint"
	"rhmd/internal/core"
	"rhmd/internal/obs/span"
)

// Zero-downtime pool swaps. The drift guard (internal/driftguard)
// retrains the detector pool while the engine serves; SwapPool commits
// the retrained pool as the next epoch-versioned generation:
//
//   - in-flight verdicts finish on the generation they started on
//     (process loads the poolGen pointer once per program);
//   - new submissions draw from the new generation's LiveSampler the
//     moment the pointer is published;
//   - the swap is WAL-logged (KindPoolSwap: epoch + pool fingerprint)
//     before it is published, under the same shared ckptMu hold, so a
//     snapshot capture can never land between the log and the publish —
//     after a crash, Restore rebuilds exactly the generation that was
//     serving (via Config.ResolvePool), never a torn hybrid;
//   - each generation carries a fresh health board: breakers open
//     against the old pool say nothing about the retrained one.

// poolGen is one serving generation of the detector pool: the pool
// itself, its health board (breakers + live sampler), and the epoch
// SwapPool assigned. Generations are immutable once published; the
// engine's atomic pointer is the only mutable cell.
type poolGen struct {
	epoch  uint64
	rhmd   *core.RHMD
	health *healthBoard
}

// PoolEpoch returns the serving pool generation (0 until the first
// SwapPool; increments per swap, rollbacks included).
func (e *Engine) PoolEpoch() uint64 { return e.pool.Load().epoch }

// PoolFingerprint returns the serving pool's identity hash — the value
// checkpoints and WAL swap entries carry.
func (e *Engine) PoolFingerprint() uint64 { return poolFingerprint(e.pool.Load().rhmd) }

// Pool returns the serving pool. Retrainers clone its specs, switching
// policy and key; treat it as read-only (RHMD is immutable by contract).
func (e *Engine) Pool() *core.RHMD { return e.pool.Load().rhmd }

// validateSwap checks a candidate pool against the serving one. The
// per-detector instruments (latency/weight/state/draw children) are
// position- and spec-bound at engine construction, so a swap must keep
// the pool shape: same size, same spec at every position. Retrained
// pools satisfy this by construction — only the trained parameters and
// thresholds change.
func validateSwap(old, r *core.RHMD) error {
	if r == nil || r.Size() == 0 {
		return fmt.Errorf("monitor: SwapPool needs a non-empty RHMD pool")
	}
	if r.Size() != old.Size() {
		return fmt.Errorf("monitor: SwapPool pool has %d detectors, serving pool %d (per-detector instruments are position-bound)",
			r.Size(), old.Size())
	}
	for i, d := range r.Detectors {
		if d.Spec != old.Detectors[i].Spec {
			return fmt.Errorf("monitor: SwapPool detector %d has spec %s, serving pool %s (specs are fixed across swaps)",
				i, d.Spec, old.Detectors[i].Spec)
		}
	}
	return nil
}

// SwapPool commits r as the next serving pool generation with zero
// downtime and returns the epoch it serves as. It is safe to call
// concurrently with Submit/Close/Checkpoint; concurrent swaps
// serialize. On error the old generation keeps serving untouched — in
// particular, a failed WAL append aborts the swap entirely, so the
// durable history never diverges from what actually served.
func (e *Engine) SwapPool(r *core.RHMD) (epoch uint64, err error) {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	old := e.pool.Load()
	if err := validateSwap(old.rhmd, r); err != nil {
		return 0, err
	}
	epoch = old.epoch + 1
	fp := poolFingerprint(r)

	// Each swap is its own root trace (stage "pool-swap"), flagged so
	// the tail sampler always keeps it: swaps are rare and are the first
	// thing to look at when verdict quality shifts.
	tr := e.spans.Start("pool-swap", span.StagePoolSwap)
	defer func() {
		if err != nil {
			tr.Flag(span.ReasonErrored)
			if root := tr.Root(); root != nil {
				root.Err = err.Error()
			}
		}
		tr.Flag(span.ReasonBreaker)
		tr.SetVerdict("pool-swap")
		tr.Finish()
	}()

	nh := newHealthBoard(r, failureThreshold, uint64(e.cfg.ProbeAfter))

	// Log, then publish, under one shared ckptMu hold. Checkpoint takes
	// ckptMu exclusively around capture + WAL rotation, so it can never
	// observe the gap between the two: a snapshot either ran before (the
	// swap entry lands in the fresh WAL and replays) or after (the
	// snapshot itself records the new epoch + fingerprint). Either way a
	// restore lands on exactly the old or the new generation.
	e.ckptMu.RLock()
	if e.ckpt != nil {
		if err := e.logWAL(checkpoint.KindPoolSwap, walPoolSwap{Epoch: epoch, Fingerprint: fp}); err != nil {
			e.ckptMu.RUnlock()
			return 0, fmt.Errorf("monitor: WAL-logging pool swap: %w", err)
		}
	}
	nh.attach(e.ins)
	e.pool.Store(&poolGen{epoch: epoch, rhmd: r, health: nh})
	e.ckptMu.RUnlock()

	// Detach the outgoing generation from the shared gauges: in-flight
	// verdicts against it finish harmlessly, but can no longer publish
	// retired breaker state over the serving generation's.
	old.health.retire()

	e.ins.poolSwaps.Inc()
	e.ins.poolGeneration.Set(float64(epoch))
	return epoch, nil
}

// installGen replaces the serving generation during Restore replay,
// mirroring live SwapPool semantics: fresh health board (breakers
// closed, window clock zero), gauges republished. Restore runs before
// Start on a freshly constructed engine, single-threaded, so no ckptMu
// or WAL logging is involved.
func (e *Engine) installGen(epoch uint64, r *core.RHMD) error {
	old := e.pool.Load()
	if err := validateSwap(old.rhmd, r); err != nil {
		return err
	}
	nh := newHealthBoard(r, failureThreshold, uint64(e.cfg.ProbeAfter))
	nh.attach(e.ins)
	e.pool.Store(&poolGen{epoch: epoch, rhmd: r, health: nh})
	old.health.retire()
	e.ins.poolGeneration.Set(float64(epoch))
	return nil
}
