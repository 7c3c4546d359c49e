package monitor

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"rhmd/internal/checkpoint"
	"rhmd/internal/core"
	"rhmd/internal/obs"
	"rhmd/internal/obs/span"
)

// Durability. The paper's RHMD lives in hardware, where the detector's
// state — switching weights, quarantine status, cumulative accounting —
// survives power events. This file gives the software engine the same
// property through internal/checkpoint: a periodic snapshot of the
// engine's state plus a write-ahead log of the events between
// snapshots.
//
// The recovery contract, enforced by the crash-injection and
// kill-restart tests:
//
//   - every verdict the engine has delivered (a Report handed to the
//     Results consumer) is durable before it is visible: the committer
//     fsyncs the batch holding the verdict's WAL record before it sends
//     the report, so a consumer-observed count is always recoverable;
//   - every breaker transition that changed the live pool (quarantine
//     or restore, with its weight renormalization) is WAL-logged, so a
//     restored engine resumes with the same degraded switching
//     distribution it died with;
//   - restore rebuilds cumulative Stats, breaker states and the live
//     sampler exactly as snapshot + replay; only sub-verdict detail
//     (per-detector latency histograms, retry counters since the last
//     snapshot) is approximate, restored to the snapshot's values.
//     Counters are raised to the checkpointed totals, not added to: a
//     successor engine on a registry that still carries its
//     predecessor's series (a restarted fleet shard) continues them.
//
// Exactness comes from ckptMu: verdict batches and breaker transitions
// take it shared (append WAL + increment counters as one unit), the
// snapshot capture takes it exclusive (capture state + rotate WAL as
// one unit). An event is therefore in the snapshot or in the replayed
// WAL — never both, never neither.

// engineStateVersion guards the snapshot payload schema. Version 2
// added PoolEpoch for the epoch-versioned pool-swap protocol; a
// snapshot of any other version is refused.
const engineStateVersion = 2

// EngineState is the engine's serializable state: everything Restore
// needs to resume a crashed monitor — cumulative counters, the breaker
// board, the pool-window clock — keyed to the pool it belongs to by
// Fingerprint.
type EngineState struct {
	Version     int    `json:"version"`
	Fingerprint uint64 `json:"fingerprint"`
	SavedUnix   int64  `json:"saved_unix"`
	// PoolEpoch is the serving pool generation at snapshot time.
	// Together with Fingerprint it names exactly which pool the restored
	// engine must serve; Config.ResolvePool materializes generations
	// other than the constructed one.
	PoolEpoch uint64 `json:"pool_epoch,omitempty"`

	// WindowClock is the pool-wide processed-window counter that drives
	// probe cooldowns.
	WindowClock uint64       `json:"window_clock"`
	Counters    CounterState `json:"counters"`
	// Quarantines and Restores are the breaker-transition totals, the
	// rhmd_monitor_breaker_transitions_total series.
	Quarantines uint64 `json:"quarantines"`
	Restores    uint64 `json:"restores"`

	Breakers []BreakerSnapshot `json:"breakers"`
}

// CounterState mirrors the scalar counters of Stats.
type CounterState struct {
	Programs uint64 `json:"programs"`
	Shed     uint64 `json:"shed"`
	Failed   uint64 `json:"failed"`
	Windows  uint64 `json:"windows"`
	Flagged  uint64 `json:"flagged"`
	Degraded uint64 `json:"degraded"`
	Dropped  uint64 `json:"dropped"`
	Retries  uint64 `json:"retries"`
	Timeouts uint64 `json:"timeouts"`
	Panics   uint64 `json:"panics"`
}

// BreakerSnapshot is one detector's persisted breaker state.
type BreakerSnapshot struct {
	State       BreakerState `json:"state"`
	ConsecFails int          `json:"consec_fails"`
	OpenedAt    uint64       `json:"opened_at"`
	Calls       uint64       `json:"calls"`
	Failures    uint64       `json:"failures"`
	LatencyNs   int64        `json:"latency_ns"`
}

// walVerdict is the WAL payload for one completed program.
type walVerdict struct {
	Failed   bool `json:"failed,omitempty"`
	Malware  bool `json:"malware,omitempty"`
	Windows  int  `json:"windows"`
	Flagged  int  `json:"flagged"`
	Degraded int  `json:"degraded"`
	Dropped  int  `json:"dropped"`
}

// walBreaker is the WAL payload for one live-set transition.
type walBreaker struct {
	Detector int  `json:"detector"`
	Restore  bool `json:"restore"` // false = quarantine
}

// walPoolSwap is the WAL payload for one pool-generation swap: the
// epoch the new pool serves as, plus its fingerprint so replay can
// resolve (via Config.ResolvePool) exactly the pool that went live.
type walPoolSwap struct {
	Epoch       uint64 `json:"epoch"`
	Fingerprint uint64 `json:"fingerprint"`
}

// RestoreInfo summarizes what Engine.Restore recovered.
type RestoreInfo struct {
	// Gen is the snapshot generation restored (0 = WAL-only recovery
	// from a crash before the first snapshot).
	Gen uint64
	// Replayed is the number of WAL entries applied on top of the
	// snapshot.
	Replayed int
	// Fallbacks counts corrupt newer snapshot generations skipped.
	Fallbacks int
	// TornWAL reports a crash mid-append was detected (and cut).
	TornWAL bool
	// Verdicts is the number of verdicts (processed plus failed) the
	// checkpoint holds: snapshot plus replayed WAL, independent of any
	// live counter. A fleet reports it as a restarted shard's
	// zero-acked-loss baseline.
	Verdicts uint64
}

func (ri *RestoreInfo) String() string {
	return fmt.Sprintf("checkpoint generation %d, %d WAL entries replayed, %d corrupt generations skipped",
		ri.Gen, ri.Replayed, ri.Fallbacks)
}

// poolFingerprint identifies a trained pool + switching policy, so a
// checkpoint is never restored into an engine serving a different pool.
// It delegates to core.RHMD.Fingerprint, which covers the trained model
// parameters too — retrained generations with identical specs/probs/key
// must not collide, or swap recovery could restore the wrong pool.
func poolFingerprint(r *core.RHMD) uint64 { return r.Fingerprint() }

// SnapshotState captures the engine's durable state. Callers that need
// snapshot/WAL exactness hold ckptMu exclusively around it (Checkpoint
// does); bare calls get a point-in-time read that may interleave with
// in-flight verdicts.
func (e *Engine) SnapshotState() *EngineState {
	g := e.pool.Load()
	breakers, clock := g.health.exportState()
	return &EngineState{
		Version:     engineStateVersion,
		Fingerprint: poolFingerprint(g.rhmd),
		PoolEpoch:   g.epoch,
		SavedUnix:   time.Now().Unix(),
		WindowClock: clock,
		Counters: CounterState{
			Programs: e.ins.programs.Value(),
			Shed:     e.ins.shed.Value(),
			Failed:   e.ins.failed.Value(),
			Windows:  e.ins.windows.Value(),
			Flagged:  e.ins.flagged.Value(),
			Degraded: e.ins.degraded.Value(),
			Dropped:  e.ins.dropped.Value(),
			Retries:  e.ins.retries.Value(),
			Timeouts: e.ins.timeouts.Value(),
			Panics:   e.ins.panics.Value(),
		},
		Quarantines: e.ins.quarantines.Value(),
		Restores:    e.ins.restores.Value(),
		Breakers:    breakers,
	}
}

// Checkpoint flushes a snapshot generation now. It is a no-op without a
// configured store. Safe to call concurrently with traffic: verdict
// commits are excluded for the duration of the capture + WAL rotation.
// Each flush is its own root span trace (stage "checkpoint"), so a
// snapshot stall shows up on /traces next to the verdicts it delayed.
// A failed flush is counted (rhmd_monitor_checkpoint_failures_total)
// and flags that trace errored.
func (e *Engine) Checkpoint() (gen uint64, err error) {
	if e.ckpt == nil {
		return 0, nil
	}
	tr := e.spans.Start("checkpoint", span.StageCheckpoint)
	defer func() {
		if err != nil {
			e.ins.ckptFailures.Inc()
			tr.Flag(span.ReasonErrored)
			if r := tr.Root(); r != nil {
				r.Err = err.Error()
			}
		}
		tr.SetVerdict("checkpoint")
		tr.Finish()
	}()
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	payload, err := json.Marshal(e.SnapshotState())
	if err != nil {
		return 0, fmt.Errorf("monitor: encoding checkpoint: %w", err)
	}
	return e.ckpt.Save(payload)
}

// Restore rebuilds the engine from its checkpoint store: the newest
// valid snapshot generation plus the replayed WAL. Must be called
// before Start, on a freshly constructed engine. It returns (nil, nil)
// when the store holds no state — a fresh deployment.
func (e *Engine) Restore() (*RestoreInfo, error) {
	if e.ckpt == nil {
		return nil, fmt.Errorf("monitor: Restore needs a Checkpoint store in the engine config")
	}
	e.mu.Lock()
	started := e.started
	e.mu.Unlock()
	if started {
		return nil, fmt.Errorf("monitor: Restore must run before Start")
	}

	res, err := e.ckpt.Restore()
	if err != nil {
		if err == checkpoint.ErrNoCheckpoint {
			return nil, nil
		}
		return nil, err
	}

	// st accumulates the totals: the snapshot's, plus each replayed
	// WAL entry's.
	var st EngineState
	if res.Snapshot != nil {
		if err := json.Unmarshal(res.Snapshot, &st); err != nil {
			return nil, fmt.Errorf("monitor: decoding checkpoint snapshot: %w", err)
		}
		if err := e.applySnapshot(&st); err != nil {
			return nil, err
		}
	}
	for _, entry := range res.Entries {
		if err := e.applyEntry(entry, &st); err != nil {
			return nil, err
		}
	}
	tot := st.Counters
	raise(e.ins.programs, tot.Programs)
	raise(e.ins.shed, tot.Shed)
	raise(e.ins.failed, tot.Failed)
	raise(e.ins.windows, tot.Windows)
	raise(e.ins.flagged, tot.Flagged)
	raise(e.ins.degraded, tot.Degraded)
	raise(e.ins.dropped, tot.Dropped)
	raise(e.ins.retries, tot.Retries)
	raise(e.ins.timeouts, tot.Timeouts)
	raise(e.ins.panics, tot.Panics)
	raise(e.ins.quarantines, st.Quarantines)
	raise(e.ins.restores, st.Restores)
	e.pool.Load().health.republish()
	return &RestoreInfo{Gen: res.Gen, Replayed: len(res.Entries), Fallbacks: res.Fallbacks, TornWAL: res.TornWAL,
		Verdicts: tot.Programs + tot.Failed}, nil
}

// raise lifts c to total; a counter already past it stays put.
func raise(c *obs.Counter, total uint64) {
	if v := c.Value(); total > v {
		c.Add(total - v)
	}
}

// applySnapshot loads a decoded snapshot's pool generation and breaker
// board into the fresh engine, first re-materializing the pool
// generation the snapshot belongs to when it is not the one the engine
// was constructed with. Restore applies the counters.
func (e *Engine) applySnapshot(st *EngineState) error {
	if st.Version != engineStateVersion {
		return fmt.Errorf("monitor: checkpoint state version %d (want %d)", st.Version, engineStateVersion)
	}
	g := e.pool.Load()
	r, err := e.resolvePool(st.PoolEpoch, st.Fingerprint)
	if err != nil {
		return err
	}
	if r != g.rhmd || st.PoolEpoch != g.epoch {
		// A later generation, or the same pool bytes at a different
		// epoch (a rollback re-promoted the constructed pool).
		if err := e.installGen(st.PoolEpoch, r); err != nil {
			return err
		}
		g = e.pool.Load()
	}
	if len(st.Breakers) != g.rhmd.Size() {
		return fmt.Errorf("monitor: checkpoint has %d breakers for a pool of %d", len(st.Breakers), g.rhmd.Size())
	}
	return g.health.restoreState(st.Breakers, st.WindowClock)
}

// resolvePool returns the pool a checkpoint names by fingerprint: the
// serving pool when it matches, otherwise the generation
// Config.ResolvePool re-materializes, checked against the fingerprint.
// Without a ResolvePool hook a foreign fingerprint is the wrong-pool
// hard error.
func (e *Engine) resolvePool(epoch, fingerprint uint64) (*core.RHMD, error) {
	serving := e.pool.Load().rhmd
	fp := poolFingerprint(serving)
	if fingerprint == fp {
		return serving, nil
	}
	if e.cfg.ResolvePool == nil {
		return nil, fmt.Errorf("monitor: checkpoint belongs to a different pool (fingerprint %016x, engine %016x) and no ResolvePool is configured",
			fingerprint, fp)
	}
	r, err := e.cfg.ResolvePool(epoch, fingerprint)
	if err != nil {
		return nil, fmt.Errorf("monitor: resolving checkpointed pool generation %d (%016x): %w", epoch, fingerprint, err)
	}
	if got := poolFingerprint(r); got != fingerprint {
		return nil, fmt.Errorf("monitor: ResolvePool returned fingerprint %016x for checkpointed %016x", got, fingerprint)
	}
	return r, nil
}

// applyEntry replays one WAL record on top of the snapshot state,
// adding a verdict's accounting or a breaker transition to st.
func (e *Engine) applyEntry(entry checkpoint.Entry, st *EngineState) error {
	g := e.pool.Load()
	switch entry.Kind {
	case checkpoint.KindVerdict:
		var v walVerdict
		if err := json.Unmarshal(entry.Payload, &v); err != nil {
			return fmt.Errorf("monitor: decoding WAL verdict: %w", err)
		}
		tot := &st.Counters
		if v.Failed {
			tot.Failed++
		} else {
			tot.Programs++
		}
		tot.Windows += uint64(v.Windows)
		tot.Flagged += uint64(v.Flagged)
		tot.Degraded += uint64(v.Degraded)
		tot.Dropped += uint64(v.Dropped)
		g.health.advanceClock(uint64(v.Windows + v.Dropped))
	case checkpoint.KindBreaker:
		var b walBreaker
		if err := json.Unmarshal(entry.Payload, &b); err != nil {
			return fmt.Errorf("monitor: decoding WAL breaker entry: %w", err)
		}
		if b.Detector < 0 || b.Detector >= g.rhmd.Size() {
			return fmt.Errorf("monitor: WAL breaker entry for detector %d of %d", b.Detector, g.rhmd.Size())
		}
		g.health.applyTransition(b.Detector, b.Restore)
		if b.Restore {
			st.Restores++
		} else {
			st.Quarantines++
		}
	case checkpoint.KindPoolSwap:
		var ps walPoolSwap
		if err := json.Unmarshal(entry.Payload, &ps); err != nil {
			return fmt.Errorf("monitor: decoding WAL pool-swap entry: %w", err)
		}
		r, err := e.resolvePool(ps.Epoch, ps.Fingerprint)
		if err != nil {
			return err
		}
		// Replaying a swap mirrors live SwapPool semantics exactly:
		// fresh health board (breakers closed, window clock zero), so
		// later WAL entries act on the same state they did live.
		if err := e.installGen(ps.Epoch, r); err != nil {
			return err
		}
	default:
		// Unknown kinds are skipped, not fatal: a newer writer may log
		// event kinds an older reader does not know.
	}
	return nil
}

// commit durably logs a batch of finished verdicts with one WAL append
// and applies their accounting, as one unit relative to snapshot
// capture. The append runs first: when it fails, every verdict of the
// batch is withheld and counted undurable, and no other counter moves,
// since a restore would resurrect counters the WAL knows nothing about.
// Every window of a committed program lands in a bucket whether or not
// the program failed mid-trace; the program itself lands in processed
// or failed. A volatile engine skips only the append.
func (e *Engine) commit(batch []handoff) error {
	e.ckptMu.RLock()
	defer e.ckptMu.RUnlock()
	if e.ckpt != nil {
		recs := make([]any, len(batch))
		for i, h := range batch {
			recs[i] = walVerdict{
				Failed:   h.rep.Err != nil,
				Malware:  h.rep.Malware,
				Windows:  h.rep.Windows,
				Flagged:  h.rep.Flagged,
				Degraded: h.rep.Degraded,
				Dropped:  h.rep.Dropped,
			}
		}
		if err := e.logWAL(checkpoint.KindVerdict, recs...); err != nil {
			e.ins.undurable.Add(uint64(len(batch)))
			return err
		}
	}
	for _, h := range batch {
		rep := h.rep
		e.ins.windows.Add(uint64(rep.Windows))
		e.ins.flagged.Add(uint64(rep.Flagged))
		e.ins.degraded.Add(uint64(rep.Degraded))
		e.ins.dropped.Add(uint64(rep.Dropped))
		if rep.Err != nil {
			e.ins.failed.Inc()
		} else {
			e.ins.programs.Inc()
		}
	}
	return nil
}

// commitTransition runs the breaker state machine for one
// classification outcome and durably logs any live-set change, as one
// unit relative to snapshot capture. exemplarID joins the latency
// observation to its verdict trace (see healthBoard.report).
func (e *Engine) commitTransition(g *poolGen, idx int, ok bool, latency time.Duration, exemplarID string) {
	e.ckptMu.RLock()
	defer e.ckptMu.RUnlock()
	quarantined, restored := g.health.report(idx, ok, latency, exemplarID)
	if e.ckpt == nil || (!quarantined && !restored) {
		return
	}
	if g != e.pool.Load() {
		// The transition happened on a retiring generation — a swap
		// published mid-program. Its board is about to be discarded, and
		// the WAL already carries the swap entry that resets breaker
		// state on replay, so logging this transition would corrupt the
		// new generation's replayed board.
		return
	}
	_ = e.logWAL(checkpoint.KindBreaker, walBreaker{Detector: idx, Restore: restored}) // a failure is counted
}

// logWAL JSON-encodes each value as one WAL record of the given kind,
// appends them as one batch (one fsync), and counts a failure on
// rhmd_monitor_checkpoint_failures_total. Callers hold ckptMu shared
// and have checked that a store is attached.
func (e *Engine) logWAL(kind byte, vs ...any) error {
	entries := make([]checkpoint.Entry, len(vs))
	var err error
	for i := 0; i < len(vs) && err == nil; i++ {
		entries[i].Kind = kind
		entries[i].Payload, err = json.Marshal(vs[i])
	}
	if err == nil {
		err = e.ckpt.AppendBatch(entries)
	}
	if err != nil {
		e.ins.ckptFailures.Inc()
	}
	return err
}

// checkpointLoop periodically flushes snapshots until the engine
// drains or ctx is cancelled. The final snapshot is written by the
// drain path itself (see Start), so a graceful shutdown always ends on
// a fresh generation.
func (e *Engine) checkpointLoop(ctx context.Context, every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-e.done:
			return
		case <-tick.C:
			_, _ = e.Checkpoint() // a failure is counted and flags its own trace
		}
	}
}
