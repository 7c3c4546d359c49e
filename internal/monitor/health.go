package monitor

import (
	"fmt"
	"sync"
	"time"

	"rhmd/internal/core"
	"rhmd/internal/rng"
)

// BreakerState is the health state of one base detector.
type BreakerState uint8

// Breaker states, the usual circuit-breaker trio: a Closed breaker
// passes traffic, an Open one is quarantined out of the switching
// distribution, a HalfOpen one is receiving a single probe window to
// decide between restore and re-quarantine.
const (
	Closed BreakerState = iota
	Open
	HalfOpen
)

var breakerNames = [...]string{"closed", "open", "half-open"}

// String returns the state name.
func (s BreakerState) String() string {
	if int(s) < len(breakerNames) {
		return breakerNames[s]
	}
	return "state(?)"
}

// breaker tracks one detector's consecutive-failure history.
type breaker struct {
	state       BreakerState
	consecFails int
	// openedAt is the pool-wide window counter value when the breaker
	// opened; probing becomes eligible probeAfter windows later.
	openedAt uint64

	calls     uint64
	failures  uint64
	latencyNs int64
}

// healthBoard owns the per-detector breakers and the live switching
// sampler. All transitions happen under mu; the sampler is rebuilt (via
// core.RHMD.LiveSampler) whenever the live set changes, so sampling
// always reflects the renormalized survivor distribution.
type healthBoard struct {
	rhmd       *core.RHMD
	threshold  int // consecutive failures that open a breaker
	probeAfter uint64

	mu       sync.Mutex
	breakers []breaker
	sampler  *rng.Categorical // nil when every detector is quarantined
	probs    []float64        // sampler.Probs() cached per rebuild for pick
	windows  uint64           // pool-wide processed-window counter

	// ins mirrors transitions into the observability layer; it is
	// attached after construction and may be nil in unit tests.
	ins *instruments
}

func newHealthBoard(r *core.RHMD, threshold int, probeAfter uint64) *healthBoard {
	b := &healthBoard{
		rhmd:       r,
		threshold:  threshold,
		probeAfter: probeAfter,
		breakers:   make([]breaker, r.Size()),
	}
	b.rebuildLocked()
	return b
}

// attach wires the board to the engine's instruments and publishes the
// initial weight/state gauges. Must be called before the board sees
// traffic.
func (b *healthBoard) attach(ins *instruments) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ins = ins
	b.publishLocked()
}

// retire detaches the board from the shared instruments.
// SwapPool calls it on the outgoing generation right after publishing
// the new one: verdicts still in flight against the old pool keep
// completing (report/pick work fine detached), but their breaker
// transitions and weight updates no longer overwrite the serving
// generation's gauges — without this, one slow old-generation verdict
// landing after the swap republishes retired state over live state.
func (b *healthBoard) retire() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ins = nil
}

// publishLocked refreshes the per-detector weight/state gauges and the
// live-pool gauge from current breaker state. Callers hold mu.
func (b *healthBoard) publishLocked() {
	if b.ins == nil {
		return
	}
	var probs []float64
	if b.sampler != nil {
		probs = b.sampler.Probs()
	}
	live := 0
	for i := range b.breakers {
		st := b.breakers[i].state
		b.ins.state[i].Set(float64(st))
		w := 0.0
		if probs != nil && st == Closed {
			w = probs[i]
		}
		b.ins.weight[i].Set(w)
		if st == Closed || st == HalfOpen {
			live++
		}
	}
	b.ins.poolLive.Set(float64(live))
}

// rebuildLocked recomputes the live sampler from breaker states. Callers
// must hold mu (or have exclusive access during construction).
func (b *healthBoard) rebuildLocked() {
	live := make([]bool, len(b.breakers))
	any := false
	for i := range b.breakers {
		if b.breakers[i].state == Closed {
			live[i] = true
			any = true
		}
	}
	if !any {
		b.sampler = nil
		b.probs = nil
		return
	}
	cat, err := b.rhmd.LiveSampler(live)
	if err != nil {
		// Unreachable: live is non-empty and weights come from a
		// validated RHMD. Treat as all-dead rather than crash the engine.
		b.sampler = nil
		b.probs = nil
		return
	}
	b.sampler = cat
	// Cache the renormalized distribution: pick reports the drawn
	// detector's weight on every window and must not re-derive the
	// slice per draw.
	b.probs = cat.Probs()
}

// pick selects the detector for the next window. An Open breaker that
// has cooled down for probeAfter windows moves to HalfOpen and receives
// this window as its probe; otherwise the window is routed by sampling
// the renormalized live distribution. It returns index -1 when no
// detector is available (all quarantined, none probe-eligible) — the
// caller must count that window as dropped, never lose it silently.
// weight is the drawn detector's renormalized switching probability at
// draw time (0 for probes and dropped picks) — the draw-span latency
// attribution the verdict trace records.
func (b *healthBoard) pick(src *rng.Source) (idx int, probe bool, weight float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range b.breakers {
		br := &b.breakers[i]
		if br.state == Open && b.windows-br.openedAt >= b.probeAfter {
			br.state = HalfOpen
			if b.ins != nil {
				b.ins.state[i].Set(float64(HalfOpen))
			}
			return i, true, 0
		}
	}
	if b.sampler == nil {
		return -1, false, 0
	}
	idx = b.sampler.Sample(src)
	if b.ins != nil {
		// Draw counters let a scrape check the empirical switching
		// distribution against the renormalized LiveSampler weights.
		b.ins.draws[idx].Inc()
	}
	return idx, false, b.probs[idx]
}

// liveFallbacks returns the live detector indices excluding exclude,
// ordered by descending switching weight (ties by index), for degraded
// re-classification of a window whose chosen detector failed.
func (b *healthBoard) liveFallbacks(exclude int) []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []int
	for i := range b.breakers {
		if i != exclude && b.breakers[i].state == Closed {
			out = append(out, i)
		}
	}
	probs := b.rhmd.Probs
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && probs[out[j]] > probs[out[j-1]]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// cancelProbe reverts a HalfOpen breaker to Open. Workers call it for
// probe windows that were scheduled but never classified (a trailing
// partial window, an extraction error, shutdown mid-program), so an
// unanswered probe cannot wedge the breaker in HalfOpen; the detector
// stays probe-eligible and is retried on the next pick.
func (b *healthBoard) cancelProbe(idx int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.breakers[idx].state == HalfOpen {
		b.breakers[idx].state = Open
		if b.ins != nil {
			b.ins.state[idx].Set(float64(Open))
		}
	}
}

// windowDone advances the pool-wide window counter (the clock that
// drives probe cooldowns).
func (b *healthBoard) windowDone() {
	b.mu.Lock()
	b.windows++
	b.mu.Unlock()
}

// report records one classification outcome for detector idx and runs
// the breaker state machine. It returns true when the live set changed
// (quarantine or restore), which the engine surfaces in its stats.
// exemplarID, when non-empty, is the verdict trace ID attached to the
// latency observation as an OpenMetrics exemplar. The join back to
// /traces is best-effort: exemplars are recorded before the tail
// sampler decides keep/drop, so a bucket's exemplar may name a trace
// that was later recycled (DESIGN.md §"Verdict tracing"). Slow buckets
// overwhelmingly carry resolvable IDs, since slow is a keep reason.
func (b *healthBoard) report(idx int, ok bool, latency time.Duration, exemplarID string) (quarantined, restored bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	br := &b.breakers[idx]
	br.calls++
	br.latencyNs += latency.Nanoseconds()
	if b.ins != nil {
		b.ins.latency[idx].ObserveExemplar(latency.Seconds(), exemplarID, 0)
	}
	if ok {
		br.consecFails = 0
		if br.state == HalfOpen {
			// Probe succeeded: the detector rejoins the pool and the
			// switching distribution is renormalized back over it.
			br.state = Closed
			b.rebuildLocked()
			if b.ins != nil {
				b.ins.restores.Inc()
			}
			b.publishLocked()
			return false, true
		}
		return false, false
	}
	br.failures++
	br.consecFails++
	switch br.state {
	case HalfOpen:
		// Probe failed: straight back to quarantine, restart cooldown.
		br.state = Open
		br.openedAt = b.windows
		b.publishLocked()
	case Closed:
		if br.consecFails >= b.threshold {
			br.state = Open
			br.openedAt = b.windows
			b.rebuildLocked()
			if b.ins != nil {
				b.ins.quarantines.Inc()
			}
			b.publishLocked()
			return true, false
		}
	}
	return false, false
}

// exportState copies the board into persistable form for a checkpoint:
// per-detector breaker snapshots and the window clock.
func (b *healthBoard) exportState() ([]BreakerSnapshot, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]BreakerSnapshot, len(b.breakers))
	for i := range b.breakers {
		br := &b.breakers[i]
		out[i] = BreakerSnapshot{
			State:       br.state,
			ConsecFails: br.consecFails,
			OpenedAt:    br.openedAt,
			Calls:       br.calls,
			Failures:    br.failures,
			LatencyNs:   br.latencyNs,
		}
	}
	return out, b.windows
}

// restoreState loads a checkpointed board into a fresh one: breaker
// states and the window clock — then rebuilds the live sampler over the
// restored states. A persisted HalfOpen breaker comes back Open: its
// probe window died with the process, and cancelProbe semantics apply
// (the detector stays probe-eligible).
func (b *healthBoard) restoreState(brs []BreakerSnapshot, windows uint64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(brs) != len(b.breakers) {
		return fmt.Errorf("monitor: restoring %d breakers into a pool of %d", len(brs), len(b.breakers))
	}
	for i, snap := range brs {
		st := snap.State
		if st != Closed && st != Open && st != HalfOpen {
			return fmt.Errorf("monitor: restoring breaker %d with invalid state %d", i, st)
		}
		if st == HalfOpen {
			st = Open
		}
		b.breakers[i] = breaker{
			state:       st,
			consecFails: snap.ConsecFails,
			openedAt:    snap.OpenedAt,
			calls:       snap.Calls,
			failures:    snap.Failures,
			latencyNs:   snap.LatencyNs,
		}
	}
	b.windows = windows
	b.rebuildLocked()
	b.publishLocked()
	return nil
}

// applyTransition replays one WAL-logged live-set change (quarantine or
// restore) on top of a restored snapshot.
func (b *healthBoard) applyTransition(idx int, restored bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	br := &b.breakers[idx]
	if restored {
		br.state = Closed
		br.consecFails = 0
	} else {
		br.state = Open
		br.openedAt = b.windows
		if br.consecFails < b.threshold {
			br.consecFails = b.threshold
		}
	}
	b.rebuildLocked()
	b.publishLocked()
}

// advanceClock moves the window clock forward by n windows (WAL verdict
// replay: the windows of a completed program all passed the clock).
func (b *healthBoard) advanceClock(n uint64) {
	b.mu.Lock()
	b.windows += n
	b.mu.Unlock()
}

// republish refreshes the observability gauges after a restore.
func (b *healthBoard) republish() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.publishLocked()
}

// snapshot copies per-detector health into stats rows.
func (b *healthBoard) snapshot() []DetectorStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]DetectorStats, len(b.breakers))
	var probs []float64
	if b.sampler != nil {
		probs = b.sampler.Probs()
	}
	for i := range b.breakers {
		br := &b.breakers[i]
		ds := DetectorStats{
			Spec:     b.rhmd.Detectors[i].Spec.String(),
			State:    br.state,
			Calls:    br.calls,
			Failures: br.failures,
		}
		if probs != nil && br.state == Closed {
			ds.Weight = probs[i]
		}
		if br.calls > 0 {
			ds.AvgLatency = time.Duration(br.latencyNs / int64(br.calls))
		}
		out[i] = ds
	}
	return out
}
