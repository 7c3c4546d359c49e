package monitor

import (
	"testing"
	"time"

	"rhmd/internal/core"
	"rhmd/internal/obs"
	"rhmd/internal/rng"
)

// attached reports whether the board still writes to shared
// instruments, read under the board's own lock (workers may be
// reporting concurrently in engine-level tests).
func (b *healthBoard) attached() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ins != nil
}

// TestRetiredBoardLeavesGaugesAlone is the regression test for the
// retired-generation metric leak: breaker activity on a board that has
// been retired (its generation swapped out) must not move the shared
// gauges or counters — one slow old-generation verdict landing
// after a swap used to republish retired weights over the serving
// generation's.
func TestRetiredBoardLeavesGaugesAlone(t *testing.T) {
	reg := obs.NewRegistry()
	pool := shellPool(t, 4)
	ins := newInstruments(reg, pool)
	b := newHealthBoard(pool, 3, 10)
	b.attach(ins)

	spec := pool.Detectors[1].Spec.String()
	gauge := func(snap obs.Snapshot, fam, key string) float64 {
		f, ok := snap[fam]
		if !ok {
			t.Fatalf("family %s missing", fam)
		}
		return f.Children[key].Gauge
	}

	snap := reg.Snapshot()
	if got := gauge(snap, "rhmd_monitor_pool_live", ""); got != 4 {
		t.Fatalf("pool_live after attach = %v, want 4", got)
	}
	weightBefore := gauge(snap, "rhmd_monitor_detector_weight", "1\x00"+spec)
	if weightBefore != 0.25 {
		t.Fatalf("detector 1 weight = %v, want 0.25", weightBefore)
	}

	b.retire()

	// Quarantine detector 1 on the retired board: the board's own state
	// must keep working (in-flight old-generation verdicts still report
	// through it) while the shared surfaces stay untouched.
	quars := 0
	for i := 0; i < 3; i++ {
		if q, _ := b.report(1, false, time.Millisecond, ""); q {
			quars++
		}
	}
	if det := b.snapshot(); det[1].State != Open || quars != 1 {
		t.Fatalf("retired board state %v/%d quarantines, want open/1 (retire must not disable breakers)",
			det[1].State, quars)
	}
	// pick keeps routing around the quarantined detector, detached.
	src := rng.New(7)
	for i := 0; i < 50; i++ {
		if idx, _, _ := b.pick(src); idx == 1 {
			t.Fatal("retired board sampled its quarantined detector")
		}
	}

	snap = reg.Snapshot()
	if got := gauge(snap, "rhmd_monitor_pool_live", ""); got != 4 {
		t.Errorf("pool_live moved to %v after retired-board quarantine, want 4", got)
	}
	if got := gauge(snap, "rhmd_monitor_detector_state", "1\x00"+spec); got != 0 {
		t.Errorf("detector 1 state gauge = %v after retired-board quarantine, want 0 (closed)", got)
	}
	if got := gauge(snap, "rhmd_monitor_detector_weight", "1\x00"+spec); got != weightBefore {
		t.Errorf("detector 1 weight gauge = %v, want untouched %v", got, weightBefore)
	}
	if got := snap.Counter("rhmd_monitor_breaker_transitions_total"); got != 0 {
		t.Errorf("breaker transitions counter = %d from a retired board, want 0", got)
	}
	if got := snap.Counter("rhmd_monitor_switch_draws_total"); got != 0 {
		t.Errorf("draw counters = %d from a retired board, want 0", got)
	}
}

// TestSwapPoolRetiresOldGeneration pins the wiring: SwapPool detaches
// the outgoing generation's board the moment the new one is published.
func TestSwapPoolRetiresOldGeneration(t *testing.T) {
	f := getFixture(t)
	r, err := core.New(f.pool, 0x5AB1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(r, Config{Workers: 2, QueueDepth: 8, TraceLen: f.traceLen})
	if err != nil {
		t.Fatal(err)
	}
	old := e.pool.Load()
	if !old.health.attached() {
		t.Fatal("serving generation's board is not attached")
	}
	if _, err := e.SwapPool(variantPool(t, r)); err != nil {
		t.Fatal(err)
	}
	if old.health.attached() {
		t.Fatal("outgoing generation's board still attached after SwapPool")
	}
	if !e.pool.Load().health.attached() {
		t.Fatal("incoming generation's board is not attached")
	}
}
