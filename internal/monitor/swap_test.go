package monitor

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"rhmd/internal/checkpoint"
	"rhmd/internal/core"
)

// variantPool deep-copies a pool (JSON round trip) and nudges every
// detector threshold — the shape of a retrained generation: same specs,
// probs and key, different trained parameters, different fingerprint.
// The copy is deterministic, so parent and re-exec'd child processes
// build bit-identical variants.
func variantPool(t testing.TB, base *core.RHMD) *core.RHMD {
	t.Helper()
	var buf bytes.Buffer
	if err := core.SaveRHMD(&buf, base); err != nil {
		t.Fatal(err)
	}
	v, err := core.LoadRHMD(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range v.Detectors {
		d.Threshold += 1e-6
	}
	if v.Fingerprint() == base.Fingerprint() {
		t.Fatal("variant pool fingerprint collided with base; Fingerprint must cover trained parameters")
	}
	return v
}

// TestSwapPoolUnderLoad is the zero-downtime core of the hot swap: a
// swap between two submission phases loses no acked verdict, in-flight
// work finishes on the generation that started it, and every verdict is
// stamped with the epoch that produced it.
func TestSwapPoolUnderLoad(t *testing.T) {
	f := getFixture(t)
	r, err := core.New(f.pool, 0x5AB1)
	if err != nil {
		t.Fatal(err)
	}
	next := variantPool(t, r)
	e, err := New(r, Config{Workers: 4, QueueDepth: len(f.programs), TraceLen: f.traceLen,
		WindowDeadline: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())

	half := len(f.programs) / 2
	for _, p := range f.programs[:half] {
		if !e.Submit(p) {
			t.Fatalf("submit of %q shed with roomy queue", p.Name)
		}
	}
	// Drain phase one completely so every pre-swap verdict is attributable.
	for i := 0; i < half; i++ {
		rep := <-e.Results()
		if rep.Err != nil {
			t.Fatalf("%s: %v", rep.Program, rep.Err)
		}
		if rep.PoolEpoch != 0 {
			t.Fatalf("pre-swap verdict %s stamped epoch %d, want 0", rep.Program, rep.PoolEpoch)
		}
	}

	epoch, err := e.SwapPool(next)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || e.PoolEpoch() != 1 {
		t.Fatalf("swap returned epoch %d, engine at %d; want 1", epoch, e.PoolEpoch())
	}
	if e.PoolFingerprint() != next.Fingerprint() {
		t.Fatalf("serving fingerprint %016x, want the swapped pool's %016x", e.PoolFingerprint(), next.Fingerprint())
	}

	rest := f.programs[half:]
	go func() {
		for _, p := range rest {
			for !e.Submit(p) {
				time.Sleep(time.Millisecond)
			}
		}
		e.Close()
	}()
	got := 0
	for rep := range e.Results() {
		if rep.Err != nil {
			t.Fatalf("%s: %v", rep.Program, rep.Err)
		}
		if rep.PoolEpoch != 1 {
			t.Fatalf("post-swap verdict %s stamped epoch %d, want 1", rep.Program, rep.PoolEpoch)
		}
		got++
	}
	if got != len(rest) {
		t.Fatalf("second phase delivered %d verdicts for %d submissions", got, len(rest))
	}
	st := e.Stats()
	if st.PoolEpoch != 1 || st.PoolSwaps != 1 {
		t.Fatalf("stats pool_epoch=%d pool_swaps=%d, want 1/1", st.PoolEpoch, st.PoolSwaps)
	}
	if st.ProgramsProcessed != uint64(len(f.programs)) {
		t.Fatalf("processed %d of %d programs across the swap", st.ProgramsProcessed, len(f.programs))
	}
}

// TestSwapPoolValidates: a candidate that changes the pool shape (size
// or per-position spec) is rejected and the serving generation is
// untouched — per-detector instruments and breaker boards are
// position-bound.
func TestSwapPoolValidates(t *testing.T) {
	f := getFixture(t)
	r, err := core.New(f.pool, 0x5AB2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(r, Config{Workers: 1, TraceLen: f.traceLen})
	if err != nil {
		t.Fatal(err)
	}
	smaller, err := core.New(f.pool[:4], 0x5AB2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SwapPool(smaller); err == nil {
		t.Fatal("SwapPool accepted a pool of a different size")
	}
	if _, err := e.SwapPool(nil); err == nil {
		t.Fatal("SwapPool accepted a nil pool")
	}
	if e.PoolEpoch() != 0 || e.PoolFingerprint() != r.Fingerprint() {
		t.Fatalf("rejected swap moved the engine: epoch %d fingerprint %016x", e.PoolEpoch(), e.PoolFingerprint())
	}
}

// swapResolver maps fingerprints back to pools, the test double for a
// driftguard.Archive wired into Config.ResolvePool.
func swapResolver(pools ...*core.RHMD) func(epoch, fingerprint uint64) (*core.RHMD, error) {
	byFP := map[uint64]*core.RHMD{}
	for _, p := range pools {
		byFP[p.Fingerprint()] = p
	}
	return func(epoch, fingerprint uint64) (*core.RHMD, error) {
		p, ok := byFP[fingerprint]
		if !ok {
			return nil, fmt.Errorf("no archived pool with fingerprint %016x", fingerprint)
		}
		return p, nil
	}
}

// TestSwapRestoreRoundTrip: a durable engine that swapped mid-run
// restores onto the swapped generation — epoch, fingerprint and the
// cumulative verdict history all survive, with the swap WAL entry
// resolved through ResolvePool.
func TestSwapRestoreRoundTrip(t *testing.T) {
	f := getFixture(t)
	dir := t.TempDir()
	e := durableEngine(t, dir, 0x5AB3, nil)
	r := e.Pool()
	next := variantPool(t, r)

	e.Start(context.Background())
	phase := func(programs int) {
		for _, p := range f.programs[:programs] {
			for !e.Submit(p) {
				time.Sleep(time.Millisecond)
			}
		}
		for i := 0; i < programs; i++ {
			if rep := <-e.Results(); rep.Err != nil {
				t.Fatalf("%s: %v", rep.Program, rep.Err)
			}
		}
	}
	phase(3)
	if _, err := e.SwapPool(next); err != nil {
		t.Fatal(err)
	}
	phase(3)
	e.Close()
	for range e.Results() {
	}
	want := e.Stats()

	build := func(resolve func(uint64, uint64) (*core.RHMD, error)) (*Engine, error) {
		r2, err := core.New(f.pool, 0x5AB3)
		if err != nil {
			t.Fatal(err)
		}
		store, err := checkpoint.Open(dir, checkpoint.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		e2, err := New(r2, Config{Workers: 2, TraceLen: f.traceLen, Checkpoint: store, ResolvePool: resolve})
		if err != nil {
			t.Fatal(err)
		}
		_, err = e2.Restore()
		return e2, err
	}

	// Without a resolver the snapshot's foreign fingerprint is a hard
	// error, exactly like the pre-swap contract.
	if _, err := build(nil); err == nil {
		t.Fatal("restore resolved a swapped pool without ResolvePool")
	}

	e2, err := build(swapResolver(r, next))
	if err != nil {
		t.Fatal(err)
	}
	if e2.PoolEpoch() != 1 || e2.PoolFingerprint() != next.Fingerprint() {
		t.Fatalf("restored epoch %d fingerprint %016x, want 1/%016x",
			e2.PoolEpoch(), e2.PoolFingerprint(), next.Fingerprint())
	}
	got := e2.Stats()
	if got.ProgramsProcessed != want.ProgramsProcessed || got.Windows != want.Windows {
		t.Fatalf("restored %d programs / %d windows, want %d / %d",
			got.ProgramsProcessed, got.Windows, want.ProgramsProcessed, want.Windows)
	}
}

// TestBreakerTalliesAgreeWithMetrics: Stats' quarantine and restore
// counts are the rhmd_monitor_breaker_transitions_total series, so they
// agree with /metrics after a pool swap, whose fresh health board has
// no transition history, and after a restore into a fresh registry.
func TestBreakerTalliesAgreeWithMetrics(t *testing.T) {
	f := getFixture(t)
	dir := t.TempDir()
	// Detector 2 fails every call, so the stream quarantines it.
	in := NewInjector(7)
	in.SetProfile(2, Profile{ErrorRate: 1})
	e := durableEngine(t, dir, 0xB4EA, in)
	r := e.Pool()
	next := variantPool(t, r)
	agree := func(e *Engine, when string) Stats {
		t.Helper()
		st := e.Stats()
		snap := e.Registry().Snapshot()
		quar := snap.CounterWith("rhmd_monitor_breaker_transitions_total", "quarantine")
		rest := snap.CounterWith("rhmd_monitor_breaker_transitions_total", "restore")
		if st.Quarantines != quar || st.Restores != rest {
			t.Fatalf("%s: Stats has %d quarantines and %d restores, /metrics %d and %d",
				when, st.Quarantines, st.Restores, quar, rest)
		}
		return st
	}

	e.Start(context.Background())
	for _, p := range f.programs {
		for !e.Submit(p) {
			time.Sleep(time.Millisecond)
		}
	}
	for range f.programs {
		<-e.Results()
	}
	if agree(e, "before the swap").Quarantines == 0 {
		t.Fatal("fixture did not quarantine the faulty detector; test needs a breaker transition")
	}
	if _, err := e.SwapPool(next); err != nil {
		t.Fatal(err)
	}
	want := agree(e, "after the swap")
	e.Close()
	for range e.Results() {
	}

	r2, err := core.New(f.pool, 0xB4EA)
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.Open(dir, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	e2, err := New(r2, Config{Workers: 2, TraceLen: f.traceLen, Checkpoint: store, ResolvePool: swapResolver(r, next)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Restore(); err != nil {
		t.Fatal(err)
	}
	if got := agree(e2, "after the restore"); got.Quarantines != want.Quarantines || got.Restores != want.Restores {
		t.Fatalf("restored %d quarantines and %d restores, want %d and %d",
			got.Quarantines, got.Restores, want.Quarantines, want.Restores)
	}
}

// TestSwapWALCrashSweep enumerates every byte boundary of the pool-swap
// WAL sequence with the crash-injection filesystem: open a durable
// store, swap to a retrained pool (epoch 1), swap back (epoch 2, the
// rollback shape), crashing at each budget. Whatever survives, restore
// must land on exactly one generation — (0, base), (1, next) or
// (2, base) — never a torn hybrid, and never behind a swap that
// reported success before the crash.
func TestSwapWALCrashSweep(t *testing.T) {
	f := getFixture(t)
	base, err := core.New(f.pool, 0x5AB4)
	if err != nil {
		t.Fatal(err)
	}
	next := variantPool(t, base)
	fpBase, fpNext := base.Fingerprint(), next.Fingerprint()

	// script replays the swap sequence through fsys and reports how many
	// swaps were acknowledged (returned nil) before the crash.
	script := func(dir string, fsys checkpoint.FS) (acked int) {
		store, err := checkpoint.Open(dir, checkpoint.Options{FS: fsys})
		if err != nil {
			return 0
		}
		defer store.Close()
		e, err := New(base, Config{Workers: 1, TraceLen: f.traceLen, Checkpoint: store})
		if err != nil {
			return 0
		}
		if _, err := e.SwapPool(next); err != nil {
			return 0
		}
		if _, err := e.SwapPool(base); err != nil {
			return 1
		}
		return 2
	}

	probe := checkpoint.NewFailingFS(checkpoint.OSFS{}, 1<<30)
	if acked := script(t.TempDir(), probe); acked != 2 {
		t.Fatalf("unfailed script acked %d swaps, want 2", acked)
	}
	total := probe.Spent()
	if total < 20 {
		t.Fatalf("implausibly cheap swap sequence: %d units", total)
	}

	root := t.TempDir()
	for budget := 0; budget < total; budget++ {
		dir := fmt.Sprintf("%s/b%04d", root, budget)
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		fsys := checkpoint.NewFailingFS(checkpoint.OSFS{}, budget)
		acked := script(dir, fsys)
		if !fsys.Crashed() {
			t.Fatalf("budget %d: script finished without hitting the crash point", budget)
		}

		store, err := checkpoint.Open(dir, checkpoint.Options{})
		if err != nil {
			t.Fatalf("budget %d: reopening survivors: %v", budget, err)
		}
		e2, err := New(base, Config{Workers: 1, TraceLen: f.traceLen, Checkpoint: store,
			ResolvePool: swapResolver(base, next)})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if _, err := e2.Restore(); err != nil {
			t.Fatalf("budget %d: restore on survivors failed: %v", budget, err)
		}
		ep, fp := e2.PoolEpoch(), e2.PoolFingerprint()
		wantFP := map[uint64]uint64{0: fpBase, 1: fpNext, 2: fpBase}
		expected, known := wantFP[ep]
		if !known || fp != expected {
			t.Fatalf("budget %d: restored (epoch %d, fingerprint %016x) is a torn hybrid (base %016x, next %016x)",
				budget, ep, fp, fpBase, fpNext)
		}
		// A swap that returned success was fsynced; the restored epoch may
		// run ahead of the ack count (crash after full write, before the
		// ack), never behind it.
		if ep < uint64(acked) {
			t.Fatalf("budget %d: restored epoch %d behind %d acknowledged swaps", budget, ep, acked)
		}
		if err := store.Close(); err != nil {
			t.Fatalf("budget %d: closing survivor store: %v", budget, err)
		}
	}
}
