package monitor

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rhmd/internal/checkpoint"
	"rhmd/internal/core"
	"rhmd/internal/obs"
)

// durableEngine builds an engine over the shared fixture pool with a
// checkpoint store in dir.
func durableEngine(t *testing.T, dir string, key uint64, injector FaultInjector) *Engine {
	t.Helper()
	f := getFixture(t)
	r, err := core.New(f.pool, key)
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.Open(dir, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(r, Config{Workers: 4, QueueDepth: 64, TraceLen: f.traceLen,
		WindowDeadline: 2 * time.Second, FailureThreshold: 2, ProbeAfter: 1 << 30,
		Injector: injector, Checkpoint: store,
		CheckpointEvery: time.Hour, // periodic ticks off; saves come from drain/final flush
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCheckpointRestoreExactAfterDrain: a drained engine's final
// checkpoint restores bit-for-bit — cumulative Stats, per-detector
// health rows, quarantine state and renormalized weights — into a
// fresh engine over the same pool.
func TestCheckpointRestoreExactAfterDrain(t *testing.T) {
	f := getFixture(t)
	dir := t.TempDir()
	// Permanently fault detector 2 so the checkpoint carries a
	// quarantined breaker and a renormalized live distribution.
	in := NewInjector(7)
	in.SetProfile(2, Profile{ErrorRate: 1})
	e := durableEngine(t, dir, 0xD00D, in)
	reports := runStream(t, e, f.programs)
	if len(reports) != len(f.programs) {
		t.Fatalf("%d reports for %d programs", len(reports), len(f.programs))
	}
	want := e.Stats()
	if want.Quarantines == 0 {
		t.Fatal("fixture did not quarantine the faulty detector; test needs a live-set change")
	}

	e2 := durableEngine(t, dir, 0xD00D, nil)
	info, err := e2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if info == nil {
		t.Fatal("restore found no checkpoint after a drained run")
	}
	if info.Gen == 0 {
		t.Fatalf("restore info %+v: drain must have flushed a final snapshot", info)
	}
	got := e2.Stats()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored Stats differ:\n got: %+v\nwant: %+v", got, want)
	}
	if got.Detectors[2].State != Open {
		t.Fatalf("restored detector 2 state %s, want open (quarantined)", got.Detectors[2].State)
	}
	if got.Detectors[2].Weight != 0 {
		t.Fatalf("restored quarantined detector kept weight %v", got.Detectors[2].Weight)
	}

	// The restored engine serves traffic on the renormalized survivor
	// distribution: stream the corpus again and verify counters keep
	// growing monotonically from the restored baseline.
	reports2 := runStream(t, e2, f.programs)
	if len(reports2) != len(f.programs) {
		t.Fatalf("restored engine returned %d reports", len(reports2))
	}
	st := e2.Stats()
	if st.ProgramsProcessed+st.ProgramsFailed != (want.ProgramsProcessed+want.ProgramsFailed)+uint64(len(f.programs)) {
		t.Fatalf("restored engine lost history: %d programs after %d restored + %d new",
			st.ProgramsProcessed+st.ProgramsFailed, want.ProgramsProcessed+want.ProgramsFailed, len(f.programs))
	}
}

// TestWALOnlyRecovery: kill the engine before any snapshot exists (no
// Close, no periodic tick) and the consumed verdicts are still
// recoverable — they were WAL-logged before they were visible.
func TestWALOnlyRecovery(t *testing.T) {
	f := getFixture(t)
	dir := t.TempDir()
	e := durableEngine(t, dir, 0xBEEF, nil)
	e.Start(context.Background())
	n := 6
	go func() {
		for _, p := range f.programs[:n] {
			for !e.Submit(p) {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	seen := 0
	var windows, flagged uint64
	for rep := range e.Results() {
		if rep.Err != nil {
			t.Fatalf("%s: %v", rep.Program, rep.Err)
		}
		seen++
		windows += uint64(rep.Windows)
		flagged += uint64(rep.Flagged)
		if seen == n {
			break
		}
	}
	// The engine is now abandoned mid-flight — no Close, no drain, the
	// moral equivalent of SIGKILL for the store's contents.

	e2 := durableEngine(t, dir, 0xBEEF, nil)
	info, err := e2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || info.Gen != 0 {
		t.Fatalf("expected generation-0 (WAL-only) recovery, got %+v", info)
	}
	st := e2.Stats()
	if st.ProgramsProcessed < uint64(n) {
		t.Fatalf("restored %d programs, consumer had observed %d", st.ProgramsProcessed, n)
	}
	if st.Windows < windows || st.Flagged < flagged {
		t.Fatalf("restored windows/flagged %d/%d below observed %d/%d", st.Windows, st.Flagged, windows, flagged)
	}
}

// TestRestoreRejectsForeignPool: a checkpoint from one pool must not
// load into an engine serving another (different switching key here;
// the fingerprint also covers specs and weights).
func TestRestoreRejectsForeignPool(t *testing.T) {
	f := getFixture(t)
	dir := t.TempDir()
	e := durableEngine(t, dir, 0xAAAA, nil)
	runStream(t, e, f.programs[:4])

	e2 := durableEngine(t, dir, 0xBBBB, nil)
	if _, err := e2.Restore(); err == nil || !strings.Contains(err.Error(), "different pool") {
		t.Fatalf("foreign-pool restore error = %v, want fingerprint rejection", err)
	}
}

// TestRestoreAfterStartRejected guards the construction order: restore
// must land on a zero-state engine.
func TestRestoreAfterStartRejected(t *testing.T) {
	dir := t.TempDir()
	e := durableEngine(t, dir, 0xCCCC, nil)
	e.Start(context.Background())
	// Drain before returning: the final snapshot is written into dir,
	// and t.TempDir's cleanup must not race it.
	defer func() {
		e.Close()
		for range e.Results() {
		}
	}()
	if _, err := e.Restore(); err == nil {
		t.Fatal("Restore after Start must be rejected")
	}
}

// TestCorruptNewestGenerationFallsBack: bit rot on the newest snapshot
// makes restore fall back to the previous generation and surface the
// fallback in the engine's /metrics.
func TestCorruptNewestGenerationFallsBack(t *testing.T) {
	f := getFixture(t)
	dir := t.TempDir()
	e := durableEngine(t, dir, 0xEEEE, nil)
	e.Start(context.Background())
	go func() {
		for _, p := range f.programs[:4] {
			for !e.Submit(p) {
				time.Sleep(time.Millisecond)
			}
		}
		// Two explicit generations, then drain (a third, final one).
		e.Close()
	}()
	for range e.Results() {
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest snapshot on disk.
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
	if err != nil || len(names) < 2 {
		t.Fatalf("want ≥2 snapshot generations, have %v (err %v)", names, err)
	}
	newest := names[len(names)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := durableEngine(t, dir, 0xEEEE, nil)
	info, err := e2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if info.Fallbacks != 1 {
		t.Fatalf("restore fallbacks = %d, want 1", info.Fallbacks)
	}
	st := e2.Stats()
	if st.ProgramsProcessed != 4 {
		t.Fatalf("fallback generation restored %d programs, want 4", st.ProgramsProcessed)
	}
	var buf bytes.Buffer
	if err := e2.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `rhmd_checkpoint_ops_total{op="corruption_fallback"} 1`) {
		t.Fatalf("corruption fallback not visible in /metrics:\n%s", buf.String())
	}
}

// TestRestoreOnAheadRegistry: a successor engine that takes over its
// predecessor's registry, as a restarted fleet shard does, continues
// the series instead of adding the checkpoint on top. Counters already
// past the checkpointed totals do not move, and RestoreInfo reports
// the checkpoint's own verdict count.
func TestRestoreOnAheadRegistry(t *testing.T) {
	f := getFixture(t)
	dir := t.TempDir()
	reg := obs.NewRegistry()
	r, err := core.New(f.pool, 0xA4EAD)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Engine {
		t.Helper()
		store, err := checkpoint.Open(dir, checkpoint.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = store.Close() })
		e, err := New(r, Config{Workers: 2, QueueDepth: 16, TraceLen: f.traceLen,
			WindowDeadline: 2 * time.Second, Metrics: reg, Checkpoint: store,
			CheckpointEvery: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e1 := build()
	const n = 4
	if got := len(runStream(t, e1, f.programs[:n])); got != n {
		t.Fatalf("%d reports for %d programs", got, n)
	}
	// Counted on the shared registry after the final checkpoint: the
	// registry is now ahead of what the store holds.
	e1.ins.programs.Add(3)
	e1.ins.windows.Add(5)
	want := e1.Stats()

	e2 := build()
	info, err := e2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || info.Verdicts != n {
		t.Fatalf("restore info %+v, want %d checkpointed verdicts", info, n)
	}
	if got := e2.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restore moved counters of an ahead registry:\n got: %+v\nwant: %+v", got, want)
	}
}
