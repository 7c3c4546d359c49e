package monitor

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
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
		WindowDeadline: 2 * time.Second, ProbeAfter: 1 << 30,
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

// TestRestoreRefusesOtherStateVersions: a snapshot written in another
// payload version is refused — version 1, the format from before pool
// swaps, as much as a newer one.
func TestRestoreRefusesOtherStateVersions(t *testing.T) {
	for _, version := range []int{1, engineStateVersion + 1} {
		dir := t.TempDir()
		e := durableEngine(t, dir, 0xF00D, nil)
		st := e.SnapshotState()
		st.Version = version
		payload, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.ckpt.Save(payload); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("checkpoint state version %d (want %d)", version, engineStateVersion)
		if _, err := durableEngine(t, dir, 0xF00D, nil).Restore(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d snapshot restore error = %v, want %q", version, err, want)
		}
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

// TestBareEngineWithholdsUndurableVerdicts: a durable engine outside a
// fleet acks only what it logged. Its disk dies partway through the
// stream; every program then ends either delivered or counted
// undurable, and a fresh engine restored from the directory recovers
// every delivered verdict.
func TestBareEngineWithholdsUndurableVerdicts(t *testing.T) {
	f := getFixture(t)
	r, err := core.New(f.pool, 0xD1ED)
	if err != nil {
		t.Fatal(err)
	}
	build := func(dir string, fsys checkpoint.FS) *Engine {
		t.Helper()
		store, err := checkpoint.Open(dir, checkpoint.Options{FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = store.Close() })
		e, err := New(r, Config{Workers: 2, QueueDepth: len(f.programs), TraceLen: f.traceLen,
			WindowDeadline: 2 * time.Second, Checkpoint: store,
			CheckpointEvery: time.Hour, // no periodic snapshot competes for the budget
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	// Probe: what the stream's WAL appends cost on a disk that never
	// dies, measured before the drain's final snapshot.
	probe := checkpoint.NewFailingFS(checkpoint.OSFS{}, 1<<30)
	e := build(t.TempDir(), probe)
	e.Start(context.Background())
	for _, p := range f.programs {
		if !e.Submit(p) {
			t.Fatalf("probe submit of %q shed with a roomy queue", p.Name)
		}
	}
	for range f.programs {
		<-e.Results()
	}
	appends := probe.Spent()
	e.Close()
	for range e.Results() {
	}

	dir := t.TempDir()
	dying := checkpoint.NewFailingFS(checkpoint.OSFS{}, appends/2)
	e = build(dir, dying)
	delivered := len(runStream(t, e, f.programs))
	if !dying.Crashed() {
		t.Fatal("the disk outlived the stream; the test needs a failed append")
	}
	st := e.Stats()
	if st.ProgramsUndurable == 0 {
		t.Fatalf("no verdict counted undurable after the disk died (%d of %d delivered)", delivered, len(f.programs))
	}
	if got := uint64(delivered) + st.ProgramsUndurable; got != uint64(len(f.programs)) {
		t.Fatalf("%d delivered + %d undurable = %d, want the %d submitted",
			delivered, st.ProgramsUndurable, got, len(f.programs))
	}
	if got := st.ProgramsProcessed + st.ProgramsFailed; got != uint64(delivered) {
		t.Fatalf("engine counts %d verdicts, delivered %d", got, delivered)
	}

	info, err := build(dir, nil).Restore()
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || info.Verdicts < uint64(delivered) {
		t.Fatalf("restore %+v recovers fewer than the %d delivered verdicts", info, delivered)
	}
}

// hookFS is a checkpoint.FS that calls onSync before each fsync of a
// WAL file with records pending, passing how many records that fsync
// makes durable, and asks tear, when set, before each WAL write of
// records whether to tear it after half its bytes. Tests hold or break
// the disk through it.
type hookFS struct {
	checkpoint.FS
	onSync func(records int)
	tear   func(records int) bool
}

func (h *hookFS) Create(name string) (checkpoint.File, error) {
	f, err := h.FS.Create(name)
	return h.wrap(name, f), err
}

func (h *hookFS) OpenAppend(name string) (checkpoint.File, error) {
	f, err := h.FS.OpenAppend(name)
	return h.wrap(name, f), err
}

// wrap hooks WAL files only: snapshot files are synced too, and a
// hook that panics must not fire in the final snapshot.
func (h *hookFS) wrap(name string, f checkpoint.File) checkpoint.File {
	base := filepath.Base(name)
	if !strings.HasPrefix(base, "wal-") || !strings.HasSuffix(base, ".log") {
		return f
	}
	return &hookFile{File: f, fs: h}
}

// hookFile counts the WAL records written since its last fsync. The
// store writes and syncs its WAL under its own mutex, so the count
// needs no lock.
type hookFile struct {
	checkpoint.File
	fs      *hookFS
	pending int
}

func (f *hookFile) Write(p []byte) (int, error) {
	rest := p
	if bytes.HasPrefix(rest, []byte("RHWL")) {
		rest = rest[13:] // the file header
	}
	// Each record is kind(1) | len(4, LE) | crc32(4) | payload.
	records := 0
	for len(rest) >= 9 {
		records++
		rest = rest[min(len(rest), 9+int(binary.LittleEndian.Uint32(rest[1:5]))):]
	}
	if records > 0 && f.fs.tear != nil && f.fs.tear(records) {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errors.New("injected transient write error")
	}
	f.pending += records
	return f.File.Write(p)
}

func (f *hookFile) Sync() error {
	if n := f.pending; n > 0 {
		f.pending = 0
		f.fs.onSync(n)
	}
	return f.File.Sync()
}

// TestGroupCommitDurableBeforeVisible holds the first verdict fsync of
// a two-worker engine. While it is held no report reaches Results, yet
// the workers keep handing finished verdicts to the committer, so the
// next fsync after the release makes more than one verdict durable.
// After the stream every delivered verdict is exactly one WAL record.
func TestGroupCommitDurableBeforeVisible(t *testing.T) {
	f := getFixture(t)
	r, err := core.New(f.pool, 0x6C0A)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var perSync []int
	held, release := make(chan struct{}), make(chan struct{})
	fsys := &hookFS{FS: checkpoint.OSFS{}, onSync: func(records int) {
		mu.Lock()
		perSync = append(perSync, records)
		first := len(perSync) == 1
		mu.Unlock()
		if first {
			close(held)
			<-release
		}
	}}
	store, err := checkpoint.Open(t.TempDir(), checkpoint.Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store.Close() })
	var once sync.Once
	unhold := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unhold) // runs first: a failed check must not leave the store locked
	e, err := New(r, Config{Workers: 2, QueueDepth: len(f.programs), TraceLen: f.traceLen,
		WindowDeadline: 2 * time.Second, Checkpoint: store, CheckpointEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	for _, p := range f.programs {
		if !e.Submit(p) {
			t.Fatalf("submit of %q shed with a roomy queue", p.Name)
		}
	}
	select {
	case <-held:
	case <-time.After(30 * time.Second):
		t.Fatal("no verdict fsync within 30s")
	}
	// Both workers finish a program and hand it off behind the held
	// fsync.
	for wait := time.Now().Add(30 * time.Second); len(e.commits) < cap(e.commits); time.Sleep(time.Millisecond) {
		if time.Now().After(wait) {
			t.Fatalf("%d of %d hand-offs queued behind the held fsync after 30s", len(e.commits), cap(e.commits))
		}
	}
	select {
	case rep := <-e.Results():
		t.Fatalf("report %q delivered while the first verdict fsync was held", rep.Program)
	default:
	}
	unhold()
	e.Close()
	delivered := 0
	for range e.Results() {
		delivered++
	}

	mu.Lock()
	defer mu.Unlock()
	if len(perSync) < 2 || perSync[1] < 2 {
		t.Fatalf("records per WAL fsync %v: the fsync after the release must carry more than one verdict", perSync)
	}
	appends := e.Registry().Snapshot().CounterWith("rhmd_checkpoint_ops_total", "wal_append")
	if delivered != len(f.programs) || appends != uint64(delivered) {
		t.Fatalf("%d of %d programs delivered, %d WAL records appended", delivered, len(f.programs), appends)
	}
}

// TestUndurableBatchOnTransientDiskError: acked ⇒ recoverable when the
// disk fails once and recovers. The third verdict batch's WAL write
// tears; that batch is counted undurable, the verdicts after it are
// still delivered, and the directory as it stands once they are — a
// crash image, taken before the drain's final snapshot rotates the WAL
// — restores exactly the delivered verdicts.
func TestUndurableBatchOnTransientDiskError(t *testing.T) {
	f := getFixture(t)
	r, err := core.New(f.pool, 0x7EA2)
	if err != nil {
		t.Fatal(err)
	}
	// The store writes its WAL under its own mutex, so the counts need
	// no lock until the engine drains.
	writes, afterTear := 0, 0
	fsys := &hookFS{FS: checkpoint.OSFS{}, onSync: func(int) {}, tear: func(records int) bool {
		writes++
		if writes > 3 {
			afterTear += records
		}
		return writes == 3
	}}
	dir := t.TempDir()
	store, err := checkpoint.Open(dir, checkpoint.Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store.Close() })
	e, err := New(r, Config{Workers: 2, QueueDepth: len(f.programs), TraceLen: f.traceLen,
		WindowDeadline: 2 * time.Second, Checkpoint: store, CheckpointEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	for _, p := range f.programs {
		if !e.Submit(p) {
			t.Fatalf("submit of %q shed with a roomy queue", p.Name)
		}
	}
	delivered := 0
	for deadline := time.Now().Add(time.Minute); uint64(delivered)+e.Stats().ProgramsUndurable < uint64(len(f.programs)); {
		select {
		case <-e.Results():
			delivered++
		case <-time.After(time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatalf("%d delivered and %d undurable of %d programs after a minute",
					delivered, e.Stats().ProgramsUndurable, len(f.programs))
			}
		}
	}
	image := t.TempDir()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(dir, n.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(image, n.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	for range e.Results() {
	}

	if st := e.Stats(); st.ProgramsUndurable == 0 || writes <= 3 || afterTear == 0 {
		t.Fatalf("%d undurable verdicts, %d WAL writes, %d records after the torn write; want a torn batch with verdicts logged after it",
			st.ProgramsUndurable, writes, afterTear)
	}
	imgStore, err := checkpoint.Open(image, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = imgStore.Close() })
	e2, err := New(r, Config{TraceLen: f.traceLen, Checkpoint: imgStore})
	if err != nil {
		t.Fatal(err)
	}
	info, err := e2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || info.Verdicts != uint64(delivered) {
		t.Fatalf("restore %+v from the crash image, want exactly the %d delivered verdicts", info, delivered)
	}
}

// TestCommitterCrashIsContained breaks the disk with a panicking fsync.
// The committer's crash is counted and reported through
// OnWorkerCrash, nothing is delivered, and the engine still drains and
// closes Results.
func TestCommitterCrashIsContained(t *testing.T) {
	f := getFixture(t)
	r, err := core.New(f.pool, 0xC0CC)
	if err != nil {
		t.Fatal(err)
	}
	fsys := &hookFS{FS: checkpoint.OSFS{}, onSync: func(int) { panic("disk controller fault") }}
	store, err := checkpoint.Open(t.TempDir(), checkpoint.Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store.Close() })
	crashes := make(chan error, 4)
	e, err := New(r, Config{Workers: 2, QueueDepth: len(f.programs), TraceLen: f.traceLen,
		WindowDeadline: 2 * time.Second, Checkpoint: store, CheckpointEvery: time.Hour,
		OnWorkerCrash: func(err error) { crashes <- err },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(runStream(t, e, f.programs)); got != 0 {
		t.Fatalf("%d reports delivered after the committer crashed on the first fsync", got)
	}
	if st := e.Stats(); st.WorkerCrashes != 1 || st.ProgramsProcessed+st.ProgramsFailed != 0 {
		t.Fatalf("stats after a committer crash: %d crashes, %d verdicts counted; want 1 and 0",
			st.WorkerCrashes, st.ProgramsProcessed+st.ProgramsFailed)
	}
	if err := <-crashes; !strings.Contains(err.Error(), "committer") {
		t.Fatalf("OnWorkerCrash got %v, want the committer's crash", err)
	}
}
