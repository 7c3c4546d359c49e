package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rhmd/internal/obs"
)

func mustSave(t *testing.T, s *Store, payload string) uint64 {
	t.Helper()
	gen, err := s.Save([]byte(payload))
	if err != nil {
		t.Fatalf("save %q: %v", payload, err)
	}
	return gen
}

func mustAppend(t *testing.T, s *Store, kind byte, payload string) {
	t.Helper()
	if err := s.Append(kind, []byte(payload)); err != nil {
		t.Fatalf("append %q: %v", payload, err)
	}
}

func entryStrings(entries []Entry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = string(e.Payload)
	}
	return out
}

func TestSaveAppendRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen := mustSave(t, s, "state-1")
	if gen != 1 {
		t.Fatalf("first generation = %d, want 1", gen)
	}
	mustAppend(t, s, KindVerdict, "v1")
	mustAppend(t, s, KindBreaker, "b1")
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != 1 || string(res.Snapshot) != "state-1" {
		t.Fatalf("restored gen %d snapshot %q", res.Gen, res.Snapshot)
	}
	if got := entryStrings(res.Entries); len(got) != 2 || got[0] != "v1" || got[1] != "b1" {
		t.Fatalf("restored entries %v", got)
	}
	if res.Entries[0].Kind != KindVerdict || res.Entries[1].Kind != KindBreaker {
		t.Fatalf("entry kinds %d,%d", res.Entries[0].Kind, res.Entries[1].Kind)
	}
	if res.Fallbacks != 0 || res.TornWAL {
		t.Fatalf("unexpected fallbacks=%d torn=%v", res.Fallbacks, res.TornWAL)
	}

	// Appending after restore extends the same generation's history.
	mustAppend(t, s2, KindVerdict, "v2")
	s2.Close()
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res3, err := s3.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if got := entryStrings(res3.Entries); len(got) != 3 || got[2] != "v2" {
		t.Fatalf("entries after post-restore append: %v", got)
	}
}

func TestRestoreEmptyDir(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Restore(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("restore of empty dir: %v, want ErrNoCheckpoint", err)
	}
}

func TestWALBeforeFirstSave(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A crash before the first snapshot must still preserve appended
	// events: they land in a generation-0 WAL.
	mustAppend(t, s, KindVerdict, "early")
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != 0 || res.Snapshot != nil {
		t.Fatalf("gen-0 restore: gen=%d snapshot=%q", res.Gen, res.Snapshot)
	}
	if got := entryStrings(res.Entries); len(got) != 1 || got[0] != "early" {
		t.Fatalf("gen-0 entries %v", got)
	}
}

func TestGenerationRetentionAndPrune(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, payload := range []string{"a", "b", "c", "d"} {
		if gen := mustSave(t, s, payload); gen != uint64(i+1) {
			t.Fatalf("generation %d after save %d", gen, i+1)
		}
	}
	gens, err := s.snapshotGens()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0] != 3 || gens[1] != 4 {
		t.Fatalf("retained generations %v, want [3 4]", gens)
	}
	res, err := s.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != 4 || string(res.Snapshot) != "d" {
		t.Fatalf("restored %d %q", res.Gen, res.Snapshot)
	}
}

func TestSaveAfterRestoreSkipsSeenGenerations(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustSave(t, s, "one")
	mustSave(t, s, "two")
	s.Close()

	// Corrupt the newest generation, restore (falls back to 1), then
	// save: the new snapshot must take a fresh generation number, not
	// collide with the corrupt 2.
	corruptFile(t, filepath.Join(dir, snapName(2)), flipByte)
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != 1 || res.Fallbacks != 1 {
		t.Fatalf("fallback restore: gen=%d fallbacks=%d", res.Gen, res.Fallbacks)
	}
	gen := mustSave(t, s2, "three")
	if gen != 3 {
		t.Fatalf("post-fallback save generation = %d, want 3", gen)
	}
	res2, err := s2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if string(res2.Snapshot) != "three" {
		t.Fatalf("restored %q after post-fallback save", res2.Snapshot)
	}
}

func TestTornWALTailIsCut(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustSave(t, s, "base")
	mustAppend(t, s, KindVerdict, "v1")
	mustAppend(t, s, KindVerdict, "v2")
	s.Close()

	// Simulate a crash mid-append: a partial record at the tail.
	walPath := filepath.Join(dir, walName(1))
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{KindVerdict, 0xFF, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if !res.TornWAL {
		t.Fatal("torn tail not reported")
	}
	if got := entryStrings(res.Entries); len(got) != 2 || got[0] != "v1" || got[1] != "v2" {
		t.Fatalf("entries with torn tail: %v", got)
	}

	// The restore rewrote the WAL without the torn tail, and appending
	// continues cleanly after it.
	mustAppend(t, s2, KindVerdict, "v3")
	s2.Close()
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res3, err := s3.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if res3.TornWAL {
		t.Fatal("torn tail survived the restore rewrite")
	}
	if got := entryStrings(res3.Entries); len(got) != 3 || got[2] != "v3" {
		t.Fatalf("entries after tail cut + append: %v", got)
	}
}

// flakyFS is the real filesystem with one scripted transient failure:
// once armed, the next write tears after half its bytes, or the next
// sync fails after a whole write, and then the disk works again, as
// after an ENOSPC that frees up. The store calls it under its own
// mutex, so the flags need no lock.
type flakyFS struct {
	OSFS
	tearWrite, failSync bool
}

func (f *flakyFS) Create(name string) (File, error) {
	file, err := f.OSFS.Create(name)
	return &flakyFile{File: file, fs: f}, err
}

func (f *flakyFS) OpenAppend(name string) (File, error) {
	file, err := f.OSFS.OpenAppend(name)
	return &flakyFile{File: file, fs: f}, err
}

type flakyFile struct {
	File
	fs *flakyFS
}

func (w *flakyFile) Write(p []byte) (int, error) {
	if w.fs.tearWrite {
		w.fs.tearWrite = false
		n, _ := w.File.Write(p[:len(p)/2])
		return n, errors.New("injected transient write error")
	}
	return w.File.Write(p)
}

func (w *flakyFile) Sync() error {
	if w.fs.failSync {
		w.fs.failSync = false
		return errors.New("injected transient sync error")
	}
	return w.File.Sync()
}

// TestTornAppendIsCutBeforeNextAppend: one append fails on a transient
// disk error and the disk recovers. The next append first cuts what the
// failed one left behind, so a restore replays every append that
// returned nil and none that failed, and finds no torn tail.
func TestTornAppendIsCutBeforeNextAppend(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(*flakyFS)
	}{
		{"torn write", func(f *flakyFS) { f.tearWrite = true }},
		{"failed sync", func(f *flakyFS) { f.failSync = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fsys := &flakyFS{}
			s, err := Open(dir, Options{FS: fsys})
			if err != nil {
				t.Fatal(err)
			}
			mustSave(t, s, "base")
			mustAppend(t, s, KindVerdict, "e1")
			tc.arm(fsys)
			if err := s.Append(KindVerdict, []byte("e2")); err == nil {
				t.Fatal("append on a failing disk returned nil")
			}
			mustAppend(t, s, KindVerdict, "e3")
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := s2.Restore()
			if err != nil {
				t.Fatal(err)
			}
			if got := entryStrings(res.Entries); res.TornWAL || len(got) != 2 || got[0] != "e1" || got[1] != "e3" {
				t.Fatalf("restore replayed %v (torn tail %v), want [e1 e3] and no torn tail", got, res.TornWAL)
			}
		})
	}
}

func TestInstrumentedStoreCounts(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Instrument(reg)
	mustSave(t, s, "x")
	mustAppend(t, s, KindVerdict, "v")
	// A batch counts each record and one fsync.
	if err := s.AppendBatch([]Entry{{KindVerdict, []byte("a")}, {KindVerdict, []byte("b")}, {KindBreaker, []byte("c")}}); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, filepath.Join(dir, snapName(1)), truncateHalf)
	mustSave(t, s, "y") // gen 2, valid
	corruptFile(t, filepath.Join(dir, snapName(2)), flipByte)
	if _, err := s.Restore(); err == nil {
		t.Fatal("restore with every snapshot corrupt must fail")
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`rhmd_checkpoint_ops_total{op="save"} 2`,
		`rhmd_checkpoint_ops_total{op="wal_append"} 4`,
		`rhmd_checkpoint_ops_total{op="wal_sync"} 2`,
		`rhmd_checkpoint_ops_total{op="corruption_fallback"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// BenchmarkStoreAppend is the verdict path's durability rung: one
// verdict-sized WAL record appended and fsynced on the real filesystem
// under the test's temporary directory.
func BenchmarkStoreAppend(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	payload := []byte(`{"malware":true,"windows":26,"flagged":14}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(KindVerdict, payload); err != nil {
			b.Fatal(err)
		}
	}
}
