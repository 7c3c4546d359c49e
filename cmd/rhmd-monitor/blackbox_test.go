package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rhmd/internal/obs/span"
)

// readDump decodes the black-box file in dir.
func readDump(t *testing.T, dir string) []span.KeptTrace {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, blackBoxFile))
	if err != nil {
		t.Fatalf("black-box file missing: %v", err)
	}
	var kept []span.KeptTrace
	if err := json.Unmarshal(data, &kept); err != nil || kept == nil {
		t.Fatalf("black-box dump %q is not a JSON array: %v", data, err)
	}
	return kept
}

// TestBlackBoxRepanicKeepsValue simulates a panic unwinding through the
// black box and checks the dumped kept traces are valid, complete JSON
// afterwards — the whole point of a flight recorder is that it is
// readable after the crash — and that the original panic value
// survives the re-panic.
func TestBlackBoxRepanicKeepsValue(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_000_000, 0)
	rec, err := span.NewRecorder(span.Config{Now: func() time.Time { return now }, KeepEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, stage := range []string{span.StageVerdict, span.StageCheckpoint} {
		ids = append(ids, rec.Start("victim", stage).Finish())
	}

	func() {
		defer func() {
			if r := recover(); r != "poisoned trace" {
				t.Fatalf("panic value after the black box: %v, want the original", r)
			}
		}()
		func() {
			defer recoverDump(dir, rec)
			panic("poisoned trace")
		}()
	}()

	kept := readDump(t, dir)
	if len(kept) != len(ids) {
		t.Fatalf("dump has %d traces, want the %d kept", len(kept), len(ids))
	}
	for i, kt := range kept {
		if kt.TraceID != ids[i] || kt.Program != "victim" {
			t.Fatalf("dumped trace %d = %s/%q, want %s/victim", i, kt.TraceID, kt.Program, ids[i])
		}
	}
}

// TestBlackBoxCleanReturnWritesNothing: a clean return must not write
// anything.
func TestBlackBoxCleanReturnWritesNothing(t *testing.T) {
	dir := t.TempDir()
	func() {
		defer recoverDump(dir, nil)
	}()
	if _, err := os.Stat(filepath.Join(dir, blackBoxFile)); !os.IsNotExist(err) {
		t.Fatalf("black-box file written on clean return (stat err %v)", err)
	}
}

// TestBlackBoxNilRecorderWritesEmptyArray: with tracing off (a nil
// recorder) the dump is still a valid, empty recording, in a directory
// that did not exist yet.
func TestBlackBoxNilRecorderWritesEmptyArray(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	dumpTrace(dir, nil)
	if kept := readDump(t, dir); len(kept) != 0 {
		t.Fatalf("nil-recorder dump has %d traces, want none", len(kept))
	}
}
