package checkpoint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rhmd/internal/obs/span"
)

// TestRecoverDumpFlushesParseableTrace simulates a panic unwinding
// through the black-box recorder and checks the dumped kept traces are
// valid, complete JSON afterwards — the whole point of a flight
// recorder is that it is readable after the crash — and that the
// original panic value survives the re-panic.
func TestRecoverDumpFlushesParseableTrace(t *testing.T) {
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
			if r := recover(); r == nil {
				t.Fatal("RecoverDump swallowed the panic")
			} else if r != "poisoned trace" {
				t.Fatalf("panic value changed: %v", r)
			}
		}()
		func() {
			defer RecoverDump(dir, rec)
			panic("poisoned trace")
		}()
	}()

	data, err := os.ReadFile(filepath.Join(dir, BlackBoxFile))
	if err != nil {
		t.Fatalf("black-box file missing: %v", err)
	}
	var kept []span.KeptTrace
	if err := json.Unmarshal(data, &kept); err != nil {
		t.Fatalf("black-box dump is not parseable JSON: %v", err)
	}
	if len(kept) != len(ids) {
		t.Fatalf("dump has %d traces, want the %d kept", len(kept), len(ids))
	}
	for i, kt := range kept {
		if kt.TraceID != ids[i] || kt.Program != "victim" {
			t.Fatalf("dumped trace %d = %s/%q, want %s/victim", i, kt.TraceID, kt.Program, ids[i])
		}
	}
}

// TestRecoverDumpNoPanicIsNoOp: a clean return must not write anything.
func TestRecoverDumpNoPanicIsNoOp(t *testing.T) {
	dir := t.TempDir()
	func() {
		defer RecoverDump(dir, nil)
	}()
	if _, err := os.Stat(filepath.Join(dir, BlackBoxFile)); !os.IsNotExist(err) {
		t.Fatalf("black-box file written on clean return (stat err %v)", err)
	}
}

// TestDumpTraceNilTracer: the disabled-tracing path (a nil recorder)
// still produces a valid, empty recording rather than crashing the
// crash handler.
func TestDumpTraceNilTracer(t *testing.T) {
	dir := t.TempDir()
	path, err := DumpTrace(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var kept []span.KeptTrace
	if err := json.Unmarshal(data, &kept); err != nil || kept == nil || len(kept) != 0 {
		t.Fatalf("nil-recorder dump %q (err %v), want empty array", data, err)
	}
}
