package monitor

import (
	"testing"
	"time"

	"rhmd/internal/checkpoint"
	"rhmd/internal/core"
	"rhmd/internal/obs"
	"rhmd/internal/obs/span"
)

// TestVerdictTracesAreWellFormedTrees is the span-tracing e2e: a full
// corpus streamed through an engine with fault injection, a durable
// checkpoint store, concurrent workers and keep-everything sampling —
// run under -race in CI. Every kept trace must be a well-formed tree:
// exactly one root, no orphan parent references, every child's
// interval inside its parent's, and a wal-fsync span on every emitted
// verdict. Every report's TraceID must resolve to a kept trace.
func TestVerdictTracesAreWellFormedTrees(t *testing.T) {
	f := getFixture(t)
	r, err := core.New(f.pool, 0xFEED)
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.Open(t.TempDir(), checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg := obs.NewRegistry()
	rec, err := span.NewRecorder(span.Config{
		Seed: 0xFEED,
		Now:  time.Now,
		// Keep every trace and size the ring so nothing is overwritten:
		// the assertions below must see the complete population.
		KeepEvery: 1,
		Capacity:  4 * len(f.programs),
		Slow:      time.Hour,
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	deadline := 30 * time.Millisecond
	e, err := New(r, Config{
		Workers: 4, QueueDepth: len(f.programs), TraceLen: f.traceLen,
		WindowDeadline: deadline, ProbeAfter: 40,
		Injector:   acceptanceInjector(4),
		Metrics:    reg,
		Spans:      rec,
		Exemplars:  true,
		Checkpoint: store,
		// Long enough that only the final drain checkpoint fires
		// deterministically; periodic ones are a bonus if the run is slow.
		CheckpointEvery: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	reports := runStream(t, e, f.programs)

	byID := map[string]*span.KeptTrace{}
	verdicts := 0
	for _, kt := range rec.Snapshot() {
		byID[kt.TraceID] = kt
		assertWellFormed(t, kt)
		if kt.Spans[0].Stage == span.StageVerdict {
			verdicts++
		}
	}
	// KeepEvery=1 with an oversized ring: every emitted verdict trace
	// survives, plus at least the final drain checkpoint's root trace.
	if verdicts != len(reports) {
		t.Fatalf("%d kept verdict traces for %d reports", verdicts, len(reports))
	}
	if verdicts == len(byID) {
		t.Fatal("no checkpoint trace kept (final drain snapshot missing)")
	}
	for name, rep := range reports {
		if rep.TraceID == "" {
			t.Fatalf("%s: report has no trace ID under keep-everything sampling", name)
		}
		kt, ok := byID[rep.TraceID]
		if !ok {
			t.Fatalf("%s: trace %s not in the kept ring", name, rep.TraceID)
		}
		if kt.Program != name {
			t.Fatalf("trace %s belongs to %q, report says %q", rep.TraceID, kt.Program, name)
		}
	}
	if rec.Kept() == 0 || rec.Dropped() != 0 {
		t.Fatalf("sampler accounting kept=%d dropped=%d under keep-everything", rec.Kept(), rec.Dropped())
	}
}

// assertWellFormed checks one kept trace's tree invariants.
func assertWellFormed(t *testing.T, kt *span.KeptTrace) {
	t.Helper()
	if len(kt.Spans) == 0 {
		t.Fatalf("trace %s has no spans", kt.TraceID)
	}
	spans := map[string]span.SpanRecord{}
	roots, fsyncs := 0, 0
	for _, s := range kt.Spans {
		if s.SpanID == "" {
			t.Fatalf("trace %s: span with empty ID", kt.TraceID)
		}
		if _, dup := spans[s.SpanID]; dup {
			t.Fatalf("trace %s: duplicate span ID %s", kt.TraceID, s.SpanID)
		}
		spans[s.SpanID] = s
		if s.ParentID == "" {
			roots++
			if s.Stage != span.StageVerdict && s.Stage != span.StageCheckpoint {
				t.Fatalf("trace %s: root stage %q", kt.TraceID, s.Stage)
			}
		}
		if s.Stage == span.StageWALFsync {
			fsyncs++
		}
	}
	if roots != 1 {
		t.Fatalf("trace %s: %d roots", kt.TraceID, roots)
	}
	root := kt.Spans[0]
	if root.ParentID != "" {
		t.Fatalf("trace %s: first span %q is not the root", kt.TraceID, root.Stage)
	}
	if root.Stage == span.StageVerdict && fsyncs != 1 {
		t.Fatalf("trace %s: verdict carries %d wal-fsync spans, want 1", kt.TraceID, fsyncs)
	}
	for _, s := range kt.Spans {
		if s.Dur < 0 {
			t.Fatalf("trace %s: span %s(%s) negative duration %v", kt.TraceID, s.SpanID, s.Stage, s.Dur)
		}
		if s.ParentID == "" {
			continue
		}
		p, ok := spans[s.ParentID]
		if !ok {
			t.Fatalf("trace %s: span %s(%s) references unknown parent %s", kt.TraceID, s.SpanID, s.Stage, s.ParentID)
		}
		if s.Start.Before(p.Start) {
			t.Fatalf("trace %s: %s span starts %v before its %s parent", kt.TraceID, s.Stage, p.Start.Sub(s.Start), p.Stage)
		}
		if end, pend := s.Start.Add(s.Dur), p.Start.Add(p.Dur); end.After(pend) {
			t.Fatalf("trace %s: %s span ends %v after its %s parent", kt.TraceID, s.Stage, end.Sub(pend), p.Stage)
		}
	}
}
