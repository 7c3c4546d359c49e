package span

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rhmd/internal/obs"
)

// testClock returns a deterministic clock advancing step per call.
func testClock(step time.Duration) func() time.Time {
	now := time.Unix(1_000_000, 0)
	return func() time.Time {
		now = now.Add(step)
		return now
	}
}

func newTestRecorder(t *testing.T, cfg Config) *Recorder {
	t.Helper()
	if cfg.Now == nil {
		cfg.Now = testClock(time.Millisecond)
	}
	r, err := NewRecorder(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestIDSourceDeterministic: same seed → same ID stream; consecutive
// IDs are distinct and non-zero. The determinism analyzer guarantees
// no wall clock sneaks in; this pins the seeded stream itself.
func TestIDSourceDeterministic(t *testing.T) {
	a, b := NewIDSource(7), NewIDSource(7)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		ta, tb := a.TraceID(), b.TraceID()
		if ta != tb {
			t.Fatalf("draw %d: %s != %s for equal seeds", i, ta, tb)
		}
		if ta.IsZero() {
			t.Fatal("minted zero trace ID")
		}
		if seen[ta.String()] {
			t.Fatalf("duplicate trace ID %s", ta)
		}
		seen[ta.String()] = true
		sa, sb := a.SpanID(), b.SpanID()
		if sa != sb || sa.String() == "" {
			t.Fatalf("span IDs diverged or zero: %s %s", sa, sb)
		}
	}
	if other := NewIDSource(8).TraceID(); seen[other.String()] {
		t.Fatal("different seed reproduced an ID from seed 7")
	}
}

// TestTailSamplerPolicy: flags keep, plain traces drop, slowness is
// derived from the injected clock, and the 1-in-N baseline fires on
// schedule.
func TestTailSamplerPolicy(t *testing.T) {
	r := newTestRecorder(t, Config{Slow: 10 * time.Millisecond, KeepEvery: 4, Capacity: 64})

	finish := func(flag Reason, spans int) string {
		tr := r.Start("p", StageVerdict)
		for i := 0; i < spans; i++ {
			s := tr.StartSpan(StageClassify, nil)
			tr.EndSpan(s)
		}
		if flag != 0 {
			tr.Flag(flag)
		}
		return tr.Finish()
	}

	// Trace 1 (baseline counter 1): kept by the 1-in-4 baseline.
	if id := finish(0, 1); id == "" {
		t.Fatal("first trace should hit the 1-in-4 baseline")
	}
	// Traces 2-4: unflagged, fast → dropped.
	for i := 0; i < 3; i++ {
		if id := finish(0, 1); id != "" {
			t.Fatalf("unflagged fast trace %d kept (id %s)", i, id)
		}
	}
	if r.Dropped() != 3 {
		t.Fatalf("dropped %d, want 3", r.Dropped())
	}
	// Trace 5: baseline again.
	if finish(0, 1) == "" {
		t.Fatal("trace 5 should hit the baseline")
	}
	// Flag keeps, off-baseline.
	for _, reason := range []Reason{ReasonShed, ReasonRetried, ReasonErrored, ReasonBreaker} {
		if finish(reason, 2) == "" {
			t.Fatalf("trace flagged %v was dropped", reason.names())
		}
	}
	// Slow keep: with a 1ms-per-clock-read step, 20 spans push the root
	// past the 10ms threshold.
	id := finish(0, 20)
	if id == "" {
		t.Fatal("slow trace was dropped")
	}
	kept := r.Snapshot()
	last := kept[len(kept)-1]
	if last.TraceID != id {
		t.Fatalf("last kept trace %s, want %s", last.TraceID, id)
	}
	found := false
	for _, reason := range last.Reasons {
		if reason == "slow" {
			found = true
		}
	}
	if !found {
		t.Fatalf("slow trace reasons %v missing \"slow\"", last.Reasons)
	}
	if r.Kept() != uint64(len(kept)) {
		t.Fatalf("kept counter %d, ring holds %d", r.Kept(), len(kept))
	}
}

// TestKeptRingOverwrite: the kept ring keeps the newest Capacity
// traces, oldest overwritten first.
func TestKeptRingOverwrite(t *testing.T) {
	r := newTestRecorder(t, Config{Capacity: 2, KeepEvery: 1})
	for i := 0; i < 5; i++ {
		tr := r.Start("p", StageVerdict)
		if tr.Finish() == "" {
			t.Fatal("KeepEvery=1 must keep everything")
		}
	}
	kept := r.Snapshot()
	if len(kept) != 2 || kept[0].Seq != 3 || kept[1].Seq != 4 {
		t.Fatalf("ring kept %d traces, seqs %v", len(kept), kept)
	}
	if r.Kept() != 5 || r.Dropped() != 0 {
		t.Fatalf("kept=%d dropped=%d", r.Kept(), r.Dropped())
	}
}

// TestSpanTreeShape: parent linkage defaults to the root, explicit
// parents are honored, and the kept record preserves the attributes.
func TestSpanTreeShape(t *testing.T) {
	r := newTestRecorder(t, Config{KeepEvery: 1})
	tr := r.Start("prog-7", StageVerdict)
	worker := tr.StartSpan(StageWorker, nil)
	draw := tr.StartSpan(StageDraw, worker)
	draw.Detector, draw.Window, draw.Weight = 3, 0, 0.25
	tr.EndSpan(draw)
	tr.EndSpan(worker)
	tr.SetVerdict("malware")
	if tr.Finish() == "" {
		t.Fatal("trace dropped")
	}

	kt := r.Snapshot()[0]
	if kt.Program != "prog-7" || kt.Verdict != "malware" {
		t.Fatalf("kept %+v", kt)
	}
	if len(kt.Spans) != 3 {
		t.Fatalf("%d spans, want 3", len(kt.Spans))
	}
	root, w, d := kt.Spans[0], kt.Spans[1], kt.Spans[2]
	if root.Stage != StageVerdict || root.ParentID != "" {
		t.Fatalf("root %+v", root)
	}
	if w.ParentID != root.SpanID {
		t.Fatalf("worker parent %q, want root %q", w.ParentID, root.SpanID)
	}
	if d.ParentID != w.SpanID || d.Detector != 3 || d.Weight != 0.25 {
		t.Fatalf("draw %+v", d)
	}
	if root.Dur <= 0 {
		t.Fatal("root duration not stamped by Finish")
	}
}

// TestNilRecorderAndTrace: the nil recorder is the documented off
// switch — every call is a no-op and the handler serves an empty set.
func TestNilRecorderAndTrace(t *testing.T) {
	var r *Recorder
	tr := r.Start("p", StageVerdict)
	if tr != nil {
		t.Fatal("nil recorder produced a trace")
	}
	s := tr.StartSpan(StageWorker, nil)
	tr.EndSpan(s)
	tr.Flag(ReasonErrored)
	tr.SetVerdict("x")
	if got := tr.Finish(); got != "" {
		t.Fatalf("nil trace finished with id %q", got)
	}
	if r.Kept() != 0 || r.Dropped() != 0 || r.Snapshot() != nil {
		t.Fatal("nil recorder retained state")
	}

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []*KeptTrace
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || len(out) != 0 {
		t.Fatalf("nil recorder served %v (err %v)", out, err)
	}
}

// TestHandlerFilters: stage / min_ms / detector / limit queries narrow
// the served set.
func TestHandlerFilters(t *testing.T) {
	r := newTestRecorder(t, Config{KeepEvery: 1, Slow: time.Hour})

	// Trace A: detector 1, short, has wal-fsync.
	tr := r.Start("a", StageVerdict)
	s := tr.StartSpan(StageWALFsync, nil)
	s.Detector = 1
	tr.EndSpan(s)
	tr.Finish()
	// Trace B: detector 2, long (40 extra clock reads ≈ 40ms root).
	tr = r.Start("b", StageVerdict)
	for i := 0; i < 20; i++ {
		c := tr.StartSpan(StageClassify, nil)
		c.Detector = 2
		tr.EndSpan(c)
	}
	tr.Finish()

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	get := func(query string) []*KeptTrace {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", query, resp.StatusCode)
		}
		var out []*KeptTrace
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	if out := get(""); len(out) != 2 {
		t.Fatalf("unfiltered: %d traces", len(out))
	}
	if out := get("?stage=wal-fsync"); len(out) != 1 || out[0].Program != "a" {
		t.Fatalf("stage filter: %+v", out)
	}
	if out := get("?detector=2"); len(out) != 1 || out[0].Program != "b" {
		t.Fatalf("detector filter: %+v", out)
	}
	if out := get("?min_ms=30"); len(out) != 1 || out[0].Program != "b" {
		t.Fatalf("min_ms filter: %+v", out)
	}
	if out := get("?limit=1"); len(out) != 1 || out[0].Program != "b" {
		t.Fatalf("limit: %+v", out)
	}
	if out := get("?stage=nope&detector=9"); len(out) != 0 {
		t.Fatalf("impossible filter matched: %+v", out)
	}

	resp, err := srv.Client().Get(srv.URL + "?min_ms=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad min_ms: status %d", resp.StatusCode)
	}
}

// TestRecorderCounters: the kept/dropped counters register in a real
// registry under the documented names and show up in a scrape.
func TestRecorderCounters(t *testing.T) {
	reg := obs.NewRegistry()
	r, err := NewRecorder(Config{Now: testClock(time.Millisecond), KeepEvery: 2}, reg)
	if err != nil {
		t.Fatal(err)
	}
	r.Start("a", StageVerdict).Finish() // baseline keep
	r.Start("b", StageVerdict).Finish() // dropped
	if r.Kept() != 1 || r.Dropped() != 1 {
		t.Fatalf("kept=%d dropped=%d", r.Kept(), r.Dropped())
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rhmd_verdict_traces_kept_total 1", "rhmd_verdict_traces_dropped_total 1"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("scrape missing %q:\n%s", want, b.String())
		}
	}
}
