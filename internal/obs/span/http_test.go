package span

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// tracesHandlerFixture builds a recorder with three kept traces of
// known shape:
//
//	#1 root 2ms,  classify span on detector 0
//	#2 root 20ms, classify span on detector 3
//	#3 root 40ms, wal-fsync span, no classify
//
// KeepEvery=1 keeps everything, so the counts below are exact.
func tracesHandlerFixture(t *testing.T) *Recorder {
	t.Helper()
	now := time.Unix(1_000_000, 0)
	r, err := NewRecorder(Config{
		Now:       func() time.Time { return now },
		KeepEvery: 1,
		Slow:      time.Hour, // keep decisions come from the baseline only
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	build := func(rootDur time.Duration, stage string, detector int) {
		tr := r.Start("p", StageVerdict)
		s := tr.StartSpan(stage, nil)
		s.Detector = detector
		tr.EndSpan(s)
		now = now.Add(rootDur)
		tr.Finish()
		now = now.Add(time.Second)
	}
	build(2*time.Millisecond, StageClassify, 0)
	build(20*time.Millisecond, StageClassify, 3)
	build(40*time.Millisecond, StageWALFsync, -1)
	return r
}

// get runs one query against the handler and returns status plus the
// decoded trace count (-1 when the body is not a JSON array).
func get(t *testing.T, r *Recorder, query string) (int, int) {
	t.Helper()
	rr := httptest.NewRecorder()
	r.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/traces"+query, nil))
	if rr.Code != 200 {
		return rr.Code, -1
	}
	var out []*KeptTrace
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s: body is not a trace array: %v", query, err)
	}
	return rr.Code, len(out)
}

// TestTracesHandlerFilters pins the exact status and result count for
// every query-parsing edge the handler documents.
func TestTracesHandlerFilters(t *testing.T) {
	r := tracesHandlerFixture(t)

	cases := []struct {
		query      string
		wantStatus int
		wantCount  int
	}{
		{"", 200, 3},

		// min_ms: float accepted, threshold is inclusive (root Dur ≥).
		{"?min_ms=2", 200, 3},
		{"?min_ms=2.5", 200, 2},
		{"?min_ms=20", 200, 2},
		{"?min_ms=41", 200, 0},
		{"?min_ms=0", 200, 3},
		{"?min_ms=abc", 400, -1},
		{"?min_ms=", 200, 3}, // empty value means unset, not an error

		// stage: exact match against any span; unknown stages are an
		// empty result, not an error.
		{"?stage=" + StageClassify, 200, 2},
		{"?stage=" + StageWALFsync, 200, 1},
		{"?stage=no-such-stage", 200, 0},

		// detector: integers only; -1 matches spans not tied to one
		// (every root, so all traces).
		{"?detector=3", 200, 1},
		{"?detector=0", 200, 1},
		{"?detector=7", 200, 0},
		{"?detector=-1", 200, 3},
		{"?detector=2.5", 400, -1},
		{"?detector=x", 400, -1},

		// limit: 0 and unset mean unlimited; negative and non-numeric
		// are rejected.
		{"?limit=2", 200, 2},
		{"?limit=0", 200, 3},
		{"?limit=99", 200, 3},
		{"?limit=-1", 400, -1},
		{"?limit=two", 400, -1},

		// Filters compose before limit applies.
		{"?stage=" + StageClassify + "&min_ms=10", 200, 1},
		{"?stage=" + StageClassify + "&detector=0&min_ms=10", 200, 0},
		{"?min_ms=1&limit=1", 200, 1},
	}
	for _, c := range cases {
		status, count := get(t, r, c.query)
		if status != c.wantStatus || count != c.wantCount {
			t.Errorf("GET /traces%s = (%d, %d traces), want (%d, %d)",
				c.query, status, count, c.wantStatus, c.wantCount)
		}
	}
}

// TestTracesHandlerLimitKeepsNewest: limit trims from the oldest side.
func TestTracesHandlerLimitKeepsNewest(t *testing.T) {
	r := tracesHandlerFixture(t)
	rr := httptest.NewRecorder()
	r.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/traces?limit=1", nil))
	var out []*KeptTrace
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !out[0].hasStage(StageWALFsync) {
		t.Fatalf("limit=1 kept %d traces %+v, want the newest (wal-fsync)", len(out), out)
	}
}

// TestTracesHandlerBadRequestBodies: parse failures name the offending
// parameter so operators can fix the query.
func TestTracesHandlerBadRequestBodies(t *testing.T) {
	r := tracesHandlerFixture(t)
	for query, want := range map[string]string{
		"?min_ms=abc":  "bad min_ms",
		"?detector=zz": "bad detector",
		"?limit=-3":    "bad limit",
	} {
		rr := httptest.NewRecorder()
		r.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/traces"+query, nil))
		if rr.Code != 400 || !strings.Contains(rr.Body.String(), want) {
			t.Errorf("GET /traces%s = %d %q, want 400 mentioning %q", query, rr.Code, rr.Body.String(), want)
		}
	}
}

// TestTracesHandlerNilRecorder: a nil recorder serves an empty array —
// the disabled-tracing path must not 500.
func TestTracesHandlerNilRecorder(t *testing.T) {
	var r *Recorder
	rr := httptest.NewRecorder()
	r.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/traces", nil))
	if rr.Code != 200 || strings.TrimSpace(rr.Body.String()) != "[]" {
		t.Fatalf("nil recorder: %d %q, want 200 []", rr.Code, rr.Body.String())
	}
}

// TestWriteJSONMatchesUnfilteredHandler: the file writers (-trace-out,
// the checkpoint black box) and an unfiltered /traces scrape produce
// the same bytes, and a nil recorder writes an empty array.
func TestWriteJSONMatchesUnfilteredHandler(t *testing.T) {
	r := tracesHandlerFixture(t)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	r.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/traces", nil))
	if b.String() != rr.Body.String() {
		t.Fatalf("WriteJSON and /traces disagree:\n%s\n---\n%s", b.String(), rr.Body.String())
	}

	var nilRec *Recorder
	b.Reset()
	if err := nilRec.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != "[]" {
		t.Fatalf("nil recorder wrote %q, want []", b.String())
	}
}
