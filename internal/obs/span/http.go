package span

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"
)

// WriteJSON writes the kept traces as the unfiltered JSON array /traces
// serves (oldest kept first) — the one record format behind /traces,
// -trace-out and the checkpoint black box. A nil recorder writes [].
func (r *Recorder) WriteJSON(w io.Writer) error {
	return writeTraces(w, r.Snapshot())
}

func writeTraces(w io.Writer, kept []*KeptTrace) error {
	if kept == nil {
		kept = []*KeptTrace{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(kept)
}

// Handler serves the kept-trace ring as a JSON array (oldest kept
// first), with query filters that make it a small trace explorer:
//
//	?stage=wal-fsync   only traces containing a span with this stage
//	?min_ms=5          only traces whose root lasted at least this long
//	?detector=3        only traces that touched this detector index
//	?limit=20          newest N matches
//
// Works on a nil recorder (empty array).
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		stage := q.Get("stage")
		var minDur time.Duration
		if v := q.Get("min_ms"); v != "" {
			ms, err := strconv.ParseFloat(v, 64)
			if err != nil {
				http.Error(w, "bad min_ms: "+err.Error(), http.StatusBadRequest)
				return
			}
			minDur = time.Duration(ms * float64(time.Millisecond))
		}
		detector, haveDet := -1, false
		if v := q.Get("detector"); v != "" {
			d, err := strconv.Atoi(v)
			if err != nil {
				http.Error(w, "bad detector: "+err.Error(), http.StatusBadRequest)
				return
			}
			detector, haveDet = d, true
		}
		limit := 0
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
			limit = n
		}

		kept := r.Snapshot()
		out := make([]*KeptTrace, 0, len(kept))
		for _, kt := range kept {
			if kt.Dur < minDur {
				continue
			}
			if stage != "" && !kt.hasStage(stage) {
				continue
			}
			if haveDet && !kt.hasDetector(detector) {
				continue
			}
			out = append(out, kt)
		}
		if limit > 0 && len(out) > limit {
			out = out[len(out)-limit:]
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = writeTraces(w, out)
	})
}

func (kt *KeptTrace) hasStage(stage string) bool {
	for i := range kt.Spans {
		if kt.Spans[i].Stage == stage {
			return true
		}
	}
	return false
}

func (kt *KeptTrace) hasDetector(d int) bool {
	for i := range kt.Spans {
		if kt.Spans[i].Detector == d {
			return true
		}
	}
	return false
}
