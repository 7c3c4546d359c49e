package obs

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the exact exposition bytes for a small
// registry covering all three kinds, labels, escaping and histogram
// expansion — the contract a scraper parses.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "a counter").Add(7)
	r.GaugeVec("a_gauge", "labeled gauge", "det", "spec").With("0", `lr/"mem"@1000`).Set(0.25)
	h := r.Histogram("c_seconds", "latency\nwith newline", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_gauge labeled gauge
# TYPE a_gauge gauge
a_gauge{det="0",spec="lr/\"mem\"@1000"} 0.25
# HELP b_total a counter
# TYPE b_total counter
b_total 7
# HELP c_seconds latency\nwith newline
# TYPE c_seconds histogram
c_seconds_bucket{le="0.001"} 1
c_seconds_bucket{le="0.01"} 2
c_seconds_bucket{le="+Inf"} 3
c_seconds_sum 5.0055
c_seconds_count 3
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestEmptyFamilyOmitted: a registered family with no children (a vec
// nobody resolved) emits nothing, not a dangling TYPE line.
func TestEmptyFamilyOmitted(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("unused_total", "h", "k")
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "" {
		t.Fatalf("empty vec produced output: %q", b.String())
	}
}

// TestMetricsHandler: the HTTP surface serves the exposition with the
// Prometheus content type.
func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "h").Inc()
	srv := httptest.NewServer(NewMux(r))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "hits_total 1") {
		t.Fatalf("body missing sample:\n%s", body)
	}

	// pprof and health ride the same mux.
	for _, path := range []string{"/healthz", "/debug/pprof/"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
	}
}
