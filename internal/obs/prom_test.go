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

// TestExpositionGolden pins both expositions byte for byte over one
// registry holding every shape the writers render: scalar and labeled
// counters, a counter registered without `_total`, a gauge and a gauge
// func, a labeled histogram with exemplars (one timestamped in a finite
// bucket, one without a timestamp in +Inf) and a plain one, a family
// registered through a WithLabel view, and an empty vec.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "requests served").Add(7)
	r.CounterVec("err_total", "errors by code", "code").With("500").Add(2)
	r.Counter("raw_events", "a counter named without the suffix").Add(4)
	r.Gauge("depth", "queue depth").Set(2.5)
	r.GaugeFunc("uptime_seconds", "computed at read time", func() float64 { return 12.25 })
	lat := r.HistogramVec("lat_seconds", "latency\nby stage", []float64{0.25, 1}, "stage")
	lat.With("classify").ObserveExemplar(0.5, "00000000000000000000000000000abc", 1700000000.5)
	lat.With("classify").Observe(2)
	lat.With("trace").ObserveExemplar(4, "00000000000000000000000000000def", 0)
	r.Histogram("size_bytes", "sizes", []float64{100}).Observe(50)
	r.WithLabel("shard", "1").Counter("shard_verdicts_total", "verdicts per shard").Add(9)
	r.CounterVec("unused_total", "never resolved", "k")

	const prom = `# HELP depth queue depth
# TYPE depth gauge
depth 2.5
# HELP err_total errors by code
# TYPE err_total counter
err_total{code="500"} 2
# HELP lat_seconds latency\nby stage
# TYPE lat_seconds histogram
lat_seconds_bucket{stage="classify",le="0.25"} 0
lat_seconds_bucket{stage="classify",le="1"} 1
lat_seconds_bucket{stage="classify",le="+Inf"} 2
lat_seconds_sum{stage="classify"} 2.5
lat_seconds_count{stage="classify"} 2
lat_seconds_bucket{stage="trace",le="0.25"} 0
lat_seconds_bucket{stage="trace",le="1"} 0
lat_seconds_bucket{stage="trace",le="+Inf"} 1
lat_seconds_sum{stage="trace"} 4
lat_seconds_count{stage="trace"} 1
# HELP raw_events a counter named without the suffix
# TYPE raw_events counter
raw_events 4
# HELP req_total requests served
# TYPE req_total counter
req_total 7
# HELP shard_verdicts_total verdicts per shard
# TYPE shard_verdicts_total counter
shard_verdicts_total{shard="1"} 9
# HELP size_bytes sizes
# TYPE size_bytes histogram
size_bytes_bucket{le="100"} 1
size_bytes_bucket{le="+Inf"} 1
size_bytes_sum 50
size_bytes_count 1
# HELP uptime_seconds computed at read time
# TYPE uptime_seconds gauge
uptime_seconds 12.25
`
	const openMetrics = `# HELP depth queue depth
# TYPE depth gauge
depth 2.5
# HELP err errors by code
# TYPE err counter
err_total{code="500"} 2
# HELP lat_seconds latency\nby stage
# TYPE lat_seconds histogram
lat_seconds_bucket{stage="classify",le="0.25"} 0
lat_seconds_bucket{stage="classify",le="1"} 1 # {trace_id="00000000000000000000000000000abc"} 0.5 1700000000.500
lat_seconds_bucket{stage="classify",le="+Inf"} 2
lat_seconds_sum{stage="classify"} 2.5
lat_seconds_count{stage="classify"} 2
lat_seconds_bucket{stage="trace",le="0.25"} 0
lat_seconds_bucket{stage="trace",le="1"} 0
lat_seconds_bucket{stage="trace",le="+Inf"} 1 # {trace_id="00000000000000000000000000000def"} 4
lat_seconds_sum{stage="trace"} 4
lat_seconds_count{stage="trace"} 1
# HELP raw_events a counter named without the suffix
# TYPE raw_events counter
raw_events_total 4
# HELP req requests served
# TYPE req counter
req_total 7
# HELP shard_verdicts verdicts per shard
# TYPE shard_verdicts counter
shard_verdicts_total{shard="1"} 9
# HELP size_bytes sizes
# TYPE size_bytes histogram
size_bytes_bucket{le="100"} 1
size_bytes_bucket{le="+Inf"} 1
size_bytes_sum 50
size_bytes_count 1
# HELP uptime_seconds computed at read time
# TYPE uptime_seconds gauge
uptime_seconds 12.25
# EOF
`
	for _, tc := range []struct {
		name  string
		write func(io.Writer) error
		want  string
	}{
		{"prometheus", r.WritePrometheus, prom},
		{"openmetrics", r.WriteOpenMetrics, openMetrics},
	} {
		var b strings.Builder
		if err := tc.write(&b); err != nil {
			t.Fatal(err)
		}
		if b.String() != tc.want {
			t.Errorf("%s exposition mismatch:\n--- got ---\n%s--- want ---\n%s", tc.name, b.String(), tc.want)
		}
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
