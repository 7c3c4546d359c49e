package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWriteOpenMetrics pins the OpenMetrics rendering: counter families
// drop the _total suffix in HELP/TYPE while samples keep it, histogram
// buckets carry exemplars, and the stream ends with `# EOF`.
func TestWriteOpenMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("om_events_total", "events seen").Add(3)
	r.Gauge("om_depth", "queue depth").Set(2.5)
	h := r.Histogram("om_latency_seconds", "latency", []float64{0.1, 1})
	h.ObserveExemplar(0.05, "00000000000000000000000000000abc")
	h.Observe(5) // +Inf bucket, no exemplar

	var b strings.Builder
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	for _, want := range []string{
		"# HELP om_events events seen",
		"# TYPE om_events counter",
		"om_events_total 3",
		"# TYPE om_depth gauge",
		"om_depth 2.5",
		"# TYPE om_latency_seconds histogram",
		`om_latency_seconds_bucket{le="0.1"} 1 # {trace_id="00000000000000000000000000000abc"} 0.05`,
		`om_latency_seconds_bucket{le="1"} 1`,
		`om_latency_seconds_bucket{le="+Inf"} 2`,
		"om_latency_seconds_sum 5.05",
		"om_latency_seconds_count 2",
	} {
		if !strings.Contains(got, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, got)
		}
	}
	if !strings.HasSuffix(got, "# EOF\n") {
		t.Fatalf("exposition does not end with # EOF:\n%s", got)
	}
	// The exemplar must never leak into the 0.0.4 exposition.
	b.Reset()
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "trace_id") || strings.Contains(b.String(), "# EOF") {
		t.Fatalf("0.0.4 exposition leaked OpenMetrics syntax:\n%s", b.String())
	}
}

// TestMetricsContentNegotiation drives the /metrics handler through the
// Accept headers real scrapers send and asserts which exposition each
// one gets. The zero-config path (no Accept header) must stay on the
// 0.0.4 text format so pre-existing scrapers see no change.
func TestMetricsContentNegotiation(t *testing.T) {
	r := NewRegistry()
	r.Counter("neg_total", "negotiation probe").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	cases := []struct {
		name   string
		accept string
		wantCT string
		eof    bool
	}{
		{"no header", "", ContentTypePrometheus, false},
		{"wildcard", "*/*", ContentTypePrometheus, false},
		{"text plain", "text/plain", ContentTypePrometheus, false},
		{"openmetrics", "application/openmetrics-text", ContentTypeOpenMetrics, true},
		{"openmetrics versioned", "application/openmetrics-text; version=1.0.0; charset=utf-8", ContentTypeOpenMetrics, true},
		{
			"prometheus default scrape",
			"application/openmetrics-text;version=1.0.0;q=0.75,text/plain;version=0.0.4;q=0.5,*/*;q=0.1",
			ContentTypeOpenMetrics, true,
		},
		{"openmetrics losing on q", "application/openmetrics-text;q=0.1, text/plain;q=0.9", ContentTypePrometheus, false},
		{"openmetrics disabled by q=0", "application/openmetrics-text;q=0", ContentTypePrometheus, false},
		{"tie goes to openmetrics", "application/openmetrics-text;q=0.5, text/plain;q=0.5", ContentTypeOpenMetrics, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodGet, srv.URL, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if ct := resp.Header.Get("Content-Type"); ct != tc.wantCT {
				t.Fatalf("Accept %q: content type %q, want %q", tc.accept, ct, tc.wantCT)
			}
			if got := strings.HasSuffix(string(body), "# EOF\n"); got != tc.eof {
				t.Fatalf("Accept %q: EOF terminator present=%v, want %v\n%s", tc.accept, got, tc.eof, body)
			}
			if !strings.Contains(string(body), "neg_total 1") {
				t.Fatalf("Accept %q: sample missing:\n%s", tc.accept, body)
			}
		})
	}
}
