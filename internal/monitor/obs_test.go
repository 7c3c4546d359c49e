package monitor

import (
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"rhmd/internal/core"
	"rhmd/internal/obs"
	"rhmd/internal/obs/span"
)

// scrape GETs path from an httptest server mounted over the engine's
// observability mux and returns the body.
func scrape(t *testing.T, srv *httptest.Server, path string) (string, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// keptRecorder returns a recorder registered in reg whose kept ring is
// sized so n verdicts never overwrite one another. keepEvery 1 keeps
// every trace; -1 keeps only flagged ones.
func keptRecorder(t *testing.T, reg *obs.Registry, n, keepEvery int) *span.Recorder {
	t.Helper()
	rec, err := span.NewRecorder(span.Config{Seed: 0xFEED, Now: time.Now, KeepEvery: keepEvery,
		Capacity: 4 * n, Slow: time.Hour}, reg)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestMetricsEndpointServesSwitchingDistribution is the PR's acceptance
// scenario: a healthy engine serves a corpus while exposing /metrics
// over HTTP; the scrape must be valid Prometheus text exposition whose
// per-detector latency histograms are populated and whose switching-draw
// counters empirically match the configured LiveSampler weights.
func TestMetricsEndpointServesSwitchingDistribution(t *testing.T) {
	f := getFixture(t)
	r, err := core.New(f.pool, 0xFEED)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rec := keptRecorder(t, reg, len(f.programs), 1)
	e, err := New(r, Config{Workers: 4, QueueDepth: len(f.programs), TraceLen: f.traceLen,
		WindowDeadline: 2 * time.Second, Metrics: reg, Spans: rec})
	if err != nil {
		t.Fatal(err)
	}
	if e.Registry() != reg {
		t.Fatal("engine did not adopt the provided registry")
	}
	runStream(t, e, f.programs)
	st := e.Stats()

	srv := httptest.NewServer(obs.NewMux(e.Registry(), obs.Mount{Path: "/traces", Handler: rec.Handler()}))
	defer srv.Close()
	body, ct := scrape(t, srv, "/metrics")
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}

	// Valid exposition for the latency histograms: TYPE line, per-bucket
	// cumulative series with le labels, matching _count totals.
	if !strings.Contains(body, "# TYPE rhmd_monitor_detector_latency_seconds histogram") {
		t.Fatal("latency histogram family missing")
	}
	if !regexp.MustCompile(`rhmd_monitor_detector_latency_seconds_bucket\{detector="0",spec="[^"]+",le="\+Inf"\} \d+`).MatchString(body) {
		t.Fatal("latency histogram +Inf bucket missing for detector 0")
	}
	latCounts := parseSamples(t, body, "rhmd_monitor_detector_latency_seconds_count")
	var latTotal uint64
	for _, v := range latCounts {
		latTotal += v
	}
	if latTotal != st.Windows {
		t.Fatalf("latency observations %d != classified windows %d (healthy pool: one call per window)", latTotal, st.Windows)
	}

	// Counter consistency: the scrape and Stats() are the same numbers.
	wins := parseSamples(t, body, "rhmd_monitor_windows_total")
	if wins[`outcome="classified"`] != st.Windows || wins[`outcome="flagged"`] != st.Flagged {
		t.Fatalf("scraped windows %v disagree with stats %+v", wins, st)
	}
	progs := parseSamples(t, body, "rhmd_monitor_programs_total")
	if progs[`outcome="processed"`] != st.ProgramsProcessed {
		t.Fatalf("scraped programs %v disagree with stats %+v", progs, st)
	}

	// The acceptance check: empirical switching-draw distribution vs the
	// configured LiveSampler weights. The pool stayed healthy, so every
	// detector's weight is its original switching probability.
	draws := parseSamples(t, body, "rhmd_monitor_switch_draws_total")
	if len(draws) != r.Size() {
		t.Fatalf("draw counters for %d detectors, want %d", len(draws), r.Size())
	}
	var total uint64
	for _, v := range draws {
		total += v
	}
	// The scheduler runs one pick ahead of extraction, so each program
	// costs one extra draw for its discarded trailing partial window.
	if want := st.Windows + st.ProgramsProcessed; total != want {
		t.Fatalf("%d draws, want %d (one per window plus one trailing draw per program)", total, want)
	}
	detRE := regexp.MustCompile(`detector="(\d+)"`)
	for labels, v := range draws {
		m := detRE.FindStringSubmatch(labels)
		if m == nil {
			t.Fatalf("draw sample %q lacks detector label", labels)
		}
		i, _ := strconv.Atoi(m[1])
		got := float64(v) / float64(total)
		want := st.Detectors[i].Weight
		if math.Abs(got-want) > 0.05 {
			t.Fatalf("detector %d empirical draw share %.4f vs LiveSampler weight %.4f (>0.05 off, %d/%d draws)",
				i, got, want, v, total)
		}
	}

	// The kept traces drain over the same mux: one per verdict, each
	// covering the submit → extract → classify → vote lifecycle.
	tbody, tct := scrape(t, srv, "/traces")
	if !strings.HasPrefix(tct, "application/json") {
		t.Fatalf("trace content type %q", tct)
	}
	var kept []span.KeptTrace
	if err := json.Unmarshal([]byte(tbody), &kept); err != nil {
		t.Fatal(err)
	}
	if uint64(len(kept)) != st.ProgramsProcessed {
		t.Fatalf("%d kept traces for %d verdicts under keep-every-1", len(kept), st.ProgramsProcessed)
	}
	for _, kt := range kept {
		stages := map[string]bool{}
		for _, s := range kt.Spans {
			stages[s.Stage] = true
		}
		for _, want := range []string{span.StageVerdict, span.StageEnqueue, span.StageFeatures, span.StageClassify, span.StageVote} {
			if !stages[want] {
				t.Fatalf("trace %s (%s) has no %q span (stages: %v)", kt.TraceID, kt.Program, want, stages)
			}
		}
	}
}

// parseSamples extracts `name{labels} value` samples for one family into
// a labels → value map (labels may be empty for scalar families).
func parseSamples(t *testing.T, body, name string) map[string]uint64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(?:\{([^}]*)\})? (\d+)$`)
	out := map[string]uint64{}
	for _, m := range re.FindAllStringSubmatch(body, -1) {
		v, err := strconv.ParseUint(m[2], 10, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", m[0], err)
		}
		out[m[1]] = v
	}
	if len(out) == 0 {
		t.Fatalf("no samples for %s", name)
	}
	return out
}

// TestFaultEventsReachTracerAndMetrics: under injected faults the
// breaker lifecycle shows up as transition counters, weight gauges and
// state gauges on /metrics, and the fault handling reaches the kept
// verdict traces: with baseline keeps off, only flagged traces survive,
// and they name the retries, errors and breaker activity.
func TestFaultEventsReachTracerAndMetrics(t *testing.T) {
	f := getFixture(t)
	r, err := core.New(f.pool, 0xFEED)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rec := keptRecorder(t, reg, len(f.programs), -1)
	deadline := 30 * time.Millisecond
	e, err := New(r, Config{Workers: 1, QueueDepth: len(f.programs), TraceLen: f.traceLen,
		WindowDeadline: deadline, ProbeAfter: 40,
		Injector: acceptanceInjector(4), Metrics: reg, Spans: rec})
	if err != nil {
		t.Fatal(err)
	}
	runStream(t, e, f.programs)
	st := e.Stats()
	if st.Quarantines == 0 || st.Restores == 0 {
		t.Fatalf("fixture did not exercise breaker lifecycle: %+v", st)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	trans := parseSamples(t, body, "rhmd_monitor_breaker_transitions_total")
	if trans[`kind="quarantine"`] != st.Quarantines || trans[`kind="restore"`] != st.Restores {
		t.Fatalf("scraped transitions %v disagree with stats q=%d r=%d", trans, st.Quarantines, st.Restores)
	}
	faults := parseSamples(t, body, "rhmd_monitor_faults_total")
	if faults[`kind="retry"`] != st.Retries || faults[`kind="timeout"`] != st.Timeouts || faults[`kind="panic"`] != st.Panics {
		t.Fatalf("scraped faults %v disagree with stats %+v", faults, st)
	}
	// Detector 1 is permanently quarantined: weight gauge 0, state 1.
	if !regexp.MustCompile(`(?m)^rhmd_monitor_detector_weight\{detector="1",spec="[^"]+"\} 0$`).MatchString(body) {
		t.Fatal("quarantined detector 1 weight gauge not zero")
	}
	if !regexp.MustCompile(`(?m)^rhmd_monitor_detector_state\{detector="1",spec="[^"]+"\} 1$`).MatchString(body) {
		t.Fatal("quarantined detector 1 state gauge not open")
	}

	reasons := map[string]int{}
	retried, errored := 0, 0
	for _, kt := range rec.Snapshot() {
		for _, why := range kt.Reasons {
			reasons[why]++
		}
		for _, s := range kt.Spans {
			if s.Stage != span.StageClassify {
				continue
			}
			if s.Attempt > 0 {
				retried++
			}
			if s.Err != "" {
				errored++
			}
		}
	}
	for _, why := range []string{"retried", "errored", "breaker"} {
		if reasons[why] == 0 {
			t.Fatalf("no kept trace carries reason %q (reasons: %v)", why, reasons)
		}
	}
	if reasons["baseline"] != 0 {
		t.Fatalf("baseline keeps are off, yet %d traces carry it", reasons["baseline"])
	}
	if retried == 0 || errored == 0 {
		t.Fatalf("classify spans: %d with retries, %d with errors; want both > 0", retried, errored)
	}
}

// TestSuccessorEngineStartsEmpty: an engine built on a registry whose
// previous engine was abandoned with programs still queued (a fleet
// shard's cancelled generation) starts with an empty queue gauge, so a
// supervisor never reads the dead generation's backlog as its own.
func TestSuccessorEngineStartsEmpty(t *testing.T) {
	f := getFixture(t)
	r, err := core.New(f.pool, 0x5CCE)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 1, QueueDepth: 4, TraceLen: f.traceLen, Metrics: obs.NewRegistry()}
	e1, err := New(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range f.programs[:3] {
		if !e1.Submit(p) {
			t.Fatalf("submit of %q shed with roomy queue", p.Name)
		}
	}
	if got := e1.Stats().QueueDepth; got != 3 {
		t.Fatalf("unstarted engine queue depth %d, want 3", got)
	}
	e1.Close()

	e2, err := New(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := e2.Stats(); st.QueueDepth != 0 || st.Inflight != 0 {
		t.Fatalf("successor engine starts with queue depth %d, in flight %d; want 0, 0", st.QueueDepth, st.Inflight)
	}
}
