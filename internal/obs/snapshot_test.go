package obs

import (
	"strings"
	"testing"
)

func TestSnapshotAndDiff(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("t_ops_total", "ops")
	g := reg.Gauge("t_depth", "depth")
	h := reg.Histogram("t_latency_seconds", "latency", []float64{1, 2, 4})
	cv := reg.CounterVec("t_outcomes_total", "outcomes", "outcome")
	ok, bad := cv.With("ok"), cv.With("bad")

	c.Add(5)
	g.Set(3)
	h.Observe(1.5)
	ok.Add(2)
	bad.Inc()
	before := reg.Snapshot()

	c.Add(7)
	g.Set(9)
	h.Observe(3)
	h.Observe(100)
	ok.Add(4)
	after := reg.Snapshot()

	if got := before.Counter("t_ops_total"); got != 5 {
		t.Fatalf("before counter = %d, want 5", got)
	}
	if got := before.Counter("t_outcomes_total"); got != 3 {
		t.Fatalf("summed vec counter = %d, want 3", got)
	}
	if got := before.CounterWith("t_outcomes_total", "ok"); got != 2 {
		t.Fatalf("labeled counter = %d, want 2", got)
	}
	if got := before.Counter("t_absent_total"); got != 0 {
		t.Fatalf("absent family = %d, want 0", got)
	}

	d := after.Diff(before)
	if got := d.Counter("t_ops_total"); got != 7 {
		t.Fatalf("diff counter = %d, want 7", got)
	}
	if got := d.CounterWith("t_outcomes_total", "ok"); got != 4 {
		t.Fatalf("diff labeled counter = %d, want 4", got)
	}
	if got := d.CounterWith("t_outcomes_total", "bad"); got != 0 {
		t.Fatalf("diff labeled counter = %d, want 0", got)
	}
	// Gauges keep the after value.
	if got := d["t_depth"].Children[""].Gauge; got != 9 {
		t.Fatalf("diff gauge = %v, want 9", got)
	}
	hd := d.Histogram("t_latency_seconds")
	if hd == nil || hd.Count != 2 {
		t.Fatalf("diff histogram count = %+v, want 2 observations", hd)
	}
	if hd.Sum != 103 {
		t.Fatalf("diff histogram sum = %v, want 103", hd.Sum)
	}
	// Diff must not mutate the originals.
	if got := after.Histogram("t_latency_seconds").Count; got != 3 {
		t.Fatalf("after snapshot mutated by Diff: count %d", got)
	}
}

func TestSnapshotHistogramMergesChildren(t *testing.T) {
	reg := NewRegistry()
	hv := reg.HistogramVec("t_lat_seconds", "lat", []float64{1, 2}, "det")
	hv.With("0").Observe(0.5)
	hv.With("1").Observe(1.5)
	hv.With("1").Observe(10)
	s := reg.Snapshot()
	m := s.Histogram("t_lat_seconds")
	if m == nil || m.Count != 3 {
		t.Fatalf("merged count = %+v, want 3", m)
	}
	if len(m.Upper) != 2 || m.Upper[0] != 1 || m.Upper[1] != 2 {
		t.Fatalf("merged upper bounds = %v, want [1 2]", m.Upper)
	}
	if len(m.Cumulative) != 2 || m.Cumulative[0] != 1 || m.Cumulative[1] != 2 {
		t.Fatalf("merged cumulative = %v, want [1 2]", m.Cumulative)
	}
	if m.Sum != 12 {
		t.Fatalf("merged sum = %v, want 12", m.Sum)
	}
}

func TestSnapshotDiffNewFamilyMidRun(t *testing.T) {
	reg := NewRegistry()
	before := reg.Snapshot()
	reg.Counter("t_late_total", "registered after the before snapshot").Add(3)
	d := reg.Snapshot().Diff(before)
	if got := d.Counter("t_late_total"); got != 3 {
		t.Fatalf("mid-run family diff = %d, want 3 (counted from zero)", got)
	}
}

func TestSnapshotSeesGaugeFunc(t *testing.T) {
	reg := NewRegistry()
	v := 1.0
	reg.GaugeFunc("t_dynamic", "computed", func() float64 { return v })
	if got := reg.Snapshot()["t_dynamic"].Children[""].Gauge; got != 1 {
		t.Fatalf("snapshot gauge func = %v, want 1", got)
	}
	v = 2
	if got := reg.Snapshot()["t_dynamic"].Children[""].Gauge; got != 2 {
		t.Fatalf("snapshot gauge func = %v, want 2", got)
	}
}

func TestBuildInfoMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterBuildInfo(reg)
	RegisterBuildInfo(reg) // idempotent
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"rhmd_build_info{", "goversion=\"go", "rhmd_process_start_time_seconds", "rhmd_process_uptime_seconds"} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	up := reg.Snapshot()["rhmd_process_uptime_seconds"].Children[""].Gauge
	if up < 0 {
		t.Fatalf("uptime = %v, want >= 0", up)
	}
	// The OpenMetrics path renders gauge funcs too.
	sb.Reset()
	if err := reg.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "rhmd_process_uptime_seconds") {
		t.Fatalf("openmetrics exposition missing uptime gauge:\n%s", sb.String())
	}
}
