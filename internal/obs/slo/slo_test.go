package slo_test

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rhmd/internal/obs"
	"rhmd/internal/obs/slo"
	"rhmd/internal/obs/span"
)

func fixedClock(at time.Time) (func() time.Time, func(time.Duration)) {
	now := at
	return func() time.Time { return now }, func(d time.Duration) { now = now.Add(d) }
}

var testBase = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

func TestNewValidation(t *testing.T) {
	reg := obs.NewRegistry()
	clock := func() time.Time { return testBase }
	good := slo.EventRatio("x", "", 0.9,
		func(obs.Snapshot) float64 { return 0 },
		func(obs.Snapshot) float64 { return 0 })

	cases := []struct {
		name string
		cfg  slo.Config
		want string
	}{
		{"no source", slo.Config{Now: clock, Objectives: []slo.Objective{good}}, "Source"},
		{"no clock", slo.Config{Source: reg, Objectives: []slo.Objective{good}}, "Now"},
		{"no objectives", slo.Config{Source: reg, Now: clock}, "at least one objective"},
		{"bad target", slo.Config{Source: reg, Now: clock,
			Objectives: []slo.Objective{slo.EventRatio("x", "", 1.0,
				func(obs.Snapshot) float64 { return 0 }, func(obs.Snapshot) float64 { return 0 })}},
			"outside (0,1)"},
		{"unnamed", slo.Config{Source: reg, Now: clock,
			Objectives: []slo.Objective{slo.EventRatio("", "", 0.9,
				func(obs.Snapshot) float64 { return 0 }, func(obs.Snapshot) float64 { return 0 })}},
			"needs a name"},
		{"duplicate names", slo.Config{Source: reg, Now: clock,
			Objectives: []slo.Objective{good, good}}, "duplicate"},
		{"no indicator", slo.Config{Source: reg, Now: clock,
			Objectives: []slo.Objective{{Name: "x", Target: 0.9}}}, "exactly one"},
		{"both indicators", slo.Config{Source: reg, Now: clock,
			Objectives: []slo.Objective{{Name: "x", Target: 0.9,
				Bad:   func(obs.Snapshot) float64 { return 0 },
				Total: func(obs.Snapshot) float64 { return 0 },
				Value: func(obs.Snapshot) float64 { return 0 }}}}, "exactly one"},
	}
	for _, c := range cases {
		if _, err := slo.New(c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: New = %v, want error containing %q", c.name, err, c.want)
		}
	}
}

func TestNoTrafficStaysOK(t *testing.T) {
	reg := obs.NewRegistry()
	clock, advance := fixedClock(testBase)
	eng, err := slo.New(slo.Config{
		Source:     reg,
		Now:        clock,
		Objectives: slo.FleetObjectives(0, 1, 0.65, 0.30),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		eng.Tick()
		advance(time.Minute)
	}
	st := eng.Status()
	if len(st.Objectives) != 6 {
		t.Fatalf("status reports %d objectives, want 6", len(st.Objectives))
	}
	for _, o := range st.Objectives {
		if o.State != "ok" {
			t.Errorf("objective %s = %s with zero traffic, want ok", o.Name, o.State)
		}
		if o.BurnFastShort != 0 || o.BurnSlowLong != 0 {
			t.Errorf("objective %s burns nonzero with zero traffic: %+v", o.Name, o)
		}
		if o.BudgetRemaining != 1 {
			t.Errorf("objective %s budget %v with zero traffic, want 1", o.Name, o.BudgetRemaining)
		}
	}
}

// TestBoundObjectiveNaN pins the "no data" semantics of bound SLIs: an
// absent gauge contributes no samples, so the objective idles at OK
// instead of paging on a subsystem that is not wired in.
func TestBoundObjectiveNaN(t *testing.T) {
	reg := obs.NewRegistry()
	clock, advance := fixedClock(testBase)
	eng, err := slo.New(slo.Config{
		Source: reg,
		Now:    clock,
		Objectives: []slo.Objective{
			slo.BoundMin("floor", "", 0.99, 0.65, slo.GaugeSeries("rhmd_missing_gauge")),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		eng.Tick()
		advance(time.Minute)
	}
	if got := eng.State("floor"); got != slo.StateOK {
		t.Fatalf("bound objective over a missing gauge = %v, want StateOK", got)
	}

	// Same objective with the gauge present and sitting below the
	// floor: every sample violates, ratio 1, burn 1/(1−0.99) = 100 over
	// every window once two samples exist — a page.
	g := reg.Gauge("rhmd_present_gauge", "g")
	g.Set(0.2)
	eng2, err := slo.New(slo.Config{
		Source: reg,
		Now:    clock,
		Objectives: []slo.Objective{
			slo.BoundMin("floor", "", 0.99, 0.65, slo.GaugeSeries("rhmd_present_gauge")),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng2.Tick()
	if got := eng2.State("floor"); got != slo.StateOK {
		t.Fatalf("one violating sample already alerts: %v (partial windows must need a delta)", got)
	}
	advance(time.Minute)
	eng2.Tick()
	if got := eng2.State("floor"); got != slo.StatePage {
		t.Fatalf("gauge below floor for two samples = %v, want StatePage", got)
	}
	// Recovery: the gauge climbs above the floor; once the violations
	// are a slow short window old, both short windows are clean and the
	// objective returns to OK.
	g.Set(0.9)
	for i := 0; i < int(slo.SlowShort/time.Minute); i++ {
		advance(time.Minute)
		eng2.Tick()
	}
	if got := eng2.State("floor"); got != slo.StateOK {
		t.Fatalf("recovered gauge still alerting: %v", got)
	}
}

// TestFleetObjectivesUseDriftFloors: the drift objectives judge the
// guard's EWMAs by the floors they are given, the ones the guard runs
// with. An agreement EWMA of 0.5 clears the default 0.30 floor but not
// a 0.99 one, so every sample after the first counts bad.
func TestFleetObjectivesUseDriftFloors(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("rhmd_drift_agreement_ewma", "agreement").Set(0.5)
	clock, advance := fixedClock(testBase)
	eng, err := slo.New(slo.Config{Source: reg, Now: clock, Objectives: slo.FleetObjectives(0, 1, 0.65, 0.99)})
	if err != nil {
		t.Fatal(err)
	}
	eng.Tick()
	advance(time.Minute)
	eng.Tick()
	for _, o := range eng.Status().Objectives {
		if o.Name == "drift-agreement" && o.BadRatio != 1 {
			t.Fatalf("agreement EWMA 0.5 under a 0.99 floor: bad ratio %v, want 1", o.BadRatio)
		}
	}
}

func TestHistogramSeries(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("rhmd_lat_seconds", "lat", []float64{0.01, 0.05, 0.1})
	h.Observe(0.02)
	h.Observe(0.07)
	h.Observe(0.2)
	s := reg.Snapshot()

	if got := slo.HistogramCountSeries("rhmd_lat_seconds")(s); got != 3 {
		t.Errorf("count = %v, want 3", got)
	}
	if got := slo.HistogramAboveSeries("rhmd_lat_seconds", 0.05)(s); got != 2 {
		t.Errorf("above(0.05) = %v, want 2", got)
	}
	// A threshold between bucket edges snaps UP to the next edge, so it
	// never counts more events bad than the histogram can prove.
	if got := slo.HistogramAboveSeries("rhmd_lat_seconds", 0.03)(s); got != 2 {
		t.Errorf("above(0.03) = %v, want 2 (snaps to the 0.05 edge)", got)
	}
	// Above the last finite bound the next edge is +Inf: nothing is
	// provably above it.
	if got := slo.HistogramAboveSeries("rhmd_lat_seconds", 0.5)(s); got != 0 {
		t.Errorf("above(0.5) = %v, want 0 (snaps to the +Inf edge)", got)
	}
	if got := slo.HistogramAboveSeries("rhmd_absent", 0.05)(s); got != 0 {
		t.Errorf("above on a missing family = %v, want 0", got)
	}
	if got := slo.GaugeSeries("rhmd_absent")(s); !math.IsNaN(got) {
		t.Errorf("gauge on a missing family = %v, want NaN", got)
	}
}

// TestTransitionTelemetry drives one objective through page and back
// and checks every emission surface: the OnTransition hook, the span
// recorder's always-kept alert trace, and the transitions counter.
func TestTransitionTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	clock, advance := fixedClock(testBase)
	spans, err := span.NewRecorder(span.Config{Now: clock, KeepEvery: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := reg.Counter("rhmd_bad_total", "bad")
	tot := reg.Counter("rhmd_all_total", "all")

	var hooked []slo.Transition
	eng, err := slo.New(slo.Config{
		Source: reg,
		Now:    clock,
		Objectives: []slo.Objective{slo.EventRatio("avail", "availability", 0.99,
			slo.CounterSeries("rhmd_bad_total"), slo.CounterSeries("rhmd_all_total"))},
		Spans:        spans,
		OnTransition: func(tr slo.Transition) { hooked = append(hooked, tr) },
	})
	if err != nil {
		t.Fatal(err)
	}

	eng.Tick() // baseline, no traffic
	advance(time.Minute)
	bad.Add(10)
	tot.Add(10)
	eng.Tick() // 100% bad over every window: burn 100 ≥ 14.4 → page
	if got := eng.State("avail"); got != slo.StatePage {
		t.Fatalf("state after total failure = %v, want StatePage", got)
	}
	advance(slo.FastShort)
	tot.Add(1000)
	eng.Tick() // the fast short window holds no bad event → back to OK (slow burn 0.99 < 6)
	if got := eng.State("avail"); got != slo.StateOK {
		t.Fatalf("state after recovery = %v, want StateOK", got)
	}

	if len(hooked) != 2 {
		t.Fatalf("OnTransition fired %d times, want 2 (page, ok)", len(hooked))
	}
	if hooked[0].ToState != "page" || hooked[0].FromState != "ok" {
		t.Errorf("first transition %s → %s, want ok → page", hooked[0].FromState, hooked[0].ToState)
	}
	if hooked[1].ToState != "ok" || !strings.Contains(hooked[1].Reason, "recovered") {
		t.Errorf("second transition to %q (%q), want ok/recovered", hooked[1].ToState, hooked[1].Reason)
	}
	if hooked[0].At != testBase.Add(time.Minute) {
		t.Errorf("page transition at %v, want %v", hooked[0].At, testBase.Add(time.Minute))
	}

	kept := spans.Snapshot()
	if len(kept) != 2 {
		t.Fatalf("span recorder kept %d traces, want 2 alert traces", len(kept))
	}
	tr := kept[0]
	if tr.Program != "slo:avail" || tr.Verdict != "slo-page" {
		t.Errorf("alert trace program=%q verdict=%q, want slo:avail/slo-page", tr.Program, tr.Verdict)
	}
	if len(tr.Spans) == 0 || tr.Spans[0].Stage != span.StageSLOAlert {
		t.Errorf("alert trace root stage = %+v, want %s", tr.Spans, span.StageSLOAlert)
	}
	if len(tr.Spans) > 0 && tr.Spans[0].Err == "" {
		t.Errorf("page trace root carries no reason")
	}

	snap := reg.Snapshot()
	if got := snap.CounterWith("rhmd_slo_transitions_total", "avail", "page"); got != 1 {
		t.Errorf("transitions{avail,page} = %d, want 1", got)
	}
	if got := snap.CounterWith("rhmd_slo_transitions_total", "avail", "ok"); got != 1 {
		t.Errorf("transitions{avail,ok} = %d, want 1", got)
	}

	st := eng.Status()
	if st.Objectives[0].LastTransition == nil {
		t.Errorf("status drops the last transition after recovery")
	}
	if got := eng.State("unknown-objective"); got != slo.StateOK {
		t.Errorf("State(unknown) = %v, want StateOK", got)
	}
}

func TestHandler(t *testing.T) {
	reg := obs.NewRegistry()
	clock, _ := fixedClock(testBase)
	eng, err := slo.New(slo.Config{
		Source:     reg,
		Now:        clock,
		Objectives: slo.FleetObjectives(0, 1, 0.65, 0.30),
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Tick()
	// /slo as rhmd-monitor mounts it.
	h := obs.JSONHandler(func() any { return eng.Status() })

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/slo", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /slo = %d, want 200", rr.Code)
	}
	var st slo.Status
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("GET /slo returned unparsable JSON: %v", err)
	}
	if len(st.Objectives) != 6 || st.FastBurn != 14.4 || st.SlowBurn != 6 {
		t.Fatalf("GET /slo = %d objectives, burn thresholds %v and %v; want 6, 14.4 and 6",
			len(st.Objectives), st.FastBurn, st.SlowBurn)
	}
	if w := st.Windows; st.Interval != "10s" || w.FastShort != "5m0s" || w.FastLong != "1h0m0s" ||
		w.SlowShort != "30m0s" || w.SlowLong != "6h0m0s" {
		t.Errorf("GET /slo interval %s, windows %+v; want 10s and the documented 5m/1h/30m/6h set", st.Interval, w)
	}
}

// TestRunSamplesAtStart: Run takes its first sample when it starts, not
// one Interval later, so a run shorter than an Interval is evaluated by
// the Tick that follows it.
func TestRunSamplesAtStart(t *testing.T) {
	reg := obs.NewRegistry()
	clock, advance := fixedClock(testBase)
	eng, err := slo.New(slo.Config{
		Source:     reg,
		Now:        clock,
		Objectives: slo.FleetObjectives(0, 1, 0.65, 0.30),
	})
	if err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		eng.Run(stop)
	}()
	// Half an Interval: a sample seen by then was not the ticker's.
	deadline := time.Now().Add(slo.Interval / 2)
	for reg.Snapshot().Counter("rhmd_slo_evaluations_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("Run took no sample in the first half of its %v interval", slo.Interval)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done

	// Traffic after the start sample, then the closing Tick: the one run
	// is evaluated, every submission shed.
	reg.CounterVec("rhmd_monitor_programs_total", "h", "outcome").With("shed").Add(10)
	advance(8 * time.Second)
	eng.Tick()
	for _, o := range eng.Status().Objectives {
		if o.Name == "shed-rate" && (o.BadRatio != 1 || o.State != slo.StatePage.String()) {
			t.Fatalf("shed-rate after a short run: %+v, want bad ratio 1 and page", o)
		}
	}
}
