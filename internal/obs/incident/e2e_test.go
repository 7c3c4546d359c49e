package incident_test

import (
	"encoding/json"
	"math"
	"path/filepath"
	"testing"
	"time"

	"rhmd/internal/driftguard"
	"rhmd/internal/obs"
	"rhmd/internal/obs/incident"
	"rhmd/internal/obs/slo"
	"rhmd/internal/obs/span"
)

// TestBurnRateTrajectory is the subsystem's flagship scenario: a
// verdict-latency SLO driven through the documented multi-window
// alert ladder by an injected clock, with the incident flight recorder
// subscribed the way cmd/rhmd-monitor wires it.
//
// The schedule (1-minute ticks, 100 verdicts per tick, target 0.99,
// default 5m+1h/14.4 and 30m+6h/6 rules):
//
//   - tick 0: baseline sample, no traffic.
//   - ticks 1–30: healthy (all verdicts fast) — state ok throughout.
//   - ticks 31–36: storm (all verdicts slow). The slow rule's windows
//     both cross 6× at storm tick 2 (ticket); the fast rule's long
//     window reaches 14.4× at storm tick 6 (page). Storm tick 5 sits
//     at 14.29× — provably below the page threshold.
//   - ticks 37–65: recovery (healthy again). The fast short window
//     empties of bad events at recovery tick 5, so the page clears —
//     but the slow windows still burn ≥ 6×, so it demotes to a
//     ticket, not ok. The last storm events age out of the 30m slow
//     short window at recovery tick 29: ok.
//
// Each escalation captures an incident bundle; the final ok re-marks
// the healthy baseline. The test then proves the bundles round-trip:
// load + fingerprint verification, the alert traces, a non-empty
// registry diff and the drift status document.
func TestBurnRateTrajectory(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	now := base
	clock := func() time.Time { return now }

	reg := obs.NewRegistry()
	hist := reg.Histogram("rhmd_monitor_verdict_latency_seconds",
		"Verdict latency.", []float64{0.005, 0.05, 0.5})
	spans, err := span.NewRecorder(span.Config{Now: clock, KeepEvery: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}

	var eng *slo.Engine
	dir := filepath.Join(t.TempDir(), "incidents")
	rec, err := incident.NewRecorder(incident.Config{
		Dir:      dir,
		Now:      clock,
		Registry: reg,
		Spans:    spans,
		SLOStatus: func() slo.Status {
			return eng.Status()
		},
		Drift: func() any {
			return driftguard.Status{State: "steady", PoolEpoch: 3, AccuracyEWMA: 0.91}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var transitions []slo.Transition
	hook := rec.SLOHook()
	eng, err = slo.New(slo.Config{
		Source: reg,
		Now:    clock,
		Objectives: []slo.Objective{
			slo.LatencyObjective(0.99, 50*time.Millisecond),
		},
		Spans: spans,
		OnTransition: func(tr slo.Transition) {
			transitions = append(transitions, tr)
			hook(tr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	observe := func(latency float64) {
		for i := 0; i < 100; i++ {
			hist.Observe(latency)
		}
	}
	tick := func(n int, latency float64) {
		for i := 0; i < n; i++ {
			now = now.Add(time.Minute)
			observe(latency)
			eng.Tick()
		}
	}

	eng.Tick() // baseline at t+0
	tick(30, 0.010)
	if len(transitions) != 0 {
		t.Fatalf("healthy traffic produced transitions: %+v", transitions)
	}

	tick(6, 0.200) // the storm
	if len(transitions) != 2 {
		t.Fatalf("storm produced %d transitions, want ticket then page: %+v", len(transitions), transitions)
	}
	if transitions[0].ToState != "ticket" || transitions[0].At != base.Add(32*time.Minute) {
		t.Errorf("first transition %s at %v, want ticket at storm tick 2 (t+32m)",
			transitions[0].ToState, transitions[0].At)
	}
	if transitions[1].ToState != "page" || transitions[1].At != base.Add(36*time.Minute) {
		t.Errorf("second transition %s at %v, want page at storm tick 6 (t+36m)",
			transitions[1].ToState, transitions[1].At)
	}
	// The gating fast burn at page time: the 5m window is fully bad
	// (100×), the 1h partial window holds 6 storm ticks out of 36
	// (16.67×) — the minimum is what crossed 14.4.
	if got := transitions[1].BurnFast; math.Abs(got-100.0/6) > 0.01 {
		t.Errorf("page transition gating burn = %v, want ≈16.67", got)
	}
	if got := transitions[1].BurnFast; got < slo.DefaultFastBurn {
		t.Errorf("page fired below the documented threshold: %v < %v", got, slo.DefaultFastBurn)
	}

	tick(29, 0.010) // recovery
	if len(transitions) != 4 {
		t.Fatalf("recovery ended with %d transitions, want 4: %+v", len(transitions), transitions)
	}
	if transitions[2].ToState != "ticket" || transitions[2].At != base.Add(41*time.Minute) {
		t.Errorf("third transition %s at %v, want page→ticket at recovery tick 5 (t+41m)",
			transitions[2].ToState, transitions[2].At)
	}
	if transitions[2].FromState != "page" {
		t.Errorf("third transition from %s, want page", transitions[2].FromState)
	}
	if transitions[3].ToState != "ok" || transitions[3].At != base.Add(65*time.Minute) {
		t.Errorf("fourth transition %s at %v, want ok at recovery tick 29 (t+65m)",
			transitions[3].ToState, transitions[3].At)
	}

	// Three escalations captured bundles; retention keeps the newest
	// two: the page (t+36m) and the demotion ticket (t+41m).
	ids, err := rec.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("retained %d bundles, want 2: %v", len(ids), ids)
	}

	pageBundle, err := incident.Load(nil, filepath.Join(dir, ids[0]+".json"))
	if err != nil {
		t.Fatalf("page bundle does not round-trip: %v", err)
	}
	ticketBundle, err := incident.Load(nil, filepath.Join(dir, ids[1]+".json"))
	if err != nil {
		t.Fatalf("ticket bundle does not round-trip: %v", err)
	}

	if pageBundle.Cause.Kind != "slo-page" || pageBundle.CapturedAt != base.Add(36*time.Minute) {
		t.Errorf("page bundle cause=%s at %v", pageBundle.Cause.Kind, pageBundle.CapturedAt)
	}
	if ticketBundle.Cause.Kind != "slo-ticket" || ticketBundle.CapturedAt != base.Add(41*time.Minute) {
		t.Errorf("ticket bundle cause=%s at %v", ticketBundle.Cause.Kind, ticketBundle.CapturedAt)
	}

	// The SLO section reflects the post-transition state — the engine
	// commits before emitting.
	for _, c := range []struct {
		b    *incident.Bundle
		want string
	}{{pageBundle, "page"}, {ticketBundle, "ticket"}} {
		if c.b.SLO == nil || len(c.b.SLO.Objectives) != 1 {
			t.Fatalf("%s bundle has no SLO section", c.want)
		}
		if got := c.b.SLO.Objectives[0].State; got != c.want {
			t.Errorf("bundle SLO state = %s, want %s", got, c.want)
		}
	}

	// Kept traces: one always-kept alert trace per transition emitted
	// before the capture (ticket t+32m, page t+36m, demotion t+41m).
	if len(pageBundle.Traces) != 2 {
		t.Errorf("page bundle holds %d traces, want 2 alert traces", len(pageBundle.Traces))
	}
	if len(ticketBundle.Traces) != 3 {
		t.Errorf("ticket bundle holds %d traces, want 3 alert traces", len(ticketBundle.Traces))
	}
	if len(ticketBundle.Traces) > 0 {
		tr := ticketBundle.Traces[0]
		if tr.Program != "slo:verdict-latency" || len(tr.Spans) == 0 || tr.Spans[0].Stage != span.StageSLOAlert {
			t.Errorf("alert trace = program %q stage %+v", tr.Program, tr.Spans)
		}
	}

	// The registry diff since the last healthy mark includes the
	// latency histogram's full movement (baseline was construction;
	// no ok transition had re-marked it yet).
	var histDelta uint64
	for _, fd := range ticketBundle.RegistryDiff {
		if fd.Name == "rhmd_monitor_verdict_latency_seconds" {
			for _, sd := range fd.Series {
				if sd.Hist != nil {
					histDelta = sd.Hist.Count
				}
			}
		}
	}
	if want := uint64(41 * 100); histDelta != want {
		t.Errorf("diff histogram delta = %d observations, want %d", histDelta, want)
	}

	// Drift status document round-trips through the raw section.
	var ds driftguard.Status
	if err := json.Unmarshal(ticketBundle.Drift, &ds); err != nil {
		t.Fatalf("drift section does not parse: %v", err)
	}
	if ds.State != "steady" || ds.PoolEpoch != 3 {
		t.Errorf("drift section = %+v", ds)
	}

	// The final ok transition re-marked the healthy baseline at t+65m.
	p, err := rec.Trigger(incident.Cause{Kind: "manual"})
	if err != nil {
		t.Fatal(err)
	}
	final, err := incident.Load(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if final.LastHealthy != base.Add(65*time.Minute) {
		t.Errorf("LastHealthy = %v, want the ok transition at t+65m", final.LastHealthy)
	}

	// Metric surfaces agree with the story.
	snap := reg.Snapshot()
	if got := snap.CounterWith("rhmd_slo_transitions_total", "verdict-latency", "ticket"); got != 2 {
		t.Errorf("transitions{ticket} = %d, want 2", got)
	}
	if got := snap.CounterWith("rhmd_slo_transitions_total", "verdict-latency", "page"); got != 1 {
		t.Errorf("transitions{page} = %d, want 1", got)
	}
	if got := snap.CounterWith("rhmd_incident_captures_total", "slo-ticket"); got != 2 {
		t.Errorf("captures{slo-ticket} = %d, want 2", got)
	}
	if got := snap.CounterWith("rhmd_incident_captures_total", "slo-page"); got != 1 {
		t.Errorf("captures{slo-page} = %d, want 1", got)
	}
}
