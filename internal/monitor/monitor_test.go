package monitor

import (
	"context"
	"testing"
	"time"

	"rhmd/internal/core"
	"rhmd/internal/dataset"
	"rhmd/internal/features"
	"rhmd/internal/hmd"
	"rhmd/internal/prog"
)

// fixture: a small corpus and the paper's six-detector pool (three
// feature kinds × two collection periods).
type fixture struct {
	programs []*prog.Program
	traceLen int
	pool     []*hmd.Detector
}

var fx *fixture

func getFixture(t testing.TB) *fixture {
	t.Helper()
	if fx != nil {
		return fx
	}
	cfg := dataset.Config{BenignPerFamily: 8, MalwarePerFamily: 12, TraceLen: 60_000, Seed: 11}
	c, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := c.Split([]float64{0.7, 0.3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	periods := []int{1000, 2000}
	data, err := dataset.ExtractWindows(groups[0], periods, cfg.TraceLen)
	if err != nil {
		t.Fatal(err)
	}
	specs := core.PoolSpecs(features.AllKinds(), periods, "lr")
	pool, err := core.TrainPool(specs, data, 1)
	if err != nil {
		t.Fatal(err)
	}
	fx = &fixture{programs: groups[1], traceLen: cfg.TraceLen, pool: pool}
	return fx
}

// runStream submits every program, closes, and collects reports by name.
func runStream(t *testing.T, e *Engine, programs []*prog.Program) map[string]Report {
	t.Helper()
	e.Start(context.Background())
	go func() {
		for _, p := range programs {
			if !e.Submit(p) {
				t.Errorf("submit of %q shed with roomy queue", p.Name)
			}
		}
		e.Close()
	}()
	out := map[string]Report{}
	for rep := range e.Results() {
		out[rep.Program] = rep
	}
	return out
}

// TestEngineMatchesBatchDecisions proves the serving layer is the same
// detector as the batch path: with no faults, a healthy engine's window
// schedule and decisions are exactly core.RHMD.DecideTrace's.
func TestEngineMatchesBatchDecisions(t *testing.T) {
	f := getFixture(t)
	r, err := core.New(f.pool, 0xFEED)
	if err != nil {
		t.Fatal(err)
	}
	// A generous deadline so a loaded CI box cannot fake a stall.
	e, err := New(r, Config{Workers: 4, QueueDepth: len(f.programs), TraceLen: f.traceLen,
		WindowDeadline: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	reports := runStream(t, e, f.programs)
	if len(reports) != len(f.programs) {
		t.Fatalf("%d reports for %d programs", len(reports), len(f.programs))
	}
	for _, p := range f.programs {
		rep := reports[p.Name]
		if rep.Err != nil {
			t.Fatalf("%s: %v", p.Name, rep.Err)
		}
		dec, err := r.DecideTrace(p, f.traceLen)
		if err != nil {
			t.Fatal(err)
		}
		flagged := 0
		for _, d := range dec {
			flagged += d.Decision
		}
		if rep.Windows != len(dec) || rep.Flagged != flagged {
			t.Fatalf("%s: engine %d/%d vs batch %d/%d windows flagged",
				p.Name, rep.Flagged, rep.Windows, flagged, len(dec))
		}
		if rep.Degraded != 0 || rep.Dropped != 0 {
			t.Fatalf("%s: healthy pool degraded=%d dropped=%d", p.Name, rep.Degraded, rep.Dropped)
		}
	}
	st := e.Stats()
	if st.Quarantines != 0 || st.Restores != 0 || st.Panics != 0 {
		t.Fatalf("healthy run recorded fault handling: %v", st)
	}
	if st.LivePool() != 6 {
		t.Fatalf("live pool %d", st.LivePool())
	}
}

// acceptanceInjector is the acceptance fault scenario: detector 1
// fails permanently with transient errors; detector 4 fails with a mix
// of panics and stalls for its first recoverAfter windows, then
// recovers.
func acceptanceInjector(recoverAfter uint64) *Injector {
	in := NewInjector(77)
	in.SetProfile(1, Profile{ErrorRate: 1})
	in.SetProfile(4, Profile{PanicRate: 0.5, LatencyRate: 0.5, Until: recoverAfter})
	return in
}

// TestGracefulDegradationUnderFaults is the PR's acceptance scenario:
// a six-detector pool with two members forced to fail (error, panic and
// latency modes), streamed over a whole corpus. The engine must account
// for every window, quarantine exactly the faulty detectors,
// renormalize switching weights over the survivors, and restore the
// recovered detector through half-open probing — deterministically
// under a fixed seed.
func TestGracefulDegradationUnderFaults(t *testing.T) {
	f := getFixture(t)
	run := func() (map[string]Report, Stats) {
		r, err := core.New(f.pool, 0xFEED)
		if err != nil {
			t.Fatal(err)
		}
		deadline := 30 * time.Millisecond
		e, err := New(r, Config{
			// One worker makes the full event order — and therefore
			// quarantine/probe timing — deterministic under the fixed
			// seed; multi-worker liveness is covered elsewhere.
			Workers:        1,
			QueueDepth:     len(f.programs),
			TraceLen:       f.traceLen,
			WindowDeadline: deadline,
			ProbeAfter:     40,
			Injector:       acceptanceInjector(4),
		})
		if err != nil {
			t.Fatal(err)
		}
		return runStream(t, e, f.programs), e.Stats()
	}
	reports, st := run()

	// Zero unaccounted windows: every program classified end-to-end,
	// every window either classified or explicitly dropped — and with
	// four healthy detectors, nothing should need dropping.
	if len(reports) != len(f.programs) || st.ProgramsFailed != 0 || st.ProgramsShed != 0 {
		t.Fatalf("programs unaccounted: %d reports, stats %+v", len(reports), st)
	}
	var wins, flagged, degraded, dropped uint64
	for name, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("%s: %v", name, rep.Err)
		}
		if rep.Windows == 0 {
			t.Fatalf("%s: no windows classified", name)
		}
		wins += uint64(rep.Windows)
		flagged += uint64(rep.Flagged)
		degraded += uint64(rep.Degraded)
		dropped += uint64(rep.Dropped)
	}
	if wins != st.Windows || flagged != st.Flagged || degraded != st.Degraded || dropped != st.DroppedWindows {
		t.Fatalf("report totals (%d,%d,%d,%d) disagree with engine stats %+v",
			wins, flagged, degraded, dropped, st)
	}
	if dropped != 0 {
		t.Fatalf("%d windows dropped despite four healthy detectors", dropped)
	}
	if degraded == 0 {
		t.Fatal("no degraded windows: faulty detectors were never scheduled")
	}

	// Quarantines exactly the faulty detectors; weights renormalized.
	if st.Quarantines != 2 {
		t.Fatalf("quarantines %d, want exactly 2", st.Quarantines)
	}
	for i, d := range st.Detectors {
		switch i {
		case 1:
			if d.State != Open || d.Weight != 0 {
				t.Fatalf("faulty detector 1 state=%v weight=%v", d.State, d.Weight)
			}
		default:
			if d.State != Closed {
				t.Fatalf("healthy detector %d state=%v", i, d.State)
			}
			// Five live detectors after detector 4's restore: 1/5 each.
			if got := d.Weight; got < 0.199 || got > 0.201 {
				t.Fatalf("detector %d weight %.4f, want 0.2", i, got)
			}
		}
	}

	// Detector 4 recovered and was restored by a half-open probe.
	if st.Restores != 1 {
		t.Fatalf("restores %d, want 1", st.Restores)
	}
	if st.Detectors[4].State != Closed {
		t.Fatalf("recovered detector state %v", st.Detectors[4].State)
	}

	// The fault modes all actually fired.
	if st.Retries == 0 || st.Timeouts == 0 || st.Panics == 0 {
		t.Fatalf("fault modes missing from stats: %+v", st)
	}

	// Deterministic under the fixed seed: a second run reproduces every
	// report and every health outcome.
	reports2, st2 := run()
	for name, rep := range reports {
		if reports2[name] != rep {
			t.Fatalf("%s: run 1 %+v vs run 2 %+v", name, rep, reports2[name])
		}
	}
	if st2.Windows != st.Windows || st2.Flagged != st.Flagged ||
		st2.Degraded != st.Degraded || st2.Quarantines != st.Quarantines ||
		st2.Restores != st.Restores {
		t.Fatalf("stats not reproducible:\n%v\nvs\n%v", st, st2)
	}
}

// TestCorruptVectorFaultIsCaught exercises the fourth fault mode: a
// corrupted feature vector must surface as a detector failure (and
// eventually a quarantine), never as a silent bogus decision.
func TestCorruptVectorFaultIsCaught(t *testing.T) {
	f := getFixture(t)
	r, err := core.New(f.pool, 0xFEED)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(5)
	in.SetProfile(2, Profile{CorruptRate: 1})
	e, err := New(r, Config{Workers: 1, QueueDepth: 8, TraceLen: f.traceLen, Injector: in})
	if err != nil {
		t.Fatal(err)
	}
	reports := runStream(t, e, f.programs[:6])
	for name, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("%s: %v", name, rep.Err)
		}
		if rep.Dropped != 0 {
			t.Fatalf("%s: dropped %d windows", name, rep.Dropped)
		}
	}
	st := e.Stats()
	if st.Detectors[2].State != Open {
		t.Fatalf("corrupting detector not quarantined: %v", st.Detectors[2].State)
	}
	if st.Detectors[2].Failures == 0 {
		t.Fatal("corrupt faults not recorded as failures")
	}
}

// TestLoadShedding: a full queue rejects work explicitly and counts it.
func TestLoadShedding(t *testing.T) {
	f := getFixture(t)
	r, err := core.New(f.pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(r, Config{Workers: 1, QueueDepth: 2, TraceLen: f.traceLen})
	if err != nil {
		t.Fatal(err)
	}
	// Workers not started: the queue fills at its bound and the rest of
	// the burst is shed.
	accepted := 0
	for _, p := range f.programs {
		if e.Submit(p) {
			accepted++
		}
	}
	if accepted != 2 {
		t.Fatalf("accepted %d with queue depth 2", accepted)
	}
	st := e.Stats()
	if got := int(st.ProgramsShed); got != len(f.programs)-2 {
		t.Fatalf("shed %d, want %d", got, len(f.programs)-2)
	}
	e.Start(context.Background())
	e.Close()
	n := 0
	for range e.Results() {
		n++
	}
	if n != 2 {
		t.Fatalf("drained %d reports", n)
	}
	// A closed engine shreds, never blocks or panics.
	if e.Submit(f.programs[0]) {
		t.Fatal("submit after close accepted")
	}
}

// TestCancellationStopsPromptly: cancelling the context closes Results
// without processing the whole backlog.
func TestCancellationStopsPromptly(t *testing.T) {
	f := getFixture(t)
	r, err := core.New(f.pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(r, Config{Workers: 2, QueueDepth: len(f.programs), TraceLen: f.traceLen})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.Start(ctx)
	for _, p := range f.programs {
		e.Submit(p)
	}
	<-e.Results() // at least one program made it through
	cancel()
	done := make(chan struct{})
	go func() {
		for range e.Results() {
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("engine did not stop after cancellation")
	}
}

// TestTotalPoolLossIsAccounted: when every detector faults permanently,
// the engine keeps running and every window lands in the dropped
// bucket — degraded to uselessness, but never wedged and never silent.
func TestTotalPoolLossIsAccounted(t *testing.T) {
	f := getFixture(t)
	r, err := core.New(f.pool, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(1)
	in.SetDefault(Profile{ErrorRate: 1})
	e, err := New(r, Config{
		Workers:    2,
		QueueDepth: 8,
		TraceLen:   f.traceLen,
		ProbeAfter: 1 << 30, // no probes: the pool stays dead
		Injector:   in,
	})
	if err != nil {
		t.Fatal(err)
	}
	reports := runStream(t, e, f.programs[:4])
	st := e.Stats()
	if st.Quarantines != 6 {
		t.Fatalf("quarantines %d, want all 6", st.Quarantines)
	}
	if st.LivePool() != 0 {
		t.Fatalf("live pool %d", st.LivePool())
	}
	var wins, dropped int
	for _, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("%s: %v", rep.Program, rep.Err)
		}
		if rep.Malware {
			t.Fatalf("%s: verdict from a dead pool", rep.Program)
		}
		wins += rep.Windows
		dropped += rep.Dropped
	}
	if uint64(wins) != st.Windows || uint64(dropped) != st.DroppedWindows {
		t.Fatal("window accounting diverged from stats")
	}
	if dropped == 0 {
		t.Fatal("dead pool dropped nothing")
	}
}
