package monitor

import (
	"context"
	"sync"
	"testing"
	"time"

	"rhmd/internal/core"
)

// sleepRec is a recording Config.Sleep fake: it never waits, it only
// remembers what the engine asked for.
type sleepRec struct {
	mu sync.Mutex
	ds []time.Duration
}

func (s *sleepRec) sleep(_ context.Context, d time.Duration) error {
	s.mu.Lock()
	s.ds = append(s.ds, d)
	s.mu.Unlock()
	return nil
}

func (s *sleepRec) waits() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.ds...)
}

// TestRetryBackoffJitterBounds: the per-attempt backoff doubles from
// backoffBase, jitters uniformly within [b/2, b), and is a pure
// function of the fault context — the determinism the reproducible-run
// contract needs.
func TestRetryBackoffJitterBounds(t *testing.T) {
	fc := FaultContext{Detector: 1, ProgSeed: 42, ProgName: "x", Window: 3}
	for attempt := 1; attempt <= maxRetries; attempt++ {
		fc.Attempt = attempt
		b := backoffBase << (attempt - 1)
		d := retryBackoff(fc, attempt)
		if d < b/2 || d >= b {
			t.Fatalf("attempt %d backoff %v outside [%v, %v)", attempt, d, b/2, b)
		}
		if again := retryBackoff(fc, attempt); again != d {
			t.Fatalf("attempt %d backoff not deterministic: %v then %v", attempt, d, again)
		}
	}
	// Jitter must vary with the context, or concurrent retries stampede
	// in lockstep.
	distinct := map[time.Duration]bool{}
	for w := 0; w < 8; w++ {
		fc := FaultContext{Detector: 1, ProgSeed: 42, Window: w, Attempt: 1}
		distinct[retryBackoff(fc, 1)] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("8 windows produced %d distinct jittered backoffs", len(distinct))
	}
}

// TestBackoffScheduleUnderInjector: with every classification failing,
// the engine's recorded sleep schedule is exactly the jittered
// exponential ladder — every wait inside its attempt's band, both
// bands exercised — and bit-identical across reruns. The breakers trip
// and probe as they do in service; every classification they let
// through still runs the full ladder.
func TestBackoffScheduleUnderInjector(t *testing.T) {
	f := getFixture(t)
	base := backoffBase

	run := func() []time.Duration {
		r, err := core.New(f.pool, 0xB0FF)
		if err != nil {
			t.Fatal(err)
		}
		in := NewInjector(9)
		in.SetDefault(Profile{ErrorRate: 1})
		rec := &sleepRec{}
		e, err := New(r, Config{
			Workers: 1, QueueDepth: 4, TraceLen: f.traceLen,
			WindowDeadline: 2 * time.Second,
			Injector:       in, Sleep: rec.sleep,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Start(context.Background())
		if !e.Submit(f.programs[0]) {
			t.Fatal("submit shed")
		}
		e.Close()
		for range e.Results() {
		}
		return rec.waits()
	}

	waits := run()
	if len(waits) == 0 {
		t.Fatal("all-failing run recorded no backoff waits")
	}
	band1, band2 := 0, 0
	for _, d := range waits {
		switch {
		case d >= base/2 && d < base:
			band1++
		case d >= base && d < 2*base:
			band2++
		default:
			t.Fatalf("wait %v outside both attempt bands [%v,%v) and [%v,%v)", d, base/2, base, base, 2*base)
		}
	}
	if band1 == 0 || band2 == 0 {
		t.Fatalf("schedule missing an attempt band: %d first-retry, %d second-retry waits", band1, band2)
	}
	if band1 != band2 {
		// maxRetries is 2 and every attempt fails, so retries come in
		// (attempt 1, attempt 2) pairs.
		t.Fatalf("unpaired retries: %d first-retry vs %d second-retry waits", band1, band2)
	}

	again := run()
	if len(again) != len(waits) {
		t.Fatalf("rerun recorded %d waits, first run %d", len(again), len(waits))
	}
	for i := range waits {
		if waits[i] != again[i] {
			t.Fatalf("wait %d differs across reruns: %v vs %v", i, waits[i], again[i])
		}
	}
}

// TestInjectedStallWaitsThroughSleep: an injected FaultLatency stall is
// waited out on the worker through Config.Sleep for exactly the window
// deadline and times the attempt out. Every other wait is a retry
// backoff.
func TestInjectedStallWaitsThroughSleep(t *testing.T) {
	f := getFixture(t)
	deadline := 10 * time.Millisecond
	run := func(in FaultInjector, sleep func(context.Context, time.Duration) error) (Report, Stats) {
		r, err := core.New(f.pool, 0x57A1)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(r, Config{
			Workers: 1, QueueDepth: 4, TraceLen: f.traceLen,
			WindowDeadline: deadline, Injector: in, Sleep: sleep,
		})
		if err != nil {
			t.Fatal(err)
		}
		reps := runStream(t, e, f.programs[:1])
		return reps[f.programs[0].Name], e.Stats()
	}
	clean, _ := run(nil, nil)

	in := NewInjector(5)
	in.SetDefault(Profile{LatencyRate: 1})
	rec := &sleepRec{}
	rep, st := run(in, rec.sleep)
	stalls := 0
	for _, d := range rec.waits() {
		switch {
		case d == deadline:
			stalls++
		case d >= backoffBase/2 && d < backoffBase<<(maxRetries-1):
			// a retry backoff, checked band by band in
			// TestBackoffScheduleUnderInjector
		default:
			t.Fatalf("waited %v: neither the %v deadline nor a retry backoff", d, deadline)
		}
	}
	if stalls == 0 {
		t.Fatal("no stall went through Config.Sleep")
	}
	// Every detector stalls, so every attempt — scheduled, retried,
	// fallback and probe — times out and every window is dropped.
	if st.Timeouts != uint64(stalls) || rep.Windows != 0 || rep.Dropped != clean.Windows {
		t.Fatalf("%d timeouts for %d stalls, report %+v", st.Timeouts, stalls, rep)
	}
}
