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
// the base, caps at RetryBackoffMax, jitters uniformly within
// [b/2, b), and is a pure function of the fault context — the
// determinism the reproducible-run contract needs.
func TestRetryBackoffJitterBounds(t *testing.T) {
	f := getFixture(t)
	r, err := core.New(f.pool, 0xB0FF)
	if err != nil {
		t.Fatal(err)
	}
	base, cap := time.Millisecond, 8*time.Millisecond
	e, err := New(r, Config{RetryBackoff: base, RetryBackoffMax: cap})
	if err != nil {
		t.Fatal(err)
	}
	fc := FaultContext{Detector: 1, ProgSeed: 42, ProgName: "x", Window: 3}
	for attempt := 1; attempt <= 6; attempt++ {
		fc.Attempt = attempt
		b := base << (attempt - 1)
		if b > cap {
			b = cap
		}
		d := e.retryBackoff(fc, attempt)
		if d < b/2 || d >= b {
			t.Fatalf("attempt %d backoff %v outside [%v, %v)", attempt, d, b/2, b)
		}
		if again := e.retryBackoff(fc, attempt); again != d {
			t.Fatalf("attempt %d backoff not deterministic: %v then %v", attempt, d, again)
		}
	}
	// Jitter must vary with the context, or concurrent retries stampede
	// in lockstep.
	distinct := map[time.Duration]bool{}
	for w := 0; w < 8; w++ {
		fc := FaultContext{Detector: 1, ProgSeed: 42, Window: w, Attempt: 1}
		distinct[e.retryBackoff(fc, 1)] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("8 windows produced %d distinct jittered backoffs", len(distinct))
	}
}

// TestBackoffScheduleUnderInjector: with every classification failing,
// the engine's recorded sleep schedule is exactly the jittered
// exponential ladder — every wait inside its attempt's band, both
// bands exercised — and bit-identical across reruns.
func TestBackoffScheduleUnderInjector(t *testing.T) {
	f := getFixture(t)
	base := time.Millisecond

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
			WindowDeadline: 2 * time.Second, MaxRetries: 2,
			RetryBackoff: base, RetryBackoffMax: 8 * base,
			// Breakers out of the picture: the schedule under test is the
			// backoff ladder, not pool degradation.
			FailureThreshold: 1 << 30,
			Injector:         in, Sleep: rec.sleep,
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
		// MaxRetries=2 and every attempt fails, so retries come in
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
// waited out on the worker through Config.Sleep, capped at the window
// deadline. A stall that reaches the deadline waits exactly the
// deadline and times the attempt out; a shorter one waits its own
// length and the window classifies as if nothing happened.
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
			WindowDeadline: deadline, MaxRetries: -1, FailureThreshold: 1 << 30,
			Injector: in, Sleep: sleep,
		})
		if err != nil {
			t.Fatal(err)
		}
		reps := runStream(t, e, f.programs[:1])
		return reps[f.programs[0].Name], e.Stats()
	}
	clean, _ := run(nil, nil)

	for _, stall := range []time.Duration{3 * time.Millisecond, deadline, 4 * deadline} {
		in := NewInjector(5)
		in.SetDefault(Profile{LatencyRate: 1, Latency: stall})
		rec := &sleepRec{}
		rep, st := run(in, rec.sleep)
		waits := rec.waits()
		if len(waits) == 0 {
			t.Fatalf("stall %v: no wait went through Config.Sleep", stall)
		}
		want := min(stall, deadline)
		for _, d := range waits {
			if d != want {
				t.Fatalf("stall %v: waited %v, want %v", stall, d, want)
			}
		}
		if stall < deadline {
			if st.Timeouts != 0 || rep.Windows != clean.Windows || rep.Flagged != clean.Flagged || rep.Degraded != 0 {
				t.Fatalf("stall %v under the deadline changed the verdict: %+v (timeouts %d), clean %+v",
					stall, rep, st.Timeouts, clean)
			}
			continue
		}
		// Every detector stalls, so every attempt — scheduled and
		// fallback — times out and every window is dropped.
		if st.Timeouts != uint64(len(waits)) || rep.Windows != 0 || rep.Dropped != clean.Windows {
			t.Fatalf("stall %v: %d timeouts for %d waits, report %+v", stall, st.Timeouts, len(waits), rep)
		}
	}
}
