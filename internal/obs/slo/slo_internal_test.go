package slo

import (
	"testing"
	"time"

	"rhmd/internal/obs"
)

func mkHistory(base time.Time, step time.Duration, pairs [][2]float64) []sample {
	h := make([]sample, len(pairs))
	for i, p := range pairs {
		h[i] = sample{
			at:  base.Add(time.Duration(i) * step),
			bad: []float64{p[0]},
			tot: []float64{p[1]},
		}
	}
	return h
}

func TestWindowEdge(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	h := mkHistory(base, time.Minute, [][2]float64{
		{0, 0}, {1, 10}, {2, 20}, {3, 30}, {4, 40},
	})

	cases := []struct {
		name   string
		cutoff time.Time
		bad,
		tot float64
	}{
		{"exactly on a sample", base.Add(2 * time.Minute), 2, 20},
		{"between samples picks earlier", base.Add(2*time.Minute + 30*time.Second), 2, 20},
		{"before oldest falls back to oldest", base.Add(-time.Hour), 0, 0},
		{"after newest picks newest", base.Add(time.Hour), 4, 40},
	}
	for _, c := range cases {
		bad, tot := windowEdge(h, c.cutoff, 0)
		if bad != c.bad || tot != c.tot {
			t.Errorf("%s: windowEdge = (%v, %v), want (%v, %v)", c.name, bad, tot, c.bad, c.tot)
		}
	}
}

func TestBurnOver(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	e := &Engine{}
	h := mkHistory(base, time.Minute, [][2]float64{
		{0, 0}, {0, 100}, {0, 200}, {50, 300}, {100, 400},
	})

	// Window covering the last two steps: Δbad = 100-0 = 100 over
	// Δtot = 400-200 = 200; with a 10% budget, burn = 0.5/0.1 = 5.
	burn, ratio := e.burnOver(h, 2*time.Minute, 0, 0.1)
	if ratio != 0.5 || burn != 5 {
		t.Fatalf("burnOver(2m) = (%v, %v), want (5, 0.5)", burn, ratio)
	}

	// Window wider than history: partial window from the oldest sample.
	burn, ratio = e.burnOver(h, time.Hour, 0, 0.1)
	if ratio != 0.25 || burn != 2.5 {
		t.Fatalf("burnOver(1h) = (%v, %v), want (2.5, 0.25)", burn, ratio)
	}

	// No traffic in the window means no burn, not NaN.
	flat := mkHistory(base, time.Minute, [][2]float64{{0, 100}, {0, 100}})
	burn, ratio = e.burnOver(flat, time.Minute, 0, 0.1)
	if burn != 0 || ratio != 0 {
		t.Fatalf("burnOver(no traffic) = (%v, %v), want (0, 0)", burn, ratio)
	}
}

// TestHistoryPrune pins the retention invariant: the history keeps one
// sample at or before the slow-long edge (the window's left endpoint)
// and drops everything older.
func TestHistoryPrune(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("rhmd_x_total", "x")
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	eng, err := New(Config{
		Source: reg,
		Now:    func() time.Time { return now },
		Objectives: []Objective{EventRatio("x", "", 0.9,
			func(obs.Snapshot) float64 { return 0 }, CounterSeries("rhmd_x_total"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		c.Inc()
		eng.Tick()
		now = now.Add(time.Hour)
	}
	// With 1h ticks and the 6h slow-long window, steady state is the
	// current sample, five in-window samples behind it, and the edge.
	if got := len(eng.history); got > 7 {
		t.Fatalf("history holds %d samples after 50 ticks; prune is not bounding it (want ≤ 7)", got)
	}
	edge := eng.history[0].at
	cutoff := eng.history[len(eng.history)-1].at.Add(-SlowLong)
	if edge.After(cutoff) && len(eng.history) >= 7 {
		t.Fatalf("oldest retained sample %v is after the slow-long edge %v", edge, cutoff)
	}
}
