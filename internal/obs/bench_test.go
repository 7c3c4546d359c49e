package obs

import (
	"strings"
	"testing"
)

// The hot-path primitives must scale with parallelism: counters and
// histogram observes are single atomic ops (plus a CAS for float sums).
// Run with -cpu to confirm no lock serializes the fleet of workers.

func BenchmarkCounterParallel(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkGaugeParallel(b *testing.B) {
	g := NewRegistry().Gauge("bench", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			g.Add(1)
		}
	})
}

func BenchmarkHistogramParallel(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", nil)
	b.RunParallel(func(pb *testing.PB) {
		v := 0.0001
		for pb.Next() {
			h.Observe(v)
			v *= 1.0001
		}
	})
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	hv := r.HistogramVec("bench_latency_seconds", "h", nil, "detector", "spec")
	cv := r.CounterVec("bench_draws_total", "h", "detector", "spec")
	for i := 0; i < 6; i++ {
		spec := strings.Repeat("x", 10)
		hv.With(string(rune('0'+i)), spec).Observe(0.001)
		cv.With(string(rune('0'+i)), spec).Add(100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			b.Fatal(err)
		}
	}
}
