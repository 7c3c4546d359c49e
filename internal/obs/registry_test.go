package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryIdempotentRegistration: registering the same name twice
// with identical metadata returns the same instrument — the property the
// experiments layer leans on, re-registering per run.
func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "other help is ignored")
	if a != b {
		t.Fatal("re-registration returned a distinct counter")
	}
	a.Add(3)
	if b.Value() != 3 {
		t.Fatalf("aliased counter out of sync: %d", b.Value())
	}
	v1 := r.CounterVec("y_total", "h", "k").With("a")
	v2 := r.CounterVec("y_total", "h", "k").With("a")
	if v1 != v2 {
		t.Fatal("vec child not shared across re-registration")
	}
	if r.CounterVec("y_total", "h", "k").With("b") == v1 {
		t.Fatal("distinct label values shared a child")
	}
}

// TestRegistryKindMismatchPanics: a name reused with a different kind or
// label set is a programmer error and must fail loudly.
func TestRegistryKindMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(*Registry){
		"kind":   func(r *Registry) { r.Counter("m", "h"); r.Gauge("m", "h") },
		"labels": func(r *Registry) { r.CounterVec("m", "h", "a"); r.CounterVec("m", "h", "b") },
		"name":   func(r *Registry) { r.Counter("bad name", "h") },
		"label":  func(r *Registry) { r.CounterVec("m", "h", "bad label") },
		"arity":  func(r *Registry) { r.CounterVec("m", "h", "a").With("x", "y") },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f(NewRegistry())
		})
	}
}

// TestConcurrentInstruments hammers every instrument kind from many
// goroutines; run under -race this is the registry's concurrency proof,
// and the final values prove no increment was lost.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	g := r.Gauge("g", "h")
	h := r.Histogram("h_seconds", "h", []float64{0.5})
	vec := r.CounterVec("v_total", "h", "who")

	const workers, each = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := vec.With("w") // shared child, resolved concurrently
			for i := 0; i < each; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i%2) + 0.25) // alternates buckets
				child.Inc()
			}
		}(w)
	}
	wg.Wait()

	if c.Value() != workers*each {
		t.Fatalf("counter %d, want %d", c.Value(), workers*each)
	}
	if g.Value() != 0 {
		t.Fatalf("gauge %v, want 0 after balanced adds", g.Value())
	}
	if h.Count() != workers*each {
		t.Fatalf("histogram count %d, want %d", h.Count(), workers*each)
	}
	wantSum := float64(workers) * (each/2*0.25 + each/2*1.25)
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Fatalf("histogram sum %v, want %v", h.Sum(), wantSum)
	}
	if vec.With("w").Value() != workers*each {
		t.Fatalf("vec child %d, want %d", vec.With("w").Value(), workers*each)
	}
}

// TestHistogramBucketBoundaries pins the le semantics: a value equal to
// an upper bound lands in that bucket (le = less-or-equal), a value
// above every bound lands only in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 4, 100} {
		h.Observe(v)
	}
	upper, cum := h.Buckets()
	if len(upper) != 3 {
		t.Fatalf("bucket count %d", len(upper))
	}
	// cumulative: le=1 → {0.5, 1}; le=2 → +{1.0000001, 2}; le=4 → +{4}
	want := []uint64{2, 4, 5}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("bucket le=%v cumulative %d, want %d", upper[i], cum[i], want[i])
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count %d, want 6 (the +Inf bucket absorbs 100)", h.Count())
	}
}

// TestHistogramBucketsSortedAndInfStripped: constructors normalize the
// bucket vector so exposition is always monotone.
func TestHistogramBucketsSortedAndInfStripped(t *testing.T) {
	h := newHistogram([]float64{4, 1, math.Inf(1), 2})
	upper, _ := h.Buckets()
	want := []float64{1, 2, 4}
	if len(upper) != len(want) {
		t.Fatalf("upper %v", upper)
	}
	for i := range want {
		if upper[i] != want[i] {
			t.Fatalf("upper %v, want %v", upper, want)
		}
	}
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets %v, want %v", got, want)
		}
	}
	if b := DefLatencyBuckets(); b[0] != 50e-6 || b[len(b)-1] < 1 {
		t.Fatalf("default latency buckets %v do not span 50µs..>1s", b)
	}
}

// TestObserveSince sanity-checks the time-based observe helper.
func TestObserveSince(t *testing.T) {
	h := newHistogram([]float64{10})
	h.ObserveSince(time.Now().Add(-time.Millisecond))
	if h.Count() != 1 || h.Sum() <= 0 || h.Sum() > 1 {
		t.Fatalf("count %d sum %v", h.Count(), h.Sum())
	}
}

// TestWithLabelViews: views prepend their label to every family
// registered through them, resolve one child per label tuple, and the
// whole namespace is exposed and snapshotted through the root.
func TestWithLabelViews(t *testing.T) {
	r := NewRegistry()
	s0, s1 := r.WithLabel("shard", "0"), r.WithLabel("shard", "1")
	for i, v := range []*Registry{s0, s1} {
		v.CounterVec("p_total", "h", "outcome").With("shed").Add(uint64(i + 1))
		v.CounterVec("p_total", "h", "outcome").With("ok").Add(10)
		v.Counter("c_total", "h").Add(uint64(i + 5))
		v.Histogram("l_seconds", "h", []float64{1}).Observe(0.5)
		v.GaugeFunc("f", "h", func() float64 { return float64(i) })
	}
	if s0.Counter("c_total", "h") != r.WithLabel("shard", "0").Counter("c_total", "h") {
		t.Fatal("two views with one label tuple resolved distinct children")
	}

	var buf strings.Builder
	if err := s1.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`p_total{shard="0",outcome="shed"} 1`,
		`p_total{shard="1",outcome="shed"} 2`,
		`c_total{shard="1"} 6`,
		`l_seconds_count{shard="0"} 1`,
		`f{shard="1"} 1`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, buf.String())
		}
	}

	snap := s0.Snapshot()
	if got := snap.CounterWith("p_total", "shed"); got != 3 {
		t.Errorf("CounterWith(shed) = %d, want 3 summed over shards", got)
	}
	if got := snap.CounterWith("p_total", "1", "shed"); got != 2 {
		t.Errorf("CounterWith(1, shed) = %d, want 2", got)
	}
	if got := snap.CounterWith("p_total"); got != 23 {
		t.Errorf("CounterWith with no values = %d, want the family sum 23", got)
	}
	if got := snap.Counter("c_total"); got != 11 {
		t.Errorf("Counter(c_total) = %d, want 11", got)
	}
	if h := snap.Histogram("l_seconds"); h == nil || h.Count != 2 {
		t.Errorf("merged histogram %+v, want count 2", h)
	}

	nested := s0.WithLabel("gen", "7")
	nested.Counter("n_total", "h").Inc()
	if got := r.Snapshot().CounterWith("n_total", "0", "7"); got != 1 {
		t.Errorf("nested view child = %d, want 1", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("registering a view's family without its label did not panic")
		}
	}()
	r.CounterVec("p_total", "h", "outcome")
}
