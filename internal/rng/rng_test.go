package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestNewDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestNewKeyedIndependentStreams(t *testing.T) {
	a := NewKeyed(7, "trace")
	b := NewKeyed(7, "corpus")
	if a.Uint64() == b.Uint64() {
		t.Fatal("keyed streams should differ")
	}
	c := NewKeyed(7, "trace")
	d := NewKeyed(7, "trace")
	if c.Uint64() != d.Uint64() {
		t.Fatal("same key+seed must match")
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	// xoshiro would be broken by an all-zero state; SplitMix seeding avoids it.
	allZero := true
	for i := 0; i < 10; i++ {
		if r.Uint64() != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("seed 0 produced all-zero stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) covered %d values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(6)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(3, 5)
		if v < 3 || v > 5 {
			t.Fatalf("IntRange(3,5) = %d", v)
		}
	}
	if got := r.IntRange(4, 4); got != 4 {
		t.Fatalf("degenerate range = %d", got)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(7)
	n := 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm(10, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Fatalf("normal stddev = %v", math.Sqrt(variance))
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(10)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(11)
	child := parent.Split()
	if parent.Uint64() == child.Uint64() {
		t.Fatal("split child mirrors parent")
	}
}

func TestJitterBounds(t *testing.T) {
	r := New(12)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(100, 0.2)
		if v < 80 || v > 120 {
			t.Fatalf("Jitter out of bounds: %v", v)
		}
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	c := MustCategorical([]float64{1, 2, 3, 4})
	r := New(13)
	counts := make([]int, 4)
	n := 200000
	for i := 0; i < n; i++ {
		counts[c.Sample(r)]++
	}
	for i, want := range []float64{0.1, 0.2, 0.3, 0.4} {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("category %d freq %v, want %v", i, got, want)
		}
	}
}

func TestCategoricalErrors(t *testing.T) {
	if _, err := NewCategorical(nil); err == nil {
		t.Fatal("want error for empty weights")
	}
	if _, err := NewCategorical([]float64{0, 0}); err == nil {
		t.Fatal("want error for all-zero weights")
	}
	if _, err := NewCategorical([]float64{1, -1}); err == nil {
		t.Fatal("want error for negative weight")
	}
	if _, err := NewCategorical([]float64{1, math.NaN()}); err == nil {
		t.Fatal("want error for NaN weight")
	}
	if _, err := NewCategorical([]float64{1, math.Inf(1)}); err == nil {
		t.Fatal("want error for +Inf weight")
	}
	if _, err := NewCategorical([]float64{1, math.Inf(-1)}); err == nil {
		t.Fatal("want error for -Inf weight")
	}
	// Individually finite weights whose sum overflows to +Inf would
	// normalize into NaNs; the constructor must reject them.
	if _, err := NewCategorical([]float64{math.MaxFloat64, math.MaxFloat64}); err == nil {
		t.Fatal("want error for weight sum overflowing to +Inf")
	}
}

func TestCategoricalZeroWeightNeverSampled(t *testing.T) {
	c := MustCategorical([]float64{0, 1, 0, 1})
	r := New(14)
	for i := 0; i < 10000; i++ {
		v := c.Sample(r)
		if v == 0 || v == 2 {
			t.Fatalf("sampled zero-weight category %d", v)
		}
	}
}

func TestCategoricalSingle(t *testing.T) {
	c := MustCategorical([]float64{5})
	r := New(15)
	for i := 0; i < 10; i++ {
		if c.Sample(r) != 0 {
			t.Fatal("single-category sampler must return 0")
		}
	}
}

// Property: alias-table probabilities always form a normalized
// distribution matching the input ratios, for arbitrary positive weights.
func TestCategoricalNormalizationProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		w := make([]float64, len(raw))
		total := 0.0
		for i, v := range raw {
			w[i] = float64(v%1000) + 1 // strictly positive
			total += w[i]
		}
		c, err := NewCategorical(w)
		if err != nil {
			return false
		}
		sum := 0.0
		for i := range w {
			if math.Abs(c.Prob(i)-w[i]/total) > 1e-12 {
				return false
			}
			sum += c.Prob(i)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDirichletIsDistribution(t *testing.T) {
	r := New(17)
	base := []float64{0.5, 0.3, 0.2}
	for i := 0; i < 100; i++ {
		d := Dirichlet(r, base, 50)
		sum := 0.0
		for _, v := range d {
			if v < 0 {
				t.Fatalf("negative component %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("dirichlet sum = %v", sum)
		}
	}
}

func TestDirichletConcentration(t *testing.T) {
	r := New(18)
	base := []float64{0.5, 0.5}
	// High alpha should stay near the base; low alpha should wander.
	devHigh, devLow := 0.0, 0.0
	n := 500
	for i := 0; i < n; i++ {
		h := Dirichlet(r, base, 500)
		l := Dirichlet(r, base, 2)
		devHigh += math.Abs(h[0] - 0.5)
		devLow += math.Abs(l[0] - 0.5)
	}
	if devHigh >= devLow {
		t.Fatalf("high-alpha deviation %v should be < low-alpha %v", devHigh/float64(n), devLow/float64(n))
	}
}

func TestShuffleCoverage(t *testing.T) {
	r := New(20)
	// A 3-element shuffle should reach all 6 permutations.
	seen := map[[3]int]bool{}
	for i := 0; i < 600; i++ {
		a := [3]int{0, 1, 2}
		r.Shuffle(3, func(i, j int) { a[i], a[j] = a[j], a[i] })
		seen[a] = true
	}
	if len(seen) != 6 {
		t.Fatalf("shuffle reached %d/6 permutations", len(seen))
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkCategoricalSample(b *testing.B) {
	w := make([]float64, 64)
	for i := range w {
		w[i] = float64(i + 1)
	}
	c := MustCategorical(w)
	r := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Sample(r)
	}
}
