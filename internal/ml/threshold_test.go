package ml

import (
	"math"
	"sort"
	"testing"

	"rhmd/internal/rng"
)

// bestThresholdReference is BestThreshold as first written: every
// candidate threshold re-tallies the full confusion matrix, O(n²). It
// is the oracle the sorted implementation must match bit for bit.
func bestThresholdReference(scores []float64, y []int) (threshold, accuracy float64) {
	if len(scores) == 0 {
		return 0.5, 0
	}
	cands := append([]float64{}, scores...)
	sort.Float64s(cands)
	best := 0.5
	bestAcc := -1.0
	try := func(t float64) {
		c := ConfusionAt(scores, y, t)
		if a := c.Accuracy(); a > bestAcc {
			bestAcc, best = a, t
		}
	}
	try(cands[0] - 1e-9)
	for i := 0; i < len(cands); i++ {
		if i+1 < len(cands) && cands[i] == cands[i+1] {
			continue
		}
		if i+1 < len(cands) {
			try((cands[i] + cands[i+1]) / 2)
		} else {
			try(cands[i] + 1e-9)
		}
	}
	return best, bestAcc
}

func checkAgainstReference(t *testing.T, name string, scores []float64, y []int) {
	t.Helper()
	wantT, wantA := bestThresholdReference(scores, y)
	gotT, gotA := BestThreshold(scores, y)
	if math.Float64bits(gotT) != math.Float64bits(wantT) || math.Float64bits(gotA) != math.Float64bits(wantA) {
		t.Errorf("%s: BestThreshold(%v, %v) = (%v [%016x], %v), reference (%v [%016x], %v)",
			name, scores, y, gotT, math.Float64bits(gotT), gotA, wantT, math.Float64bits(wantT), wantA)
	}
}

func TestBestThresholdMatchesReference(t *testing.T) {
	a := 0.3
	b := math.Nextafter(a, 1) // (a+b)/2 rounds onto an endpoint
	c := math.Nextafter(b, 1)
	inf, nan := math.Inf(1), math.NaN()
	// A second NaN payload: sorting must place NaNs exactly as the
	// reference's sort.Float64s does for a NaN threshold to keep its
	// bits.
	nan2 := math.Float64frombits(0x7ff8000000000abc)
	cases := []struct {
		name   string
		scores []float64
		y      []int
	}{
		{"empty", nil, nil},
		{"single positive", []float64{0.4}, []int{1}},
		{"single negative", []float64{0.4}, []int{0}},
		{"all positive", []float64{0.1, 0.9, 0.5, 0.5}, []int{1, 1, 1, 1}},
		{"all negative", []float64{0.1, 0.9, 0.5, 0.5}, []int{0, 0, 0, 0}},
		{"ties across classes", []float64{0.5, 0.5, 0.5, 0.2, 0.8, 0.8}, []int{1, 0, 1, 0, 1, 0}},
		{"duplicates", []float64{0.7, 0.1, 0.7, 0.1, 0.7, 0.4}, []int{1, 0, 1, 0, 0, 1}},
		{"perfect separation", []float64{0.1, 0.2, 0.3, 0.8, 0.9}, []int{0, 0, 0, 1, 1}},
		{"inverted", []float64{0.1, 0.2, 0.8, 0.9}, []int{1, 1, 0, 0}},
		{"adjacent floats", []float64{a, b, a, b}, []int{0, 1, 0, 1}},
		{"adjacent floats reversed", []float64{b, a, c}, []int{0, 1, 1}},
		{"adjacent floats three", []float64{a, b, c, b}, []int{0, 1, 0, 1}},
		{"signed zero", []float64{math.Copysign(0, -1), 0, 0.5, -0.5}, []int{1, 0, 1, 0}},
		{"infinities", []float64{-inf, 0.2, inf, inf, 0.7}, []int{0, 0, 1, 1, 0}},
		{"only infinities", []float64{inf, -inf, inf}, []int{1, 0, 0}},
		{"nan", []float64{nan, 0.1, nan, 0.9}, []int{1, 0, 0, 1}},
		{"nan wins", []float64{nan, 0.9, nan, 0.8}, []int{0, 0, 0, 1}},
		{"two nan payloads", []float64{nan2, 0.9, nan, 0.8, nan2, nan}, []int{0, 0, 1, 1, 0, 0}},
		{"nan and inf", []float64{nan, inf, -inf, 0.5, nan}, []int{0, 1, 0, 1, 1}},
		{"only nan", []float64{nan, nan}, []int{1, 0}},
		{"non-binary labels count as negative", []float64{0.2, 0.6, 0.9}, []int{2, 1, -1}},
	}
	for _, tc := range cases {
		checkAgainstReference(t, tc.name, tc.scores, tc.y)
	}

	// Seeded random sets: small value alphabets force heavy ties, and
	// the specials appear with small probability.
	r := rng.New(17)
	specials := []float64{nan, nan2, inf, -inf, math.Copysign(0, -1), 0, a, b, c}
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(60)
		alphabet := 1 + r.Intn(12)
		scores := make([]float64, n)
		y := make([]int, n)
		for i := range scores {
			switch {
			case r.Bool(0.1):
				scores[i] = specials[r.Intn(len(specials))]
			case trial%2 == 0:
				scores[i] = float64(r.Intn(alphabet)) / float64(alphabet)
			default:
				scores[i] = r.Float64()
			}
			if r.Bool(0.5) {
				y[i] = 1
			}
		}
		checkAgainstReference(t, "random", scores, y)
	}
}

// thresholdSink keeps BenchmarkBestThreshold's result live.
var thresholdSink float64

// BenchmarkBestThreshold picks the operating point over 2,160 scores,
// the size of the smoke-scale victim set at period 1000 (one detector's
// training windows).
func BenchmarkBestThreshold(b *testing.B) {
	r := rng.New(5)
	scores := make([]float64, 2160)
	y := make([]int, len(scores))
	for i := range scores {
		if r.Bool(0.6) {
			y[i] = 1
			scores[i] = 0.3 + 0.7*r.Float64()
		} else {
			scores[i] = 0.7 * r.Float64()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		thresholdSink, _ = BestThreshold(scores, y)
	}
}
