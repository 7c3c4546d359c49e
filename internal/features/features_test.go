package features

import (
	"math"
	"testing"

	"rhmd/internal/isa"
	"rhmd/internal/prog"
	"rhmd/internal/rng"
)

func genProgram(t testing.TB, famIdx int, seed uint64) *prog.Program {
	t.Helper()
	fams := prog.AllFamilies()
	p, err := prog.Generate(fams[famIdx%len(fams)], rng.New(seed), "t", seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExtractShapes(t *testing.T) {
	p := genProgram(t, 0, 1)
	ws, err := Extract(p, 1000, 25000)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Windows < 20 || ws.Windows > 26 {
		t.Fatalf("windows = %d for 25K trace at 1K period", ws.Windows)
	}
	for _, k := range AllKinds() {
		rows := ws.Rows(k)
		if len(rows) != ws.Windows {
			t.Fatalf("%v has %d rows, want %d", k, len(rows), ws.Windows)
		}
		for _, r := range rows {
			if len(r) != k.Dim() {
				t.Fatalf("%v row dim %d, want %d", k, len(r), k.Dim())
			}
		}
	}
}

func TestInstructionRowsSumToOne(t *testing.T) {
	p := genProgram(t, 3, 2)
	ws, err := Extract(p, 2000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ws.Rows(Instructions) {
		sum := 0.0
		for _, v := range r {
			if v < 0 {
				t.Fatalf("negative frequency %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("instruction mix sums to %v", sum)
		}
	}
}

func TestMemoryRowsAreDistributions(t *testing.T) {
	p := genProgram(t, 1, 3)
	ws, err := Extract(p, 2000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ws.Rows(Memory) {
		sum := 0.0
		for _, v := range r {
			if v < 0 || v > 1 {
				t.Fatalf("memory bin out of range: %v", v)
			}
			sum += v
		}
		// First window drops the first reference (no previous address);
		// sums are ≤ 1 and near 1 when memory refs exist.
		if sum > 1+1e-9 {
			t.Fatalf("memory histogram sums to %v", sum)
		}
	}
}

func TestArchRatesWithinBounds(t *testing.T) {
	p := genProgram(t, 2, 4)
	ws, err := Extract(p, 2000, 30000)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ws.Rows(Architectural) {
		for i, v := range r {
			if v < 0 || v > 1 {
				t.Fatalf("arch event %s rate %v out of [0,1]", archNames[i], v)
			}
		}
		if r[ArchTakenBranches] > r[ArchBranches]+1e-12 {
			t.Fatal("taken rate exceeds branch rate")
		}
		if r[ArchL2Misses] > r[ArchL1Misses]+1e-12 {
			t.Fatal("L2 misses exceed L1 misses")
		}
	}
}

func TestExtractDeterministic(t *testing.T) {
	p := genProgram(t, 5, 6)
	a, err := Extract(p, 1000, 10000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Extract(p, 1000, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.Vectors {
		for i := range a.Vectors[k] {
			for j := range a.Vectors[k][i] {
				if a.Vectors[k][i][j] != b.Vectors[k][i][j] {
					t.Fatalf("non-deterministic extraction at kind %d row %d col %d", k, i, j)
				}
			}
		}
	}
}

func TestExtractErrors(t *testing.T) {
	p := genProgram(t, 0, 7)
	if _, err := Extract(p, 0, 1000); err == nil {
		t.Fatal("zero period must error")
	}
	if _, err := Extract(p, 10000, 500); err == nil {
		t.Fatal("budget below period must error")
	}
}

// TestExtractPeriodsMatchesExtract: one trace at several periods —
// including periods that do not divide each other and a budget that
// ends mid-window — yields exactly the bounds and feature bits of one
// Extract per period.
func TestExtractPeriodsMatchesExtract(t *testing.T) {
	p := genProgram(t, 4, 61)
	periods := []int{1500, 700, 2000, 1000, 700}
	sets, err := ExtractPeriods(p, periods, 20_500)
	if err != nil {
		t.Fatal(err)
	}
	for i, period := range periods {
		want, err := Extract(p, period, 20_500)
		if err != nil {
			t.Fatal(err)
		}
		got := sets[i]
		if got.Period != period || got.Windows != want.Windows || len(got.Bounds) != len(want.Bounds) {
			t.Fatalf("period %d: %d windows (period %d), want %d", period, got.Windows, got.Period, want.Windows)
		}
		for w := range want.Bounds {
			if got.Bounds[w] != want.Bounds[w] {
				t.Fatalf("period %d window %d bounds %v, want %v", period, w, got.Bounds[w], want.Bounds[w])
			}
		}
		for k := range want.Vectors {
			for w := range want.Vectors[k] {
				for j, v := range want.Vectors[k][w] {
					if math.Float64bits(got.Vectors[k][w][j]) != math.Float64bits(v) {
						t.Fatalf("period %d kind %d window %d col %d differs", period, k, w, j)
					}
				}
			}
		}
	}
	if _, err := ExtractPeriods(p, nil, 1000); err == nil {
		t.Fatal("empty period list accepted")
	}
	if _, err := ExtractPeriods(p, []int{1000, 0}, 1000); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestFamiliesProduceDifferentMixes(t *testing.T) {
	// compute (ALU/FP heavy) and keylogger (system heavy) must be far
	// apart in instruction-mix space.
	comp, err := Extract(genProgram(t, 2, 8), 5000, 50000) // compute
	if err != nil {
		t.Fatal(err)
	}
	key, err := Extract(genProgram(t, 9, 8), 5000, 50000) // keylogger
	if err != nil {
		t.Fatal(err)
	}
	cm := columnMeans(comp.Rows(Instructions), isa.NumOps)
	km := columnMeans(key.Rows(Instructions), isa.NumOps)
	dist := 0.0
	for i := range cm {
		dist += math.Abs(cm[i] - km[i])
	}
	if dist < 0.15 {
		t.Fatalf("family L1 distance %v too small for classification", dist)
	}
}

func TestDeltaBin(t *testing.T) {
	cases := []struct {
		prev, cur uint64
		want      int
	}{
		{100, 100, 0},
		{100, 101, 1},
		{101, 100, 1}, // absolute value
		{100, 102, 2},
		{100, 104, 3},
		{0, 1 << 40, MemBins - 1}, // saturates
	}
	for _, c := range cases {
		if got := deltaBin(c.prev, c.cur); got != c.want {
			t.Fatalf("deltaBin(%d,%d) = %d, want %d", c.prev, c.cur, got, c.want)
		}
	}
}

func TestTopDeltaIndices(t *testing.T) {
	mal := [][]float64{{0.9, 0.1, 0.5}, {0.8, 0.1, 0.5}}
	ben := [][]float64{{0.1, 0.1, 0.4}, {0.2, 0.1, 0.4}}
	idx := TopDeltaIndices(mal, ben, 2)
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 2 {
		t.Fatalf("TopDeltaIndices = %v, want [0 2]", idx)
	}
	// k larger than dim clamps.
	if got := TopDeltaIndices(mal, ben, 10); len(got) != 3 {
		t.Fatalf("clamped selection returned %d indices", len(got))
	}
	if TopDeltaIndices(nil, ben, 2) != nil {
		t.Fatal("empty class should return nil")
	}
}

func TestProject(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}}
	got := Project(rows, []int{2, 0})
	if got[0][0] != 3 || got[0][1] != 1 || got[1][0] != 6 || got[1][1] != 4 {
		t.Fatalf("Project = %v", got)
	}
}

func TestKindParseRoundTrip(t *testing.T) {
	for _, k := range AllKinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip failed for %v", k)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("bogus kind parsed")
	}
}

func TestKindNamesMatchDims(t *testing.T) {
	for _, k := range AllKinds() {
		if len(k.Names()) != k.Dim() {
			t.Fatalf("%v names/dim mismatch", k)
		}
	}
}

func BenchmarkExtract10K(b *testing.B) {
	p := genProgram(b, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Extract(p, 10000, 100000); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(100000)
}

func TestExtractBounds(t *testing.T) {
	p := genProgram(t, 0, 41)
	ws, err := Extract(p, 1000, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range ws.Bounds {
		if b[1]-b[0] != 1000 {
			t.Fatalf("window %d bounds %v not period-sized", i, b)
		}
		if i > 0 && b[0] != ws.Bounds[i-1][1] {
			t.Fatalf("window %d not contiguous", i)
		}
	}
}

func TestExtractScheduled(t *testing.T) {
	p := genProgram(t, 0, 43)
	lens := []int{500, 1000, 1500}
	i := 0
	next := func() int { l := lens[i%len(lens)]; i++; return l }
	ws, err := ExtractScheduled(p, next, 12000)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Period != 0 {
		t.Fatalf("scheduled Period = %d, want 0", ws.Period)
	}
	for w, b := range ws.Bounds {
		want := lens[w%len(lens)]
		if b[1]-b[0] != want {
			t.Fatalf("window %d length %d, want %d", w, b[1]-b[0], want)
		}
	}
	// All three kinds still aligned.
	for _, k := range AllKinds() {
		if len(ws.Rows(k)) != ws.Windows {
			t.Fatalf("%v rows misaligned", k)
		}
	}
}

func TestExtractScheduledMatchesFixed(t *testing.T) {
	// A constant schedule must reproduce fixed-period extraction exactly.
	p := genProgram(t, 1, 47)
	a, err := Extract(p, 2000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExtractScheduled(p, func() int { return 2000 }, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Windows != b.Windows {
		t.Fatalf("window counts differ: %d vs %d", a.Windows, b.Windows)
	}
	for k := range a.Vectors {
		for i := range a.Vectors[k] {
			for j := range a.Vectors[k][i] {
				if a.Vectors[k][i][j] != b.Vectors[k][i][j] {
					t.Fatal("scheduled extraction diverges from fixed")
				}
			}
		}
	}
}

func TestExtractScheduledErrors(t *testing.T) {
	p := genProgram(t, 0, 53)
	if _, err := ExtractScheduled(p, func() int { return 0 }, 1000); err == nil {
		t.Fatal("non-positive first window accepted")
	}
	if _, err := ExtractScheduled(p, func() int { return 100 }, 0); err == nil {
		t.Fatal("zero budget accepted")
	}
}

// BenchmarkExtractScheduled40K is the verdict path's extraction rung: a
// 40,000-instruction trace under a mixed-period schedule, as a monitor
// engine runs it for every submitted program. fresh builds a new
// pipeline and rows per call (ExtractScheduled); reused runs one warm
// Extractor, as each monitor worker does.
func BenchmarkExtractScheduled40K(b *testing.B) {
	p := genProgram(b, 0, 1)
	lens := []int{1000, 1500, 2000}
	run := func(b *testing.B, extract func(func() int) (*WindowSet, error)) {
		b.ReportAllocs()
		b.SetBytes(40_000)
		for i := 0; i < b.N; i++ {
			k := 0
			if _, err := extract(func() int { k++; return lens[k%len(lens)] }); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("fresh", func(b *testing.B) {
		run(b, func(next func() int) (*WindowSet, error) { return ExtractScheduled(p, next, 40_000) })
	})
	b.Run("reused", func(b *testing.B) {
		var ext Extractor
		run(b, func(next func() int) (*WindowSet, error) { return ext.Scheduled(p, next, 40_000) })
	})
}
