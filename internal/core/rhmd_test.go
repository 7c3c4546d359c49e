package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"rhmd/internal/attack"
	"rhmd/internal/dataset"
	"rhmd/internal/features"
	"rhmd/internal/hmd"
	"rhmd/internal/prog"
	"rhmd/internal/rng"
)

// fixture: corpus, split, per-period window data, and a trained pool.
type fixture struct {
	victimTrain, atkTrain, atkTest []*prog.Program
	traceLen                       int
	data                           map[int]*dataset.MultiWindowData
	pool                           []*hmd.Detector // 3 kinds @ period 2000
}

var fx *fixture

func getFixture(t testing.TB) *fixture {
	t.Helper()
	if fx != nil {
		return fx
	}
	cfg := dataset.Config{BenignPerFamily: 12, MalwarePerFamily: 18, TraceLen: 80_000, Seed: 55}
	c, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := c.Split([]float64{0.6, 0.2, 0.2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	data, err := dataset.ExtractWindows(groups[0], []int{1000, 2000}, cfg.TraceLen)
	if err != nil {
		t.Fatal(err)
	}
	specs := PoolSpecs(features.AllKinds(), []int{2000}, "lr")
	pool, err := TrainPool(specs, data, 1)
	if err != nil {
		t.Fatal(err)
	}
	fx = &fixture{
		victimTrain: groups[0],
		atkTrain:    groups[1],
		atkTest:     groups[2],
		traceLen:    cfg.TraceLen,
		data:        data,
		pool:        pool,
	}
	return fx
}

func TestNewValidation(t *testing.T) {
	f := getFixture(t)
	if _, err := New(nil, 1); err == nil {
		t.Fatal("empty pool accepted")
	}
	if _, err := NewWeighted(f.pool, []float64{1}, 1); err == nil {
		t.Fatal("weight length mismatch accepted")
	}
	if _, err := NewWeighted(f.pool, []float64{0, 0, 0}, 1); err == nil {
		t.Fatal("zero weights accepted")
	}
	if _, err := NewWeighted(f.pool, []float64{1, -0.5, 1}, 1); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewWeighted(f.pool, []float64{1, math.NaN(), 1}, 1); err == nil {
		t.Fatal("NaN weight accepted")
	}
	if _, err := NewWeighted(f.pool, []float64{1, math.Inf(1), 1}, 1); err == nil {
		t.Fatal("Inf weight accepted")
	}
	if _, err := NewWeighted(f.pool, []float64{math.MaxFloat64, math.MaxFloat64, math.MaxFloat64}, 1); err == nil {
		t.Fatal("overflowing weight sum accepted")
	}
	if _, err := New([]*hmd.Detector{nil}, 1); err == nil {
		t.Fatal("nil detector accepted")
	}
	r, err := New(f.pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 3 {
		t.Fatalf("size %d", r.Size())
	}
	for _, p := range r.Probs {
		if math.Abs(p-1.0/3) > 1e-12 {
			t.Fatalf("non-uniform default probs: %v", r.Probs)
		}
	}
}

func TestLiveSamplerRenormalizes(t *testing.T) {
	f := getFixture(t)
	r, err := New(f.pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.LiveSampler([]bool{true}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := r.LiveSampler([]bool{false, false, false}); err == nil {
		t.Fatal("all-dead pool accepted")
	}
	cat, err := r.LiveSampler([]bool{true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	probs := cat.Probs()
	if math.Abs(probs[0]-0.5) > 1e-12 || probs[1] != 0 || math.Abs(probs[2]-0.5) > 1e-12 {
		t.Fatalf("renormalized probs %v, want [0.5 0 0.5]", probs)
	}
	// A quarantined detector is never drawn.
	src := rng.New(3)
	for i := 0; i < 2000; i++ {
		if cat.Sample(src) == 1 {
			t.Fatal("sampled a quarantined detector")
		}
	}
}

func TestSwitchSourceIsIndependentPerCall(t *testing.T) {
	f := getFixture(t)
	r, _ := New(f.pool, 42)
	p := f.atkTest[0]
	a, b := r.SwitchSource(p), r.SwitchSource(p)
	for i := 0; i < 64; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("switch sources for the same program diverge")
		}
	}
}

func TestPoolSpecs(t *testing.T) {
	specs := PoolSpecs(features.AllKinds(), []int{1000, 2000}, "lr")
	if len(specs) != 6 {
		t.Fatalf("got %d specs", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if s.Algo != "lr" {
			t.Fatal("algo not propagated")
		}
		if seen[s.String()] {
			t.Fatalf("duplicate spec %s", s)
		}
		seen[s.String()] = true
	}
}

func TestTrainPoolErrors(t *testing.T) {
	f := getFixture(t)
	if _, err := TrainPool(nil, f.data, 1); err == nil {
		t.Fatal("empty specs accepted")
	}
	specs := PoolSpecs(features.AllKinds(), []int{999}, "lr")
	if _, err := TrainPool(specs, f.data, 1); err == nil {
		t.Fatal("missing period data accepted")
	}
	// Detectors train concurrently, but the error is the first failing
	// spec's in spec order, as a sequential loop would report it.
	mixed := []hmd.Spec{
		{Kind: features.Memory, Period: 2000, Algo: "lr"},
		{Kind: features.Memory, Period: 2000, Algo: "bogus"},
		{Kind: features.Memory, Period: 999, Algo: "lr"},
	}
	if _, err := TrainPool(mixed, f.data, 1); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("error %v, want spec 1's unknown algorithm", err)
	}
	mixed[1].Algo = "lr"
	if _, err := TrainPool(mixed, f.data, 1); err == nil || !strings.Contains(err.Error(), "period 999") {
		t.Fatalf("error %v, want spec 2's missing period", err)
	}
}

// TestTrainPoolSeeds: detector i of a concurrently trained pool is the
// detector hmd.Train fits alone with seed+i·0x9e3779b97f4a7c15.
func TestTrainPoolSeeds(t *testing.T) {
	f := getFixture(t)
	specs := PoolSpecs(features.AllKinds(), []int{1000, 2000}, "lr")
	pool, err := TrainPool(specs, f.data, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		d, err := hmd.Train(spec, f.data[spec.Period].Get(spec.Kind), 11+uint64(i)*0x9e3779b97f4a7c15)
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := hmd.Save(&a, pool[i]); err != nil {
			t.Fatal(err)
		}
		if err := hmd.Save(&b, d); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("detector %d (%s) differs from a lone hmd.Train", i, spec)
		}
	}
}

func TestDecideTraceSchedule(t *testing.T) {
	f := getFixture(t)
	specs := PoolSpecs([]features.Kind{features.Instructions, features.Memory}, []int{1000, 2000}, "lr")
	pool, err := TrainPool(specs, f.data, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(pool, 99)
	if err != nil {
		t.Fatal(err)
	}
	p := f.atkTest[0]
	dec, err := r.DecideTrace(p, f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) == 0 {
		t.Fatal("no decisions")
	}
	saw1000, saw2000 := false, false
	for i, d := range dec {
		length := d.End - d.Start
		switch length {
		case 1000:
			saw1000 = true
		case 2000:
			saw2000 = true
		default:
			t.Fatalf("window %d has length %d", i, length)
		}
		if i > 0 && d.Start != dec[i-1].End {
			t.Fatal("windows not contiguous")
		}
	}
	if !saw1000 || !saw2000 {
		t.Fatal("switching never used both periods")
	}
}

func TestDecideTraceDeterministicPerKey(t *testing.T) {
	f := getFixture(t)
	r1, _ := New(f.pool, 42)
	r2, _ := New(f.pool, 42)
	r3, _ := New(f.pool, 43)
	p := f.atkTest[1]
	a, err := r1.DecideTrace(p, f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := r2.DecideTrace(p, f.traceLen)
	c, _ := r3.DecideTrace(p, f.traceLen)
	if len(a) != len(b) {
		t.Fatal("same key produced different schedules")
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if !same {
		t.Fatal("same key, same program must reproduce decisions")
	}
	diff := len(a) != len(c)
	if !diff {
		for i := range a {
			if a[i] != c[i] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Fatal("different keys produced identical decision streams (suspicious)")
	}
}

func TestRHMDAccuracyNearAverageOfBases(t *testing.T) {
	f := getFixture(t)
	r, _ := New(f.pool, 7)
	// Program-level detection rate of the RHMD should sit near the base
	// detectors' (they are all reasonably accurate, so majority windows
	// dominate).
	correct := 0
	for _, p := range f.atkTest {
		got, err := r.DetectTraced(p, f.traceLen)
		if err != nil {
			t.Fatal(err)
		}
		if got == (p.Label == prog.Malware) {
			correct++
		}
	}
	acc := float64(correct) / float64(len(f.atkTest))
	if acc < 0.65 {
		t.Fatalf("RHMD program accuracy %.3f", acc)
	}
}

func TestDiversityReport(t *testing.T) {
	f := getFixture(t)
	r, _ := New(f.pool, 7)
	rep, err := Diversity(f.pool, r.Probs, f.atkTest, f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	n := len(f.pool)
	for i := 0; i < n; i++ {
		if rep.Delta[i][i] != 0 {
			t.Fatal("self-disagreement non-zero")
		}
		for j := 0; j < n; j++ {
			if rep.Delta[i][j] != rep.Delta[j][i] {
				t.Fatal("delta not symmetric")
			}
			if rep.Delta[i][j] < 0 || rep.Delta[i][j] > 1 {
				t.Fatalf("delta out of range: %v", rep.Delta[i][j])
			}
		}
		if rep.Errors[i] <= 0 || rep.Errors[i] >= 0.5 {
			t.Fatalf("base error %v implausible", rep.Errors[i])
		}
	}
	// Detectors over different features must disagree meaningfully.
	if rep.Delta[0][1] < 0.03 {
		t.Fatalf("cross-feature disagreement %.4f too small", rep.Delta[0][1])
	}
	if rep.LowerBound <= 0 {
		t.Fatalf("lower bound %v", rep.LowerBound)
	}
	if rep.UpperBound < rep.LowerBound {
		t.Fatalf("bounds inverted: [%v, %v]", rep.LowerBound, rep.UpperBound)
	}
	if rep.BaselineError <= 0 || rep.BaselineError >= 0.5 {
		t.Fatalf("baseline error %v", rep.BaselineError)
	}
	// Triangle-like consistency: disagreement between two detectors is at
	// most the sum of their errors... not strictly true pointwise, but
	// Δij ≤ e_i + e_j holds because both must deviate from truth to
	// disagree... actually only one needs to deviate; check the valid
	// direction: Δij ≤ e_i + e_j.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rep.Delta[i][j] > rep.Errors[i]+rep.Errors[j]+1e-9 {
				t.Fatalf("Δ[%d][%d]=%v exceeds e_i+e_j=%v", i, j, rep.Delta[i][j], rep.Errors[i]+rep.Errors[j])
			}
		}
	}
}

func TestDiversityErrors(t *testing.T) {
	f := getFixture(t)
	if _, err := Diversity(nil, nil, f.atkTest, f.traceLen); err == nil {
		t.Fatal("empty pool accepted")
	}
	if _, err := Diversity(f.pool, []float64{1}, f.atkTest, f.traceLen); err == nil {
		t.Fatal("probs mismatch accepted")
	}
	r, _ := New(f.pool, 1)
	if _, err := Diversity(f.pool, r.Probs, nil, f.traceLen); err == nil {
		t.Fatal("no programs accepted")
	}
}

func TestCheckBounds(t *testing.T) {
	rep := &DiversityReport{LowerBound: 0.2}
	if err := rep.CheckBounds(0.25, 0.02); err != nil {
		t.Fatal("error above bound rejected")
	}
	if err := rep.CheckBounds(0.19, 0.02); err != nil {
		t.Fatal("error within eps rejected")
	}
	if err := rep.CheckBounds(0.1, 0.02); err == nil {
		t.Fatal("bound violation not caught")
	}
}

func TestReverseEngineeringRHMDIsHarderThanSingle(t *testing.T) {
	f := getFixture(t)
	single := f.pool[0] // lr/instructions
	spec := hmd.Spec{Kind: features.Instructions, Period: 2000, Algo: "lr"}
	_, agreeSingle, err := attack.ReverseEngineer(single, f.atkTrain, f.atkTest, spec, f.traceLen, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := New(f.pool, 42)
	_, agreeRHMD, err := attack.ReverseEngineer(r, f.atkTrain, f.atkTest, spec, f.traceLen, 3)
	if err != nil {
		t.Fatal(err)
	}
	if agreeRHMD >= agreeSingle {
		t.Fatalf("RHMD RE agreement %.3f should be below single-detector %.3f", agreeRHMD, agreeSingle)
	}
}

func TestRHMDString(t *testing.T) {
	f := getFixture(t)
	r, _ := New(f.pool[:2], 1)
	want := "RHMD{lr/instructions@2000, lr/memory@2000}"
	if r.String() != want {
		t.Fatalf("String = %q, want %q", r.String(), want)
	}
}

func TestEnsembleValidation(t *testing.T) {
	f := getFixture(t)
	if _, err := NewEnsemble(nil); err == nil {
		t.Fatal("empty ensemble accepted")
	}
	if _, err := NewEnsemble([]*hmd.Detector{nil}); err == nil {
		t.Fatal("nil detector accepted")
	}
	// Mixed periods rejected.
	specs := PoolSpecs([]features.Kind{features.Instructions}, []int{1000, 2000}, "lr")
	mixed, err := TrainPool(specs, f.data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEnsemble(mixed); err == nil {
		t.Fatal("mixed-period ensemble accepted")
	}
	ens, err := NewEnsemble(f.pool)
	if err != nil {
		t.Fatal(err)
	}
	if ens.Size() != 3 {
		t.Fatalf("size %d", ens.Size())
	}
}

func TestEnsembleIsDeterministicAndAccurate(t *testing.T) {
	f := getFixture(t)
	ens, err := NewEnsemble(f.pool)
	if err != nil {
		t.Fatal(err)
	}
	p := f.atkTest[0]
	a, err := ens.DecideTrace(p, f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ens.DecideTrace(p, f.traceLen)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("ensemble decisions not deterministic")
		}
	}
	correct := 0
	for _, p := range f.atkTest {
		got, err := ens.DetectTraced(p, f.traceLen)
		if err != nil {
			t.Fatal(err)
		}
		if got == (p.Label == prog.Malware) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(f.atkTest)); acc < 0.65 {
		t.Fatalf("ensemble program accuracy %.3f", acc)
	}
}

func TestEnsembleIsEasierToReverseEngineerThanRHMD(t *testing.T) {
	f := getFixture(t)
	ens, err := NewEnsemble(f.pool)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(f.pool, 42)
	if err != nil {
		t.Fatal(err)
	}
	spec := hmd.Spec{Kind: features.Instructions, Period: 2000, Algo: "lr", TopK: 24}
	_, agreeEns, err := attack.ReverseEngineer(ens, f.atkTrain, f.atkTest, spec, f.traceLen, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, agreeRHMD, err := attack.ReverseEngineer(r, f.atkTrain, f.atkTest, spec, f.traceLen, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's §9.1 claim: the deterministic ensemble is
	// reverse-engineerable; the stochastic switch is the protection.
	if agreeEns <= agreeRHMD {
		t.Fatalf("ensemble agreement %.3f should exceed RHMD %.3f", agreeEns, agreeRHMD)
	}
}

func TestNonStationaryValidation(t *testing.T) {
	f := getFixture(t)
	if _, err := NewNonStationary(nil, 1, 5, 1); err == nil {
		t.Fatal("empty pool accepted")
	}
	if _, err := NewNonStationary(f.pool, 0, 5, 1); err == nil {
		t.Fatal("zero active size accepted")
	}
	if _, err := NewNonStationary(f.pool, 9, 5, 1); err == nil {
		t.Fatal("oversized active set accepted")
	}
	if _, err := NewNonStationary(f.pool, 2, 0, 1); err == nil {
		t.Fatal("zero epoch accepted")
	}
}

func TestNonStationaryDecides(t *testing.T) {
	f := getFixture(t)
	specs := PoolSpecs(features.AllKinds(), []int{1000, 2000}, "lr")
	pool, err := TrainPool(specs, f.data, 1)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := NewNonStationary(pool, 3, 4, 77)
	if err != nil {
		t.Fatal(err)
	}
	if ns.String() == "" {
		t.Fatal("empty string")
	}
	dec, err := ns.DecideTrace(f.atkTest[0], f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) == 0 {
		t.Fatal("no decisions")
	}
	for i := 1; i < len(dec); i++ {
		if dec[i].Start != dec[i-1].End {
			t.Fatal("windows not contiguous")
		}
	}
	// Determinism per key.
	dec2, _ := ns.DecideTrace(f.atkTest[0], f.traceLen)
	for i := range dec {
		if dec[i] != dec2[i] {
			t.Fatal("non-stationary decisions not reproducible")
		}
	}
	// Program-level accuracy above chance.
	correct := 0
	for _, p := range f.atkTest {
		got, err := ns.DetectTraced(p, f.traceLen)
		if err != nil {
			t.Fatal(err)
		}
		if got == (p.Label == prog.Malware) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(f.atkTest)); acc < 0.6 {
		t.Fatalf("non-stationary accuracy %.3f", acc)
	}
}

func TestRHMDSaveLoadRoundTrip(t *testing.T) {
	f := getFixture(t)
	orig, err := New(f.pool, 0xBEEF)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveRHMD(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRHMD(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != orig.Size() || got.Key != orig.Key {
		t.Fatal("metadata changed")
	}
	// The fingerprint is the pool's identity across crash recovery
	// (pool-swap WAL entries, the drift-guard archive): a persistence
	// round trip must preserve it bit-for-bit, including the probability
	// vector NewWeighted would otherwise re-normalize.
	if got.Fingerprint() != orig.Fingerprint() {
		t.Fatalf("round trip changed fingerprint %016x → %016x", orig.Fingerprint(), got.Fingerprint())
	}
	// Decisions must be identical (same pool, same key).
	p := f.atkTest[0]
	a, err := orig.DecideTrace(p, f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.DecideTrace(p, f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("decisions diverge after round trip")
		}
	}
	if _, err := LoadRHMD(strings.NewReader(`{"detectors":[],"probs":[],"key":0}`)); err == nil {
		t.Fatal("empty persisted pool accepted")
	}
}
