package game

import (
	"strings"
	"testing"

	"rhmd/internal/core"
	"rhmd/internal/dataset"
	"rhmd/internal/features"
	"rhmd/internal/hmd"
	"rhmd/internal/prog"
)

// basePool trains a compact three-detector pool (all kinds at one
// period) for the RetrainPool tests.
func basePool(t testing.TB) *core.RHMD {
	t.Helper()
	f := getFixture(t)
	data, err := dataset.ExtractWindows(f.train, []int{2000}, f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	specs := core.PoolSpecs(features.AllKinds(), []int{2000}, "lr")
	pool, err := core.TrainPool(specs, data, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.New(pool, 0x6A3E)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRetrainPoolShapeAndDeterminism: a retrained pool preserves the
// base pool's shape exactly (specs, probs, key — SwapPool's validation
// contract), changes the trained parameters, and is a pure function of
// (base, corpus, seed).
func TestRetrainPoolShapeAndDeterminism(t *testing.T) {
	f := getFixture(t)
	base := basePool(t)
	run := func(seed uint64) *PoolRetrainResult {
		res, err := RetrainPool(base, f.test, f.traceLen, seed)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(9)
	if a.Pool.Size() != base.Size() || a.Pool.Key != base.Key {
		t.Fatalf("retrain changed pool shape: size %d→%d key %d→%d",
			base.Size(), a.Pool.Size(), base.Key, a.Pool.Key)
	}
	for i := range base.Detectors {
		if a.Pool.Detectors[i].Spec != base.Detectors[i].Spec {
			t.Fatalf("detector %d spec changed: %s → %s", i, base.Detectors[i].Spec, a.Pool.Detectors[i].Spec)
		}
		if a.Pool.Probs[i] != base.Probs[i] {
			t.Fatalf("detector %d switching probability changed: %v → %v", i, base.Probs[i], a.Pool.Probs[i])
		}
	}
	if a.Pool.Fingerprint() == base.Fingerprint() {
		t.Fatal("retraining on a different corpus left the fingerprint unchanged")
	}
	benign, malware := split(f.test)
	if a.Benign != len(benign) || a.Malware != len(malware) {
		t.Fatalf("corpus counts %d/%d, want %d/%d", a.Benign, a.Malware, len(benign), len(malware))
	}
	if b := run(9); b.Pool.Fingerprint() != a.Pool.Fingerprint() {
		t.Fatalf("same seed produced different pools: %016x vs %016x",
			a.Pool.Fingerprint(), b.Pool.Fingerprint())
	}
}

// TestRetrainPoolValidation: missing base, single-class corpus, and a
// trace shorter than the largest detector period are all refused.
func TestRetrainPoolValidation(t *testing.T) {
	f := getFixture(t)
	base := basePool(t)
	if _, err := RetrainPool(nil, f.test, f.traceLen, 0); err == nil {
		t.Fatal("RetrainPool accepted a nil base pool")
	}
	var benignOnly []*prog.Program
	for _, p := range f.test {
		if p.Label != prog.Malware {
			benignOnly = append(benignOnly, p)
		}
	}
	if _, err := RetrainPool(base, benignOnly, f.traceLen, 0); err == nil {
		t.Fatal("RetrainPool accepted a single-class corpus")
	}
	if _, err := RetrainPool(base, f.test, 1999, 0); err == nil {
		t.Fatal("RetrainPool accepted a trace shorter than the largest period")
	}
}

// TestRetrainPoolFirstError: detectors retrain concurrently, but a
// failing round reports the first failing detector in pool order.
func TestRetrainPoolFirstError(t *testing.T) {
	f := getFixture(t)
	base := basePool(t)
	dets := make([]*hmd.Detector, base.Size())
	for i, d := range base.Detectors {
		c := *d
		if i > 0 {
			c.Spec.Algo = "bogus"
		}
		dets[i] = &c
	}
	broken, err := core.New(dets, base.Key)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RetrainPool(broken, f.test, f.traceLen, 9)
	if err == nil || !strings.Contains(err.Error(), "retraining detector 1 ") {
		t.Fatalf("error %v, want detector 1's", err)
	}
}
