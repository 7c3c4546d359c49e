package hmd

import (
	"testing"

	"rhmd/internal/dataset"
	"rhmd/internal/features"
	"rhmd/internal/ml"
	"rhmd/internal/prog"
)

// testCorpus builds a small corpus plus extracted windows once per run.
var testEnv struct {
	corpus *dataset.Corpus
	wins   *dataset.MultiWindowData
}

func env(t testing.TB) (*dataset.Corpus, *dataset.MultiWindowData) {
	t.Helper()
	if testEnv.corpus == nil {
		cfg := dataset.Config{BenignPerFamily: 8, MalwarePerFamily: 8, TraceLen: 60_000, Seed: 101}
		c, err := dataset.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mws, err := dataset.ExtractWindows(c.Programs, []int{2000}, cfg.TraceLen)
		if err != nil {
			t.Fatal(err)
		}
		testEnv.corpus = c
		testEnv.wins = mws[2000]
	}
	return testEnv.corpus, testEnv.wins
}

func TestTrainAllSpecs(t *testing.T) {
	_, mw := env(t)
	for _, kind := range features.AllKinds() {
		for _, algo := range []string{"lr", "nn", "dt", "svm"} {
			spec := Spec{Kind: kind, Period: 2000, Algo: algo}
			d, err := Train(spec, mw.Get(kind), 1)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			ev, err := d.Evaluate(mw.Get(kind))
			if err != nil {
				t.Fatal(err)
			}
			// Training-set AUC must be well above chance for every spec.
			if ev.AUC < 0.75 {
				t.Errorf("%s train AUC = %.3f", spec, ev.AUC)
			}
		}
	}
}

func TestDetectorGeneralizes(t *testing.T) {
	c, _ := env(t)
	groups, err := c.Split([]float64{0.6, 0.4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	trainW, err := dataset.ExtractWindows(groups[0], []int{2000}, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	testW, err := dataset.ExtractWindows(groups[1], []int{2000}, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Kind: features.Instructions, Period: 2000, Algo: "lr"}
	d, err := Train(spec, trainW[2000].Get(features.Instructions), 1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := d.Evaluate(testW[2000].Get(features.Instructions))
	if err != nil {
		t.Fatal(err)
	}
	// The test corpus is deliberately tiny (a few programs per family),
	// so expect generalization well above chance but below the paper-scale
	// corpus numbers (~0.85+, see cmd/rhmd-bench fig2).
	if ev.AUC < 0.70 {
		t.Fatalf("held-out AUC = %.3f", ev.AUC)
	}
	if acc := ev.Confusion.Accuracy(); acc < 0.65 {
		t.Fatalf("held-out accuracy at trained threshold = %.3f", acc)
	}
}

func TestInstructionsFeatureSelection(t *testing.T) {
	_, mw := env(t)
	d, err := Train(Spec{Kind: features.Instructions, Period: 2000, Algo: "lr"}, mw.Get(features.Instructions), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.FeatureIdx) != DefaultTopK {
		t.Fatalf("selected %d features, want %d", len(d.FeatureIdx), DefaultTopK)
	}
	if d.Model.Dim() != DefaultTopK {
		t.Fatalf("model dim %d", d.Model.Dim())
	}
	d2, err := Train(Spec{Kind: features.Instructions, Period: 2000, Algo: "lr", TopK: 8}, mw.Get(features.Instructions), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.FeatureIdx) != 8 {
		t.Fatalf("TopK override ignored: %d", len(d2.FeatureIdx))
	}
}

func TestNonInstructionKindsUseAllDims(t *testing.T) {
	_, mw := env(t)
	d, err := Train(Spec{Kind: features.Memory, Period: 2000, Algo: "lr"}, mw.Get(features.Memory), 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.FeatureIdx != nil {
		t.Fatal("memory kind should not select features")
	}
	if d.Model.Dim() != features.MemBins {
		t.Fatalf("model dim %d, want %d", d.Model.Dim(), features.MemBins)
	}
}

func TestTrainValidation(t *testing.T) {
	_, mw := env(t)
	wd := mw.Get(features.Memory)
	if _, err := Train(Spec{Kind: features.Instructions, Period: 2000, Algo: "lr"}, wd, 1); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	if _, err := Train(Spec{Kind: features.Memory, Period: 999, Algo: "lr"}, wd, 1); err == nil {
		t.Fatal("period mismatch accepted")
	}
	if _, err := Train(Spec{Kind: features.Memory, Period: 2000, Algo: "bogus"}, wd, 1); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
	if _, err := Train(Spec{Kind: features.Memory, Period: 2000, Algo: "lr"}, &dataset.WindowData{Kind: features.Memory, Period: 2000}, 1); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestDecisionsAreThresholdedScores(t *testing.T) {
	_, mw := env(t)
	wd := mw.Get(features.Architectural)
	d, err := Train(Spec{Kind: features.Architectural, Period: 2000, Algo: "svm"}, wd, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s := d.ScoreWindow(wd.X[i])
		want := 0
		if s >= d.Threshold {
			want = 1
		}
		if d.DecideWindow(wd.X[i]) != want {
			t.Fatal("decision inconsistent with score/threshold")
		}
	}
}

func TestProgramAggregation(t *testing.T) {
	d := &Detector{
		Spec:      Spec{Kind: features.Memory, Period: 2000, Algo: "lr"},
		Scaler:    identityScaler(2),
		Model:     &ml.LRModel{W: []float64{10, 0}},
		Threshold: 0.5,
	}
	hot := []float64{5, 0}   // score ~1
	cold := []float64{-5, 0} // score ~0
	if got := d.ProgramScore([][]float64{hot, hot, cold, cold}); got != 0.5 {
		t.Fatalf("program score %v", got)
	}
	if !d.DetectProgram([][]float64{hot, hot, cold}) {
		t.Fatal("majority-flagged program not detected")
	}
	if d.DetectProgram([][]float64{hot, cold, cold}) {
		t.Fatal("minority-flagged program detected")
	}
	if d.ProgramScore(nil) != 0 {
		t.Fatal("empty program score should be 0")
	}
}

func identityScaler(dim int) *ml.Scaler {
	s := &ml.Scaler{Mean: make([]float64, dim), Std: make([]float64, dim)}
	for i := range s.Std {
		s.Std[i] = 1
	}
	return s
}

func TestDetectTraced(t *testing.T) {
	c, mw := env(t)
	wd := mw.Get(features.Instructions)
	d, err := Train(Spec{Kind: features.Instructions, Period: 2000, Algo: "lr"}, wd, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The detector must detect most malware and pass most benign
	// programs from its own training corpus.
	detectedMal, totalMal := 0, 0
	detectedBen, totalBen := 0, 0
	for _, p := range c.Programs {
		got, err := d.DetectTraced(p, 60_000)
		if err != nil {
			t.Fatal(err)
		}
		if p.Label == prog.Malware {
			totalMal++
			if got {
				detectedMal++
			}
		} else {
			totalBen++
			if got {
				detectedBen++
			}
		}
	}
	if frac := float64(detectedMal) / float64(totalMal); frac < 0.7 {
		t.Fatalf("malware program detection %.3f", frac)
	}
	if frac := float64(detectedBen) / float64(totalBen); frac > 0.35 {
		t.Fatalf("benign false-positive program rate %.3f", frac)
	}
}

func TestSpecString(t *testing.T) {
	s := Spec{Kind: features.Memory, Period: 10000, Algo: "nn"}
	if s.String() != "nn/memory@10000" {
		t.Fatalf("spec string %q", s.String())
	}
}

func TestTrainDeterministic(t *testing.T) {
	_, mw := env(t)
	wd := mw.Get(features.Instructions)
	spec := Spec{Kind: features.Instructions, Period: 2000, Algo: "nn"}
	a, err := Train(spec, wd, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(spec, wd, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if a.ScoreWindow(wd.X[i]) != b.ScoreWindow(wd.X[i]) {
			t.Fatal("training not deterministic")
		}
	}
}

// BenchmarkScoreWindow is the verdict path's scoring rung: one raw
// window vector through a trained detector's projection, scaler and
// model, as the monitor engine classifies every window.
func BenchmarkScoreWindow(b *testing.B) {
	_, mw := env(b)
	for _, algo := range []string{"lr", "nn"} {
		b.Run(algo, func(b *testing.B) {
			spec := Spec{Kind: features.Instructions, Period: 2000, Algo: algo}
			wd := mw.Get(spec.Kind)
			d, err := Train(spec, wd, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			flagged := 0
			for i := 0; i < b.N; i++ {
				if d.ScoreWindow(wd.X[i%len(wd.X)]) >= d.Threshold {
					flagged++
				}
			}
			benchSink = flagged
		})
	}
}

var benchSink int
