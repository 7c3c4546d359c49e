package game

import (
	"testing"

	"rhmd/internal/dataset"
	"rhmd/internal/features"
	"rhmd/internal/prog"
)

type fixture struct {
	train, test []*prog.Program
	traceLen    int
}

var fx *fixture

func getFixture(t testing.TB) *fixture {
	t.Helper()
	if fx != nil {
		return fx
	}
	cfg := dataset.Config{BenignPerFamily: 10, MalwarePerFamily: 14, TraceLen: 60_000, Seed: 31}
	c, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := c.Split([]float64{0.7, 0.3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	fx = &fixture{train: groups[0], test: groups[1], traceLen: cfg.TraceLen}
	return fx
}

func baseConfig(algo string, traceLen int) Config {
	return Config{
		Algo:        algo,
		Period:      2000,
		TraceLen:    traceLen,
		InjectCount: 2,
		Seed:        5,
	}
}

func TestRetrainLRShape(t *testing.T) {
	f := getFixture(t)
	pts, err := Retrain(f.train, f.test, []float64{0, 0.10, 0.25}, baseConfig("lr", f.traceLen))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	// Unretrained detector misses the evasive malware almost entirely.
	if pts[0].SensEvasive > 0.25 {
		t.Fatalf("evasive malware detected before retraining: %.3f", pts[0].SensEvasive)
	}
	// Retraining raises evasive sensitivity substantially.
	if pts[2].SensEvasive < pts[0].SensEvasive+0.4 {
		t.Fatalf("retraining did not improve evasive detection: %.3f -> %.3f",
			pts[0].SensEvasive, pts[2].SensEvasive)
	}
	// But a linear detector pays for it elsewhere (paper Figure 11a's
	// trade-off; in this corpus it surfaces on benign specificity).
	costUnmod := pts[0].SensUnmodified - pts[2].SensUnmodified
	costSpec := pts[0].Specificity - pts[2].Specificity
	if costUnmod < 0.03 && costSpec < 0.03 {
		t.Fatalf("LR retraining was free (unmod cost %.3f, spec cost %.3f); expected a trade-off",
			costUnmod, costSpec)
	}
}

func TestRetrainNNDetectsEvasive(t *testing.T) {
	f := getFixture(t)
	pts, err := Retrain(f.train, f.test, []float64{0, 0.10, 0.25}, baseConfig("nn", f.traceLen))
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].SensEvasive > 0.3 {
		t.Fatalf("NN detected evasive malware before retraining: %.3f", pts[0].SensEvasive)
	}
	last := pts[len(pts)-1]
	if last.SensEvasive < 0.6 {
		t.Fatalf("NN retraining ineffective: evasive sensitivity %.3f", last.SensEvasive)
	}
	// NN keeps its other metrics within a modest band (Figure 11b).
	if pts[0].SensUnmodified-last.SensUnmodified > 0.2 {
		t.Fatalf("NN lost unmodified sensitivity: %.3f -> %.3f", pts[0].SensUnmodified, last.SensUnmodified)
	}
}

func TestRetrainValidation(t *testing.T) {
	f := getFixture(t)
	if _, err := Retrain(f.train, f.test, []float64{0.5}, Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	cfg := baseConfig("lr", f.traceLen)
	if _, err := Retrain(f.train, f.test, []float64{-0.1}, cfg); err == nil {
		t.Fatal("negative percent accepted")
	}
	var benignOnly []*prog.Program
	for _, p := range f.train {
		if p.Label == prog.Benign {
			benignOnly = append(benignOnly, p)
		}
	}
	if _, err := Retrain(benignOnly, f.test, []float64{0}, cfg); err == nil {
		t.Fatal("single-class training set accepted")
	}
}

func TestGenerationsArmsRace(t *testing.T) {
	f := getFixture(t)
	cfg := baseConfig("nn", f.traceLen)
	cfg.InjectCount = 3 // NN evasion via collapsed weights is approximate
	results, err := Generations(f.train, f.test, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no generations played")
	}
	g1 := results[0]
	// Generation 1: the fresh evasive malware largely evades the detector
	// (the paper's NN evasion reaches ≈80% evasion at 2 per block).
	if g1.SensCurrent > 0.45 {
		t.Fatalf("gen-1 evasive malware detected at %.3f; evasion failed", g1.SensCurrent)
	}
	if g1.Overhead <= 0 {
		t.Fatal("gen-1 overhead not measured")
	}
	if len(results) >= 2 {
		g2 := results[1]
		// Generation 2: retraining catches the previous generation.
		if g2.SensPrevious < g1.SensCurrent+0.3 {
			t.Fatalf("retraining did not catch gen-1 evasive malware: %.3f", g2.SensPrevious)
		}
		// Stacked payloads increase overhead monotonically.
		if g2.Overhead <= g1.Overhead {
			t.Fatalf("overhead did not grow: %.3f -> %.3f", g1.Overhead, g2.Overhead)
		}
	}
}

func TestGenerationsValidation(t *testing.T) {
	f := getFixture(t)
	cfg := baseConfig("nn", f.traceLen)
	if _, err := Generations(f.train, f.test, 0, cfg); err == nil {
		t.Fatal("zero generations accepted")
	}
	if _, err := Generations(nil, f.test, 1, cfg); err == nil {
		t.Fatal("empty training set accepted")
	}
}

func TestConcatAndMetrics(t *testing.T) {
	a := &dataset.WindowData{Kind: features.Instructions, Period: 100,
		X: [][]float64{{1}, {2}}, Y: []int{0, 1}}
	b := &dataset.WindowData{Kind: features.Instructions, Period: 100,
		X: [][]float64{{3}}, Y: []int{1}}
	m := concat(100, a, b)
	if m.Len() != 3 || m.Y[2] != 1 {
		t.Fatalf("concat wrong: %+v", m)
	}
}
