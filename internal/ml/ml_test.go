package ml

import (
	"math"
	"testing"
	"testing/quick"

	"rhmd/internal/rng"
)

// gauss2 builds a two-Gaussian binary dataset; sep controls difficulty.
func gauss2(n int, sep float64, seed uint64) ([][]float64, []int) {
	r := rng.New(seed)
	X := make([][]float64, 0, 2*n)
	y := make([]int, 0, 2*n)
	for i := 0; i < n; i++ {
		X = append(X, []float64{r.Norm(-sep/2, 1), r.Norm(-sep/2, 1), r.Norm(0, 1)})
		y = append(y, 0)
		X = append(X, []float64{r.Norm(sep/2, 1), r.Norm(sep/2, 1), r.Norm(0, 1)})
		y = append(y, 1)
	}
	return X, y
}

// xorData builds the canonical non-linearly-separable dataset: the
// label is the XOR of the signs of the first two of eight inputs, and
// the other six inputs are zero. The paper's MLP has one hidden neuron
// per input, so eight inputs give it the width to learn XOR within its
// 60 epochs.
func xorData(n int, seed uint64) ([][]float64, []int) {
	r := rng.New(seed)
	X := make([][]float64, 0, 4*n)
	y := make([]int, 0, 4*n)
	for i := 0; i < n; i++ {
		for _, q := range [][3]float64{{-1, -1, 0}, {1, 1, 0}, {-1, 1, 1}, {1, -1, 1}} {
			x := make([]float64, 8)
			x[0], x[1] = q[0]+r.Norm(0, 0.25), q[1]+r.Norm(0, 0.25)
			X = append(X, x)
			y = append(y, int(q[2]))
		}
	}
	return X, y
}

func trainAccuracy(t *testing.T, tr Trainer, X [][]float64, y []int) float64 {
	t.Helper()
	m, err := tr.Train(X, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := ConfusionAt(Scores(m, X), y, 0.5)
	return c.Accuracy()
}

func TestAllTrainersOnSeparableData(t *testing.T) {
	X, y := gauss2(300, 4, 1)
	for _, tr := range []Trainer{LogisticRegression{}, MLP{}, DecisionTree{}, LinearSVM{}} {
		if acc := trainAccuracy(t, tr, X, y); acc < 0.95 {
			t.Errorf("%s accuracy %.3f on separable data", tr.Name(), acc)
		}
	}
}

func TestMLPSolvesXORButLRCannot(t *testing.T) {
	X, y := xorData(100, 2)
	lrAcc := trainAccuracy(t, LogisticRegression{}, X, y)
	m, err := MLP{}.Train(X, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h := len(m.(*MLPModel).W1); h != len(X[0]) {
		t.Errorf("MLP has %d hidden neurons for %d inputs, want one per feature (§4)", h, len(X[0]))
	}
	nnAcc := ConfusionAt(Scores(m, X), y, 0.5).Accuracy()
	if lrAcc > 0.75 {
		t.Errorf("LR should fail on XOR, got %.3f", lrAcc)
	}
	if nnAcc < 0.95 {
		t.Errorf("MLP should solve XOR, got %.3f", nnAcc)
	}
}

func TestTreeSolvesXOR(t *testing.T) {
	X, y := xorData(100, 3)
	if acc := trainAccuracy(t, DecisionTree{}, X, y); acc < 0.95 {
		t.Errorf("DT should solve XOR, got %.3f", acc)
	}
}

func TestTrainersDeterministic(t *testing.T) {
	X, y := gauss2(100, 2, 4)
	for _, tr := range []Trainer{LogisticRegression{}, MLP{}, DecisionTree{}, LinearSVM{}} {
		m1, err := tr.Train(X, y, 42)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := tr.Train(X, y, 42)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if a, b := m1.Score(X[i]), m2.Score(X[i]); a != b {
				t.Fatalf("%s non-deterministic: %v vs %v", tr.Name(), a, b)
			}
		}
	}
}

func TestValidateRejectsBadData(t *testing.T) {
	tr := LogisticRegression{}
	if _, err := tr.Train(nil, nil, 1); err == nil {
		t.Fatal("empty data accepted")
	}
	if _, err := tr.Train([][]float64{{1}}, []int{0, 1}, 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := tr.Train([][]float64{{1}, {2}}, []int{0, 0}, 1); err == nil {
		t.Fatal("single-class data accepted")
	}
	if _, err := tr.Train([][]float64{{1}, {2, 3}}, []int{0, 1}, 1); err == nil {
		t.Fatal("ragged matrix accepted")
	}
	if _, err := tr.Train([][]float64{{1}, {2}}, []int{0, 7}, 1); err == nil {
		t.Fatal("bad label accepted")
	}
}

func TestLRWeightsPointTowardPositiveClass(t *testing.T) {
	X, y := gauss2(300, 3, 5)
	m, err := LogisticRegression{}.Train(X, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	lr := m.(*LRModel)
	// Positive class is shifted +sep/2 on dims 0 and 1.
	if lr.W[0] <= 0 || lr.W[1] <= 0 {
		t.Fatalf("weights %v should be positive on discriminative dims", lr.W)
	}
	if math.Abs(lr.W[2]) > math.Abs(lr.W[0])/2 {
		t.Fatalf("noise dim weight %v too large vs %v", lr.W[2], lr.W[0])
	}
}

func TestMLPCollapseWeights(t *testing.T) {
	m := &MLPModel{
		W1: [][]float64{{1, -2}, {3, 0.5}},
		B1: []float64{0, 0},
		W2: []float64{0.5, -1},
	}
	w := m.CollapseWeights()
	// w_j = sum_h W1[h][j]*W2[h]
	want0 := 1*0.5 + 3*-1.0
	want1 := -2*0.5 + 0.5*-1.0
	if math.Abs(w[0]-want0) > 1e-12 || math.Abs(w[1]-want1) > 1e-12 {
		t.Fatalf("collapsed = %v, want [%v %v]", w, want0, want1)
	}
}

func TestMLPCollapsePredictsInjectionDirection(t *testing.T) {
	// Build data where the positive class sits LOW on dim 0 and HIGH on
	// dim 1: the collapsed weight for dim 0 must come out negative, and
	// pushing a positive-class point along dim 0 must reduce its score —
	// the property the paper's NN evasion heuristic relies on.
	r := rng.New(6)
	var X [][]float64
	var y []int
	for i := 0; i < 300; i++ {
		X = append(X, []float64{r.Norm(1.5, 1), r.Norm(-1.5, 1)})
		y = append(y, 0)
		X = append(X, []float64{r.Norm(-1.5, 1), r.Norm(1.5, 1)})
		y = append(y, 1)
	}
	m, err := MLP{}.Train(X, y, 2)
	if err != nil {
		t.Fatal(err)
	}
	nn := m.(*MLPModel)
	w := nn.CollapseWeights()
	if w[0] >= 0 || w[1] <= 0 {
		t.Fatalf("collapsed weights %v have wrong signs", w)
	}
	x := []float64{-1, 1} // firmly positive-class
	before := nn.Score(x)
	x[0] += 2.5 // push along the most negative collapsed weight
	after := nn.Score(x)
	if after >= before {
		t.Fatalf("score did not drop along negative collapsed weight: %v -> %v", before, after)
	}
}

func TestTreeDepthAndLeafBounds(t *testing.T) {
	X, y := gauss2(400, 1, 7)
	m, err := DecisionTree{}.Train(X, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree := m.(*TreeModel)
	// The classes overlap, so only the depth bound stops the growth: 8
	// splits on the deepest path, and Depth counts the nodes on it.
	if d := tree.Depth(); d != 9 {
		t.Fatalf("tree depth %d, want 9 (8 splits)", d)
	}
	held := make([]int, tree.Nodes())
	for _, x := range X {
		held[tree.leaf(x)]++
	}
	for i, n := range tree.nodes {
		if n.feature < 0 && held[i] < 5 {
			t.Fatalf("leaf %d holds %d training samples, want at least 5", i, held[i])
		}
	}
}

func TestTreeScoreIsProbability(t *testing.T) {
	X, y := gauss2(200, 2, 8)
	m, _ := DecisionTree{}.Train(X, y, 1)
	for _, x := range X {
		if s := m.Score(x); s < 0 || s > 1 {
			t.Fatalf("tree score %v out of [0,1]", s)
		}
	}
}

func TestSVMMarginSign(t *testing.T) {
	X, y := gauss2(300, 4, 9)
	m, err := LinearSVM{}.Train(X, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, x := range X {
		if (m.Score(x) >= 0.5) == (y[i] == 1) {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(X)); frac < 0.95 {
		t.Fatalf("SVM margin accuracy %.3f", frac)
	}
	// Score(margin 0) must equal 0.5 so thresholds compose.
	if s := sigmoid(0); s != 0.5 {
		t.Fatalf("sigmoid(0) = %v", s)
	}
}

func TestScalerStandardizes(t *testing.T) {
	X := [][]float64{{1, 10}, {3, 10}, {5, 10}}
	s, err := FitScaler(X)
	if err != nil {
		t.Fatal(err)
	}
	Z := s.TransformAll(X)
	if math.Abs(Z[0][0]+Z[2][0]) > 1e-9 || Z[1][0] != 0 {
		t.Fatalf("standardization wrong: %v", Z)
	}
	// Constant column: centred to zero, not blown up.
	for _, z := range Z {
		if z[1] != 0 {
			t.Fatalf("constant column transformed to %v", z[1])
		}
	}
}

func TestScalerErrors(t *testing.T) {
	if _, err := FitScaler(nil); err == nil {
		t.Fatal("empty matrix accepted")
	}
	if _, err := FitScaler([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

func TestConfusionMetrics(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.4, 0.2, 0.6, 0.1}
	y := []int{1, 1, 1, 0, 0, 0}
	c := ConfusionAt(scores, y, 0.5)
	if c.TP != 2 || c.FN != 1 || c.FP != 1 || c.TN != 2 {
		t.Fatalf("confusion = %v", c)
	}
	if math.Abs(c.Sensitivity()-2.0/3) > 1e-12 {
		t.Fatalf("sensitivity = %v", c.Sensitivity())
	}
	if math.Abs(c.Specificity()-2.0/3) > 1e-12 {
		t.Fatalf("specificity = %v", c.Specificity())
	}
	if math.Abs(c.Accuracy()-4.0/6) > 1e-12 {
		t.Fatalf("accuracy = %v", c.Accuracy())
	}
}

func TestROCAndAUCPerfect(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	y := []int{1, 1, 0, 0}
	if auc := AUC(scores, y); math.Abs(auc-1) > 1e-12 {
		t.Fatalf("perfect AUC = %v", auc)
	}
	rev := []float64{0.1, 0.2, 0.8, 0.9}
	if auc := AUC(rev, y); math.Abs(auc) > 1e-12 {
		t.Fatalf("inverted AUC = %v", auc)
	}
}

func TestAUCRandomIsHalf(t *testing.T) {
	r := rng.New(11)
	n := 4000
	scores := make([]float64, n)
	y := make([]int, n)
	for i := range scores {
		scores[i] = r.Float64()
		y[i] = i % 2
	}
	if auc := AUC(scores, y); math.Abs(auc-0.5) > 0.03 {
		t.Fatalf("random AUC = %v", auc)
	}
}

func TestROCMonotone(t *testing.T) {
	r := rng.New(12)
	scores := make([]float64, 500)
	y := make([]int, 500)
	for i := range scores {
		scores[i] = r.Float64()
		y[i] = r.Intn(2)
	}
	curve := ROC(scores, y)
	for i := 1; i < len(curve); i++ {
		if curve[i].FPR < curve[i-1].FPR || curve[i].TPR < curve[i-1].TPR {
			t.Fatalf("ROC not monotone at %d", i)
		}
	}
	last := curve[len(curve)-1]
	if last.FPR != 1 || last.TPR != 1 {
		t.Fatalf("ROC does not end at (1,1): %+v", last)
	}
}

func TestBestThreshold(t *testing.T) {
	scores := []float64{0.9, 0.7, 0.3, 0.1}
	y := []int{1, 1, 0, 0}
	thr, acc := BestThreshold(scores, y)
	if acc != 1 {
		t.Fatalf("best accuracy = %v", acc)
	}
	if thr <= 0.3 || thr >= 0.7 {
		t.Fatalf("threshold %v outside separating gap", thr)
	}
	// Degenerate input.
	if thr, acc := BestThreshold(nil, nil); thr != 0.5 || acc != 0 {
		t.Fatal("empty BestThreshold should return defaults")
	}
}

func TestAgreement(t *testing.T) {
	if a := Agreement([]int{1, 0, 1}, []int{1, 1, 1}); math.Abs(a-2.0/3) > 1e-12 {
		t.Fatalf("agreement = %v", a)
	}
	if Agreement(nil, nil) != 0 {
		t.Fatal("empty agreement should be 0")
	}
	if Agreement([]int{1}, []int{1, 0}) != 0 {
		t.Fatal("mismatched lengths should be 0")
	}
}

func TestPredictThreshold(t *testing.T) {
	m := &LRModel{W: []float64{1}, B: 0}
	if Predict(m, []float64{10}, 0.5) != 1 {
		t.Fatal("high score should predict 1")
	}
	if Predict(m, []float64{-10}, 0.5) != 0 {
		t.Fatal("low score should predict 0")
	}
}

func BenchmarkLRTrain(b *testing.B) {
	X, y := gauss2(200, 2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (LogisticRegression{}).Train(X, y, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMLPTrain(b *testing.B) {
	X, y := gauss2(200, 2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (MLP{}).Train(X, y, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeTrain(b *testing.B) {
	X, y := gauss2(200, 2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (DecisionTree{}).Train(X, y, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: AUC is invariant under any strictly monotone transform of
// the scores (it depends only on the ranking).
func TestAUCMonotoneInvarianceProperty(t *testing.T) {
	f := func(raw []uint16, shift uint8) bool {
		if len(raw) < 4 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		scores := make([]float64, len(raw))
		y := make([]int, len(raw))
		pos := 0
		for i, v := range raw {
			scores[i] = float64(v%1000) / 1000
			y[i] = int(v>>10) & 1
			pos += y[i]
		}
		if pos == 0 || pos == len(y) {
			return true
		}
		a := AUC(scores, y)
		trans := make([]float64, len(scores))
		for i, s := range scores {
			trans[i] = 3*s + float64(shift) // strictly increasing
		}
		b := AUC(trans, y)
		return math.Abs(a-b) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: confusion-matrix rates are always within [0,1] and
// accuracy is the weighted mean of sensitivity and specificity.
func TestConfusionConsistencyProperty(t *testing.T) {
	f := func(raw []uint16, thr uint8) bool {
		if len(raw) == 0 {
			return true
		}
		scores := make([]float64, len(raw))
		y := make([]int, len(raw))
		for i, v := range raw {
			scores[i] = float64(v%997) / 997
			y[i] = int(v) & 1
		}
		c := ConfusionAt(scores, y, float64(thr)/255)
		if c.TP+c.FN+c.FP+c.TN != len(raw) {
			return false
		}
		for _, r := range []float64{c.Sensitivity(), c.Specificity(), c.Accuracy()} {
			if r < 0 || r > 1 {
				return false
			}
		}
		wantAcc := float64(c.TP+c.TN) / float64(len(raw))
		return math.Abs(c.Accuracy()-wantAcc) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
