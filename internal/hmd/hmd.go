// Package hmd builds and evaluates hardware malware detectors: a trained
// classifier over one feature kind at one collection period, thresholded
// at its maximum-accuracy operating point (§4 of the paper). It provides
// window-level decisions (what the hardware emits every period), the
// program-level aggregation the paper uses to raise accuracy ("averaging
// the decisions across multiple intervals", §8.2), and the black-box
// query surface the attacker reverse-engineers through.
package hmd

import (
	"fmt"

	"rhmd/internal/dataset"
	"rhmd/internal/features"
	"rhmd/internal/ml"
	"rhmd/internal/prog"
)

// Spec is a detector configuration: the axes the paper randomizes over
// (feature kind, collection period) plus the learning algorithm.
type Spec struct {
	Kind   features.Kind
	Period int
	// Algo is one of "lr", "nn", "dt", "svm".
	Algo string
	// TopK selects the top-delta feature components for the
	// Instructions kind (paper §3); 0 means the package default (16).
	// Ignored for other kinds.
	TopK int
}

// String renders the spec compactly, e.g. "lr/instructions@10000".
func (s Spec) String() string {
	return fmt.Sprintf("%s/%s@%d", s.Algo, s.Kind, s.Period)
}

// DefaultTopK is the instruction-mix feature width used when
// Spec.TopK == 0.
const DefaultTopK = 16

// TrainerFor maps an algorithm name to its trainer.
func TrainerFor(algo string) (ml.Trainer, error) {
	switch algo {
	case "lr":
		return ml.LogisticRegression{}, nil
	case "nn":
		return ml.MLP{}, nil
	case "dt":
		return ml.DecisionTree{}, nil
	case "svm":
		return ml.LinearSVM{}, nil
	}
	return nil, fmt.Errorf("hmd: unknown algorithm %q", algo)
}

// Detector is a trained HMD.
type Detector struct {
	Spec Spec
	// FeatureIdx is the raw-vector column selection (nil = identity).
	FeatureIdx []int
	// Scaler standardizes projected vectors before the model.
	Scaler *ml.Scaler
	// Model is the trained classifier operating on scaled vectors.
	Model ml.Model
	// Threshold is the score cut chosen at the maximum-accuracy point of
	// the training ROC.
	Threshold float64
}

// Train fits a detector to a window dataset. The dataset kind and period
// must match the spec. seed controls every stochastic training choice.
func Train(spec Spec, wd *dataset.WindowData, seed uint64) (*Detector, error) {
	if wd == nil || wd.Len() == 0 {
		return nil, fmt.Errorf("hmd: empty window dataset for %s", spec)
	}
	if wd.Kind != spec.Kind {
		return nil, fmt.Errorf("hmd: dataset kind %s does not match spec %s", wd.Kind, spec)
	}
	if wd.Period != spec.Period {
		return nil, fmt.Errorf("hmd: dataset period %d does not match spec %s", wd.Period, spec)
	}
	trainer, err := TrainerFor(spec.Algo)
	if err != nil {
		return nil, err
	}
	pos := 0
	for _, label := range wd.Y {
		pos += label
	}
	if pos == 0 || pos == len(wd.Y) {
		return nil, fmt.Errorf("hmd: %s: training windows are single-class (%d/%d positive)", spec, pos, len(wd.Y))
	}

	X := wd.X
	var idx []int
	if spec.Kind == features.Instructions {
		k := spec.TopK
		if k <= 0 {
			k = DefaultTopK
		}
		var mal, ben [][]float64
		for i, row := range X {
			if wd.Y[i] == 1 {
				mal = append(mal, row)
			} else {
				ben = append(ben, row)
			}
		}
		idx = features.TopDeltaIndices(mal, ben, k)
		X = features.Project(X, idx)
	}

	scaler, err := ml.FitScaler(X)
	if err != nil {
		return nil, fmt.Errorf("hmd: %s: %w", spec, err)
	}
	Z := scaler.TransformAll(X)
	model, err := trainer.Train(Z, wd.Y, seed)
	if err != nil {
		return nil, fmt.Errorf("hmd: training %s: %w", spec, err)
	}
	scores := ml.Scores(model, Z)
	thr, _ := ml.BestThreshold(scores, wd.Y)

	return &Detector{
		Spec:       spec,
		FeatureIdx: idx,
		Scaler:     scaler,
		Model:      model,
		Threshold:  thr,
	}, nil
}

// ScoreWindow returns the classifier score for one raw feature vector of
// the detector's kind. Selection and scaling fill one vector: value j is
// (raw[FeatureIdx[j]] − Mean[j]) / Std[j], the operations
// Scaler.Transform performs on a projected row, in the same order.
func (d *Detector) ScoreWindow(raw []float64) float64 {
	s := d.Scaler
	if d.FeatureIdx == nil {
		return d.Model.Score(s.Transform(raw))
	}
	z := make([]float64, len(d.FeatureIdx))
	for j, c := range d.FeatureIdx {
		z[j] = (raw[c] - s.Mean[j]) / s.Std[j]
	}
	return d.Model.Score(z)
}

// DecideWindow returns the thresholded decision (1 = malware) for one
// raw window vector — the black-box output an attacker can observe.
func (d *Detector) DecideWindow(raw []float64) int {
	if d.ScoreWindow(raw) >= d.Threshold {
		return 1
	}
	return 0
}

// DetectTraced runs the detector over p's trace and applies the
// program-level Majority rule — the "deploy the detector against this
// binary" operation used by the evasion experiments.
func (d *Detector) DetectTraced(p *prog.Program, traceLen int) (bool, error) {
	dec, err := d.DecideTrace(p, traceLen)
	if err != nil {
		return false, err
	}
	return Majority(dec), nil
}

// WindowDecision is one black-box observation of a deployed detector:
// the decision emitted for the window covering instructions [Start, End)
// of a program's trace. This is the query surface the paper's attacker
// reverse-engineers through (§4: "the adversary uses this data set to
// query the victim detector and records the victim's detection
// decisions").
type WindowDecision struct {
	Start, End int
	Decision   int
}

// DecideTrace runs the detector over a full program trace and returns
// every per-window decision with its instruction bounds.
func (d *Detector) DecideTrace(p *prog.Program, traceLen int) ([]WindowDecision, error) {
	ws, err := features.Extract(p, d.Spec.Period, traceLen)
	if err != nil {
		return nil, err
	}
	rows := ws.Rows(d.Spec.Kind)
	out := make([]WindowDecision, len(rows))
	for i, r := range rows {
		out[i] = WindowDecision{
			Start:    ws.Bounds[i][0],
			End:      ws.Bounds[i][1],
			Decision: d.DecideWindow(r),
		}
	}
	return out, nil
}

// Majority is the program-level rule every detector applies to one
// program's window decisions, the paper's "averaging the decisions
// across multiple intervals" (§8.2): the program is malware when at
// least half its windows are flagged. decisions is never empty on a
// real trace: extraction fails before it yields zero windows.
func Majority(decisions []WindowDecision) bool {
	flagged := 0
	for _, d := range decisions {
		flagged += d.Decision
	}
	return 2*flagged >= len(decisions)
}

// DecisionAt returns the decision of the window containing instruction
// position pos, or the last window's decision if pos is beyond the trace
// tail. It assumes decisions are in trace order, as DecideTrace returns
// them.
func DecisionAt(decisions []WindowDecision, pos int) int {
	for _, d := range decisions {
		if pos >= d.Start && pos < d.End {
			return d.Decision
		}
	}
	if len(decisions) == 0 {
		return 0
	}
	return decisions[len(decisions)-1].Decision
}

// Eval summarizes detector quality on a labelled window dataset.
type Eval struct {
	AUC       float64
	Accuracy  float64 // at the best threshold for this data
	Confusion ml.Confusion
}

// Evaluate scores wd and reports AUC, maximum accuracy, and the
// confusion matrix at the detector's own threshold.
func (d *Detector) Evaluate(wd *dataset.WindowData) (Eval, error) {
	if wd.Kind != d.Spec.Kind {
		return Eval{}, fmt.Errorf("hmd: evaluate kind %s on detector %s", wd.Kind, d.Spec)
	}
	scores := make([]float64, wd.Len())
	for i, x := range wd.X {
		scores[i] = d.ScoreWindow(x)
	}
	_, acc := ml.BestThreshold(scores, wd.Y)
	return Eval{
		AUC:       ml.AUC(scores, wd.Y),
		Accuracy:  acc,
		Confusion: ml.ConfusionAt(scores, wd.Y, d.Threshold),
	}, nil
}
