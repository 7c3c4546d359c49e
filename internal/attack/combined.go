package attack

import (
	"fmt"

	"rhmd/internal/dataset"
	"rhmd/internal/features"
	"rhmd/internal/hmd"
	"rhmd/internal/ml"
	"rhmd/internal/prog"
)

// CombinedSurrogate is a reverse-engineering hypothesis that concatenates
// several feature kinds into one vector — the paper's "combined" attacker
// in Figures 14/15, which reverse-engineers an RHMD "using the union of
// the ... feature vectors" of its base detectors.
type CombinedSurrogate struct {
	Kinds     []features.Kind
	Period    int
	Algo      string
	Scaler    *ml.Scaler
	Model     ml.Model
	Threshold float64
}

// concatRows builds the unioned feature matrix for aligned window rows.
func concatRows(mw *dataset.MultiWindowData, kinds []features.Kind) [][]float64 {
	n := mw.Get(kinds[0]).Len()
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		var row []float64
		for _, k := range kinds {
			row = append(row, mw.Get(k).X[i]...)
		}
		out[i] = row
	}
	return out
}

// TrainCombinedSurrogate trains a surrogate over the union of feature
// kinds at one period, labelled with the victim's observed decisions.
func TrainCombinedSurrogate(labels *Labels, kinds []features.Kind, period int, algo string, seed uint64) (*CombinedSurrogate, error) {
	if len(kinds) < 2 {
		return nil, fmt.Errorf("attack: combined surrogate needs ≥2 kinds")
	}
	trainer, err := hmd.TrainerFor(algo)
	if err != nil {
		return nil, err
	}
	mws, err := dataset.ExtractWindows(labels.Programs, []int{period}, labels.TraceLen)
	if err != nil {
		return nil, err
	}
	mw := mws[period]
	X := concatRows(mw, kinds)
	ref := mw.Get(kinds[0])

	var rows [][]float64
	var y []int
	byProg := ref.ByProgram()
	for pi := range labels.Programs {
		for k, row := range byProg[pi] {
			mid := k*period + period/2
			rows = append(rows, X[row])
			y = append(y, hmd.DecisionAt(labels.PerProgram[pi], mid))
		}
	}
	pos := 0
	for _, v := range y {
		pos += v
	}
	if pos == 0 || pos == len(y) {
		return nil, fmt.Errorf("attack: victim labels are single-class (%d/%d)", pos, len(y))
	}

	scaler, err := ml.FitScaler(rows)
	if err != nil {
		return nil, err
	}
	Z := scaler.TransformAll(rows)
	model, err := trainer.Train(Z, y, seed)
	if err != nil {
		return nil, err
	}
	thr, _ := ml.BestThreshold(ml.Scores(model, Z), y)
	return &CombinedSurrogate{
		Kinds:     append([]features.Kind(nil), kinds...),
		Period:    period,
		Algo:      algo,
		Scaler:    scaler,
		Model:     model,
		Threshold: thr,
	}, nil
}

// DecideTrace implements the Victim interface so combined surrogates can
// be compared against the victim with Agreement.
func (s *CombinedSurrogate) DecideTrace(p *prog.Program, traceLen int) ([]hmd.WindowDecision, error) {
	ws, err := features.Extract(p, s.Period, traceLen)
	if err != nil {
		return nil, err
	}
	out := make([]hmd.WindowDecision, ws.Windows)
	for i := 0; i < ws.Windows; i++ {
		var row []float64
		for _, k := range s.Kinds {
			row = append(row, ws.Rows(k)[i]...)
		}
		dec := 0
		if s.Model.Score(s.Scaler.Transform(row)) >= s.Threshold {
			dec = 1
		}
		out[i] = hmd.WindowDecision{Start: ws.Bounds[i][0], End: ws.Bounds[i][1], Decision: dec}
	}
	return out, nil
}
