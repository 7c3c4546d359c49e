package hmd

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"rhmd/internal/features"
	"rhmd/internal/ml"
)

// Wire format for trained detectors, so a detector trained once (the
// expensive part: corpus tracing + training) can be deployed, shipped, or
// diffed. The format is stable JSON; the model is stored through
// ml.MarshalModel's algorithm-tagged envelope.

// detectorJSON is the Detector wire format.
type detectorJSON struct {
	Kind       string          `json:"kind"`
	Period     int             `json:"period"`
	Algo       string          `json:"algo"`
	TopK       int             `json:"topK,omitempty"`
	FeatureIdx []int           `json:"featureIdx,omitempty"`
	Scaler     *ml.Scaler      `json:"scaler"`
	Model      json.RawMessage `json:"model"`
	Threshold  float64         `json:"threshold"`
}

// MarshalJSON implements json.Marshaler.
func (d *Detector) MarshalJSON() ([]byte, error) {
	model, err := ml.MarshalModel(d.Model)
	if err != nil {
		return nil, err
	}
	return json.Marshal(detectorJSON{
		Kind:       d.Spec.Kind.String(),
		Period:     d.Spec.Period,
		Algo:       d.Spec.Algo,
		TopK:       d.Spec.TopK,
		FeatureIdx: d.FeatureIdx,
		Scaler:     d.Scaler,
		Model:      model,
		Threshold:  d.Threshold,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Detector) UnmarshalJSON(data []byte) error {
	var in detectorJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	kind, err := features.ParseKind(in.Kind)
	if err != nil {
		return err
	}
	if in.Period <= 0 {
		return fmt.Errorf("hmd: persisted detector has period %d", in.Period)
	}
	if _, err := TrainerFor(in.Algo); err != nil {
		return err
	}
	model, err := ml.UnmarshalModel(in.Model)
	if err != nil {
		return err
	}
	if in.Scaler == nil || len(in.Scaler.Mean) != model.Dim() || len(in.Scaler.Std) != model.Dim() {
		return fmt.Errorf("hmd: persisted scaler does not match model dim %d", model.Dim())
	}
	// A corrupt or hand-edited model file must not smuggle in a scaler
	// that divides by zero or poisons every score with NaN/Inf.
	for j := range in.Scaler.Mean {
		if !isFinite(in.Scaler.Mean[j]) {
			return fmt.Errorf("hmd: persisted scaler mean[%d] = %v is not finite", j, in.Scaler.Mean[j])
		}
		if !isFinite(in.Scaler.Std[j]) || in.Scaler.Std[j] <= 0 {
			return fmt.Errorf("hmd: persisted scaler std[%d] = %v must be finite and positive", j, in.Scaler.Std[j])
		}
	}
	if !isFinite(in.Threshold) {
		return fmt.Errorf("hmd: persisted threshold %v is not finite", in.Threshold)
	}
	wantDim := kind.Dim()
	if in.FeatureIdx != nil {
		wantDim = len(in.FeatureIdx)
		for _, idx := range in.FeatureIdx {
			if idx < 0 || idx >= kind.Dim() {
				return fmt.Errorf("hmd: persisted feature index %d out of range for %s", idx, kind)
			}
		}
	}
	if model.Dim() != wantDim {
		return fmt.Errorf("hmd: persisted model dim %d does not match %d selected features", model.Dim(), wantDim)
	}
	d.Spec = Spec{Kind: kind, Period: in.Period, Algo: in.Algo, TopK: in.TopK}
	d.FeatureIdx = in.FeatureIdx
	d.Scaler = in.Scaler
	d.Model = model
	d.Threshold = in.Threshold
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Save writes the detector as JSON.
func Save(w io.Writer, d *Detector) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Load reads a detector written by Save.
func Load(r io.Reader) (*Detector, error) {
	var d Detector
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("hmd: loading detector: %w", err)
	}
	return &d, nil
}
