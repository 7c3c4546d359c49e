package ml

import (
	"fmt"
	"math"
)

// Scaler standardizes features to zero mean and unit variance, the usual
// preprocessing for the gradient-trained classifiers. Constant columns
// are left unscaled (divisor 1) so they contribute nothing after
// centring.
type Scaler struct {
	Mean []float64
	Std  []float64
}

// FitScaler computes per-column statistics.
func FitScaler(X [][]float64) (*Scaler, error) {
	if len(X) == 0 || len(X[0]) == 0 {
		return nil, fmt.Errorf("ml: cannot fit scaler on empty matrix")
	}
	dim := len(X[0])
	s := &Scaler{Mean: make([]float64, dim), Std: make([]float64, dim)}
	for _, row := range X {
		if len(row) != dim {
			return nil, fmt.Errorf("ml: ragged matrix in FitScaler")
		}
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	n := float64(len(X))
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range X {
		for j, v := range row {
			d := v - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] < 1e-12 {
			s.Std[j] = 1
		}
	}
	return s, nil
}

// Transform scales one vector (allocating a new one).
func (s *Scaler) Transform(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return out
}

// TransformAll scales a matrix.
func (s *Scaler) TransformAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = s.Transform(row)
	}
	return out
}
