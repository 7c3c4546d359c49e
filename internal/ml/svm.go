package ml

import (
	"rhmd/internal/rng"
)

// LinearSVM trains an L2-regularized linear support-vector machine with
// the Pegasos stochastic sub-gradient algorithm; the paper's attackers
// use it ("SVM") as one of the reverse-engineering learners (§4.1).
type LinearSVM struct{}

// The SVM attacker's hyperparameters.
const (
	// svmLambda is the regularization strength; Pegasos step k uses
	// 1/(svmLambda·k).
	svmLambda = 1e-4
	// svmEpochs is the number of passes over the data.
	svmEpochs = 60
)

// Name implements Trainer.
func (LinearSVM) Name() string { return "svm" }

// SVMModel is a trained linear SVM. Score squashes the margin through a
// logistic link so thresholds compose with the rest of the library; the
// decision boundary Score = 0.5 corresponds to margin 0.
type SVMModel struct {
	W []float64
	B float64
}

// Score implements Model.
func (m *SVMModel) Score(x []float64) float64 { return sigmoid(dot(m.W, x) + m.B) }

// Dim implements Model.
func (m *SVMModel) Dim() int { return len(m.W) }

// Train implements Trainer.
func (LinearSVM) Train(X [][]float64, y []int, seed uint64) (Model, error) {
	dim, err := validate(X, y)
	if err != nil {
		return nil, err
	}

	r := rng.NewKeyed(seed, "svm")
	m := &SVMModel{W: make([]float64, dim)}
	n := len(X)
	step := 0
	for e := 0; e < svmEpochs; e++ {
		order := r.Perm(n)
		for _, i := range order {
			step++
			eta := 1 / (svmLambda * float64(step))
			yi := float64(2*y[i] - 1) // {-1, +1}
			margin := yi * (dot(m.W, X[i]) + m.B)
			// Sub-gradient step: shrink always, push on violation.
			scale := 1 - eta*svmLambda
			if scale < 0 {
				scale = 0
			}
			for j := range m.W {
				m.W[j] *= scale
			}
			if margin < 1 {
				for j, v := range X[i] {
					m.W[j] += eta * yi * v
				}
				m.B += eta * yi * 0.1 // damped bias update (unregularized)
			}
		}
	}
	return m, nil
}
