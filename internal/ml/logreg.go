package ml

import (
	"rhmd/internal/rng"
)

// LogisticRegression trains an L2-regularized logistic-regression model
// by mini-batch stochastic gradient descent. It is the paper's preferred
// hardware detector: "LR performs well and has low complexity,
// facilitating hardware implementations" (§4).
type LogisticRegression struct{}

// The LR detector's hyperparameters. Every LR detector, victim and
// attacker trains with these.
const (
	// lrEpochs is the number of full passes over the data.
	lrEpochs = 80
	// lrLearnRate is the initial step size; mini-batch step k uses
	// lrLearnRate/(1+0.01k).
	lrLearnRate = 0.3
	// lrL2 is the ridge penalty.
	lrL2 = 1e-4
	// lrBatchSize is the mini-batch size.
	lrBatchSize = 32
)

// Name implements Trainer.
func (LogisticRegression) Name() string { return "lr" }

// LRModel is a trained logistic-regression classifier. Weights are
// exported because the paper's evasion strategy reads them directly
// ("we pick the instructions whose weights are negative", §5).
type LRModel struct {
	W []float64
	B float64
}

// Score implements Model.
func (m *LRModel) Score(x []float64) float64 { return sigmoid(dot(m.W, x) + m.B) }

// Dim implements Model.
func (m *LRModel) Dim() int { return len(m.W) }

// Train implements Trainer.
func (LogisticRegression) Train(X [][]float64, y []int, seed uint64) (Model, error) {
	dim, err := validate(X, y)
	if err != nil {
		return nil, err
	}

	r := rng.NewKeyed(seed, "lr")
	m := &LRModel{W: make([]float64, dim)}
	grad := make([]float64, dim)
	n := len(X)

	step := 0
	for e := 0; e < lrEpochs; e++ {
		order := r.Perm(n)
		for start := 0; start < n; start += lrBatchSize {
			end := start + lrBatchSize
			if end > n {
				end = n
			}
			for j := range grad {
				grad[j] = 0
			}
			gb := 0.0
			for _, i := range order[start:end] {
				p := m.Score(X[i])
				diff := p - float64(y[i])
				for j, v := range X[i] {
					grad[j] += diff * v
				}
				gb += diff
			}
			step++
			eta := lrLearnRate / (1 + 0.01*float64(step))
			bs := float64(end - start)
			for j := range m.W {
				m.W[j] -= eta * (grad[j]/bs + lrL2*m.W[j])
			}
			m.B -= eta * gb / bs
		}
	}
	return m, nil
}
