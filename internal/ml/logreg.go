package ml

import (
	"fmt"

	"rhmd/internal/rng"
)

// LogisticRegression trains an L2-regularized logistic-regression model
// by mini-batch stochastic gradient descent. It is the paper's preferred
// hardware detector: "LR performs well and has low complexity,
// facilitating hardware implementations" (§4).
type LogisticRegression struct {
	// Epochs is the number of full passes over the data (default 80).
	Epochs int
	// LearnRate is the initial step size (default 0.3, with 1/sqrt decay).
	LearnRate float64
	// L2 is the ridge penalty (default 1e-4).
	L2 float64
	// BatchSize is the mini-batch size (default 32).
	BatchSize int
}

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
func (t LogisticRegression) Train(X [][]float64, y []int, seed uint64) (Model, error) {
	dim, err := validate(X, y)
	if err != nil {
		return nil, err
	}
	epochs := t.Epochs
	if epochs <= 0 {
		epochs = 80
	}
	lr0 := t.LearnRate
	if lr0 <= 0 {
		lr0 = 0.3
	}
	l2 := t.L2
	if l2 < 0 {
		return nil, fmt.Errorf("ml: negative L2 %v", l2)
	}
	if t.L2 == 0 {
		l2 = 1e-4
	}
	batch := t.BatchSize
	if batch <= 0 {
		batch = 32
	}

	r := rng.NewKeyed(seed, "lr")
	m := &LRModel{W: make([]float64, dim)}
	grad := make([]float64, dim)
	n := len(X)

	step := 0
	for e := 0; e < epochs; e++ {
		order := r.Perm(n)
		for start := 0; start < n; start += batch {
			end := start + batch
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
			eta := lr0 / (1 + 0.01*float64(step))
			bs := float64(end - start)
			for j := range m.W {
				m.W[j] -= eta * (grad[j]/bs + l2*m.W[j])
			}
			m.B -= eta * gb / bs
		}
	}
	return m, nil
}
