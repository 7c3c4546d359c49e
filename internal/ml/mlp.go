package ml

import (
	"math"

	"rhmd/internal/rng"
)

// MLP trains a multi-layer perceptron with one hidden tanh layer and a
// sigmoid output — exactly the paper's NN detector: "a multi-layer
// perceptron (MLP) with a single hidden layer that has a number of
// neurons equal to the number of features in the feature vector. We use
// the tanh function as the activation function." (§4)
type MLP struct{}

// The NN detector's hyperparameters. Every NN detector, victim and
// attacker trains with these.
const (
	// mlpEpochs is the number of passes over the data.
	mlpEpochs = 60
	// mlpLearnRate is the initial step size; over n samples, SGD step k
	// uses mlpLearnRate/(1+0.002k/n).
	mlpLearnRate = 0.1
	// mlpL2 is the weight decay.
	mlpL2 = 0.01
)

// Name implements Trainer.
func (MLP) Name() string { return "nn" }

// MLPModel is the trained network. Weights are exported because the
// paper's NN evasion collapses them into a per-input linear proxy
// (w_j = Σ_i w_ji · w_i^out, §5).
type MLPModel struct {
	// W1[h] is the weight vector of hidden neuron h; B1[h] its bias.
	W1 [][]float64
	B1 []float64
	// W2[h] is the output weight of hidden neuron h; B2 the output bias.
	W2 []float64
	B2 float64
}

// Dim implements Model.
func (m *MLPModel) Dim() int {
	if len(m.W1) == 0 {
		return 0
	}
	return len(m.W1[0])
}

// Score implements Model.
func (m *MLPModel) Score(x []float64) float64 {
	z := m.B2
	for h, wh := range m.W1 {
		z += m.W2[h] * math.Tanh(dot(wh, x)+m.B1[h])
	}
	return sigmoid(z)
}

// CollapseWeights flattens the network into a single per-input weight
// vector, the paper's §5 heuristic for selecting injection candidates
// against an NN victim: w_j = Σ_i w_ji × w_i^out.
func (m *MLPModel) CollapseWeights() []float64 {
	if len(m.W1) == 0 {
		return nil
	}
	out := make([]float64, len(m.W1[0]))
	for h, wh := range m.W1 {
		for j, w := range wh {
			out[j] += w * m.W2[h]
		}
	}
	return out
}

// Train implements Trainer, using plain SGD with backprop.
func (MLP) Train(X [][]float64, y []int, seed uint64) (Model, error) {
	dim, err := validate(X, y)
	if err != nil {
		return nil, err
	}
	hidden := dim // one hidden neuron per feature (§4)

	r := rng.NewKeyed(seed, "mlp")
	m := &MLPModel{
		W1: make([][]float64, hidden),
		B1: make([]float64, hidden),
		W2: make([]float64, hidden),
	}
	// Xavier-style init.
	scale1 := math.Sqrt(1 / float64(dim))
	scale2 := math.Sqrt(1 / float64(hidden))
	for h := range m.W1 {
		m.W1[h] = make([]float64, dim)
		for j := range m.W1[h] {
			m.W1[h][j] = r.Norm(0, scale1)
		}
		m.W2[h] = r.Norm(0, scale2)
	}

	hOut := make([]float64, hidden)
	n := len(X)
	step := 0
	for e := 0; e < mlpEpochs; e++ {
		order := r.Perm(n)
		for _, i := range order {
			x := X[i]
			// Forward.
			z := m.B2
			for h, wh := range m.W1 {
				hOut[h] = math.Tanh(dot(wh, x) + m.B1[h])
				z += m.W2[h] * hOut[h]
			}
			p := sigmoid(z)
			dz := p - float64(y[i]) // dLoss/dz for cross-entropy

			step++
			eta := mlpLearnRate / (1 + 0.002*float64(step)/float64(n))

			// Backward.
			for h, wh := range m.W1 {
				dh := dz * m.W2[h] * (1 - hOut[h]*hOut[h])
				m.W2[h] -= eta * (dz*hOut[h] + mlpL2*m.W2[h])
				for j, v := range x {
					wh[j] -= eta * (dh*v + mlpL2*wh[j])
				}
				m.B1[h] -= eta * dh
			}
			m.B2 -= eta * dz
		}
	}
	return m, nil
}
