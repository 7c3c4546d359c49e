package ml

import (
	"encoding/json"
	"fmt"
)

// This file provides JSON round-tripping for every Model so trained
// detectors can be shipped (hmd.Save / hmd.Load). Linear and MLP models
// marshal via their exported fields; the decision tree uses a compact
// shadow encoding of its unexported node arena.

// ModelAlgo returns the registry name of a trained model's algorithm.
func ModelAlgo(m Model) (string, error) {
	switch m.(type) {
	case *LRModel:
		return "lr", nil
	case *MLPModel:
		return "nn", nil
	case *TreeModel:
		return "dt", nil
	case *SVMModel:
		return "svm", nil
	}
	return "", fmt.Errorf("ml: unknown model type %T", m)
}

// MarshalModel encodes a model with its algorithm tag.
func MarshalModel(m Model) ([]byte, error) {
	algo, err := ModelAlgo(m)
	if err != nil {
		return nil, err
	}
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Algo  string          `json:"algo"`
		Model json.RawMessage `json:"model"`
	}{algo, payload})
}

// UnmarshalModel decodes a model produced by MarshalModel.
func UnmarshalModel(data []byte) (Model, error) {
	var env struct {
		Algo  string          `json:"algo"`
		Model json.RawMessage `json:"model"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("ml: model envelope: %w", err)
	}
	var m Model
	switch env.Algo {
	case "lr":
		m = &LRModel{}
	case "nn":
		m = &MLPModel{}
	case "dt":
		m = &TreeModel{}
	case "svm":
		m = &SVMModel{}
	default:
		return nil, fmt.Errorf("ml: unknown model algo %q", env.Algo)
	}
	if err := json.Unmarshal(env.Model, m); err != nil {
		return nil, fmt.Errorf("ml: %s model payload: %w", env.Algo, err)
	}
	return m, nil
}

// nodeJSON is the tree node wire format.
type nodeJSON struct {
	F int     `json:"f"` // feature (-1 = leaf)
	T float64 `json:"t"` // threshold
	L int32   `json:"l"` // left child (-1 = none)
	R int32   `json:"r"` // right child
	P float64 `json:"p"` // leaf positive probability
}

// treeJSON is the TreeModel wire format.
type treeJSON struct {
	Nodes []nodeJSON `json:"nodes"`
	Dim   int        `json:"dim"`
}

// MarshalJSON implements json.Marshaler.
func (m *TreeModel) MarshalJSON() ([]byte, error) {
	out := treeJSON{Dim: m.dim, Nodes: make([]nodeJSON, len(m.nodes))}
	for i, n := range m.nodes {
		out.Nodes[i] = nodeJSON{F: n.feature, T: n.threshold, L: n.left, R: n.right, P: n.prob}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *TreeModel) UnmarshalJSON(data []byte) error {
	var in treeJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.Dim <= 0 || len(in.Nodes) == 0 {
		return fmt.Errorf("ml: tree payload missing nodes or dim")
	}
	m.dim = in.Dim
	m.nodes = make([]treeNode, len(in.Nodes))
	for i, n := range in.Nodes {
		if n.F >= in.Dim || int(n.L) >= len(in.Nodes) || int(n.R) >= len(in.Nodes) {
			return fmt.Errorf("ml: tree node %d out of bounds", i)
		}
		m.nodes[i] = treeNode{feature: n.F, threshold: n.T, left: n.L, right: n.R, prob: n.P}
	}
	return nil
}
