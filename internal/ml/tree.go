package ml

import (
	"sort"

	"rhmd/internal/rng"
)

// DecisionTree trains a CART binary classification tree with Gini
// impurity splits; the paper's attackers use it ("DT") as one of the
// reverse-engineering learners (§4.1).
type DecisionTree struct{}

// The DT attacker's growth bounds.
const (
	// treeMaxDepth bounds the number of splits on any root-to-leaf path.
	treeMaxDepth = 8
	// treeMinLeaf is the minimum number of samples per leaf.
	treeMinLeaf = 5
)

// Name implements Trainer.
func (DecisionTree) Name() string { return "dt" }

// treeNode is one node; leaves have feature == -1.
type treeNode struct {
	feature     int
	threshold   float64
	left, right int32 // child indices; -1 for none
	prob        float64
}

// TreeModel is a trained CART tree stored as a flat node arena.
type TreeModel struct {
	nodes []treeNode
	dim   int
}

// Dim implements Model.
func (m *TreeModel) Dim() int { return m.dim }

// Nodes returns the node count (for complexity inspection/tests).
func (m *TreeModel) Nodes() int { return len(m.nodes) }

// Depth returns the maximum depth of the tree.
func (m *TreeModel) Depth() int {
	var walk func(i int32) int
	walk = func(i int32) int {
		if i < 0 {
			return 0
		}
		n := m.nodes[i]
		if n.feature < 0 {
			return 1
		}
		l, r := walk(n.left), walk(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(0)
}

// Score implements Model: the positive-class fraction at the reached
// leaf.
func (m *TreeModel) Score(x []float64) float64 { return m.nodes[m.leaf(x)].prob }

// leaf returns the index of the leaf x reaches.
func (m *TreeModel) leaf(x []float64) int32 {
	i := int32(0)
	for {
		n := m.nodes[i]
		if n.feature < 0 {
			return i
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Train implements Trainer.
func (DecisionTree) Train(X [][]float64, y []int, seed uint64) (Model, error) {
	dim, err := validate(X, y)
	if err != nil {
		return nil, err
	}
	r := rng.NewKeyed(seed, "dt")
	m := &TreeModel{dim: dim}
	idx := r.Perm(len(X)) // randomized order for deterministic tie-breaks
	m.build(X, y, idx, 0)
	return m, nil
}

// build grows the subtree over samples idx and returns its node index.
func (m *TreeModel) build(X [][]float64, y []int, idx []int, depth int) int32 {
	pos := 0
	for _, i := range idx {
		pos += y[i]
	}
	prob := float64(pos) / float64(len(idx))

	node := treeNode{feature: -1, left: -1, right: -1, prob: prob}
	self := int32(len(m.nodes))
	m.nodes = append(m.nodes, node)

	if depth >= treeMaxDepth || len(idx) < 2*treeMinLeaf || pos == 0 || pos == len(idx) {
		return self
	}

	feat, thr, gain := m.bestSplit(X, y, idx)
	if feat < 0 || gain <= 1e-12 {
		return self
	}

	var left, right []int
	for _, i := range idx {
		if X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < treeMinLeaf || len(right) < treeMinLeaf {
		return self
	}

	m.nodes[self].feature = feat
	m.nodes[self].threshold = thr
	m.nodes[self].left = m.build(X, y, left, depth+1)
	m.nodes[self].right = m.build(X, y, right, depth+1)
	return self
}

// bestSplit scans every feature for the Gini-optimal threshold.
func (m *TreeModel) bestSplit(X [][]float64, y []int, idx []int) (feat int, thr, gain float64) {
	n := len(idx)
	totalPos := 0
	for _, i := range idx {
		totalPos += y[i]
	}
	parent := gini(totalPos, n)

	feat = -1
	type pair struct {
		v float64
		y int
	}
	pairs := make([]pair, n)
	for f := 0; f < m.dim; f++ {
		for k, i := range idx {
			pairs[k] = pair{X[i][f], y[i]}
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].v < pairs[b].v })

		leftPos := 0
		for k := 0; k < n-1; k++ {
			leftPos += pairs[k].y
			if pairs[k].v == pairs[k+1].v {
				continue // can't split between equal values
			}
			nl := k + 1
			nr := n - nl
			if nl < treeMinLeaf || nr < treeMinLeaf {
				continue
			}
			g := parent - (float64(nl)*gini(leftPos, nl)+float64(nr)*gini(totalPos-leftPos, nr))/float64(n)
			if g > gain {
				gain = g
				feat = f
				thr = (pairs[k].v + pairs[k+1].v) / 2
			}
		}
	}
	return feat, thr, gain
}

// gini returns the Gini impurity of a node with pos positives out of n.
func gini(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}
