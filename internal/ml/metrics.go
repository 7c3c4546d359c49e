package ml

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Confusion is a binary confusion matrix.
type Confusion struct {
	TP, FP, TN, FN int
}

// Sensitivity is the true-positive rate (the paper's "sensitivity":
// fraction of malware detected).
func (c Confusion) Sensitivity() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// Specificity is the true-negative rate (the paper's "specificity":
// fraction of regular programs classified as regular).
func (c Confusion) Specificity() float64 {
	if c.TN+c.FP == 0 {
		return 0
	}
	return float64(c.TN) / float64(c.TN+c.FP)
}

// Accuracy is the fraction of correct decisions.
func (c Confusion) Accuracy() float64 {
	n := c.TP + c.FP + c.TN + c.FN
	if n == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(n)
}

// String renders the matrix compactly.
func (c Confusion) String() string {
	return fmt.Sprintf("tp=%d fp=%d tn=%d fn=%d", c.TP, c.FP, c.TN, c.FN)
}

// ConfusionAt thresholds scores and tallies against labels.
func ConfusionAt(scores []float64, y []int, threshold float64) Confusion {
	var c Confusion
	for i, s := range scores {
		pred := s >= threshold
		if y[i] == 1 {
			if pred {
				c.TP++
			} else {
				c.FN++
			}
		} else {
			if pred {
				c.FP++
			} else {
				c.TN++
			}
		}
	}
	return c
}

// ROCPoint is one operating point of the receiver operating
// characteristic.
type ROCPoint struct {
	Threshold float64
	TPR       float64 // sensitivity
	FPR       float64 // 1 - specificity
}

// ROC computes the full ROC curve by sweeping every distinct score
// threshold, ordered from FPR 0 to 1.
func ROC(scores []float64, y []int) []ROCPoint {
	n := len(scores)
	if n == 0 || n != len(y) {
		return nil
	}
	type sy struct {
		s float64
		y int
	}
	rows := make([]sy, n)
	pos, neg := 0, 0
	for i := range scores {
		rows[i] = sy{scores[i], y[i]}
		if y[i] == 1 {
			pos++
		} else {
			neg++
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].s > rows[b].s })

	out := []ROCPoint{{Threshold: rows[0].s + 1, TPR: 0, FPR: 0}}
	tp, fp := 0, 0
	for i := 0; i < n; {
		s := rows[i].s
		for i < n && rows[i].s == s {
			if rows[i].y == 1 {
				tp++
			} else {
				fp++
			}
			i++
		}
		pt := ROCPoint{Threshold: s}
		if pos > 0 {
			pt.TPR = float64(tp) / float64(pos)
		}
		if neg > 0 {
			pt.FPR = float64(fp) / float64(neg)
		}
		out = append(out, pt)
	}
	return out
}

// AUC computes the area under the ROC curve by trapezoidal integration.
func AUC(scores []float64, y []int) float64 {
	curve := ROC(scores, y)
	if len(curve) < 2 {
		return 0
	}
	area := 0.0
	for i := 1; i < len(curve); i++ {
		dx := curve[i].FPR - curve[i-1].FPR
		area += dx * (curve[i].TPR + curve[i-1].TPR) / 2
	}
	return area
}

// BestThreshold returns the threshold that maximizes accuracy over the
// given scores, with its accuracy — the paper's operating point: "the
// point on the ROC which maximizes the accuracy ... the HMD
// classification threshold will be typically set to perform at or near
// this optimal point" (§4).
//
// The candidates are every midpoint between adjacent distinct scores
// plus one threshold below and one above them all, tried in ascending
// order; the first with the highest accuracy wins. One sort of the
// scores serves every candidate: the windows scoring ≥ t are a suffix
// of it, found by binary search.
func BestThreshold(scores []float64, y []int) (threshold, accuracy float64) {
	n := len(scores)
	if n == 0 {
		return 0.5, 0
	}
	type scored struct {
		s   float64
		pos bool
	}
	rows := make([]scored, n)
	for i, s := range scores {
		rows[i] = scored{s, y[i] == 1}
	}
	// cmp.Compare orders exactly as sort.Float64s does (NaNs first), so
	// ties keep the order the candidates have always been drawn in.
	slices.SortFunc(rows, func(a, b scored) int { return cmp.Compare(a.s, b.s) })
	// posFrom[k] counts the positives among rows[k:].
	posFrom := make([]int, n+1)
	for k := n - 1; k >= 0; k-- {
		posFrom[k] = posFrom[k+1]
		if rows[k].pos {
			posFrom[k]++
		}
	}
	neg := n - posFrom[0]
	best := 0.5
	bestAcc := -1.0
	try := func(t float64) {
		// NaN scores sort first and are never ≥ t; a NaN t admits none.
		k := sort.Search(n, func(i int) bool { return rows[i].s >= t })
		tp := posFrom[k]
		fp := n - k - tp
		if a := float64(tp+neg-fp) / float64(n); a > bestAcc {
			bestAcc, best = a, t
		}
	}
	try(rows[0].s - 1e-9)
	for i := 0; i < n; i++ {
		if i+1 < n && rows[i].s == rows[i+1].s {
			continue
		}
		if i+1 < n {
			try((rows[i].s + rows[i+1].s) / 2)
		} else {
			try(rows[i].s + 1e-9)
		}
	}
	return best, bestAcc
}

// Agreement returns the fraction of equal decisions between two
// predicted label vectors — the paper's reverse-engineering success
// metric ("the percentage of equivalent decisions made by the two
// detectors", §4).
func Agreement(a, b []int) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return 0
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	return float64(same) / float64(len(a))
}
