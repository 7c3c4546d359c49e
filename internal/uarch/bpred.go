// Package uarch provides behavioural micro-architecture simulators —
// a gshare branch predictor and a two-level data-cache hierarchy — that
// turn the dynamic instruction stream from internal/trace into the
// architectural events the paper's "Architectural" feature vector counts
// (§3: "numbers of different architectural events occurring in an
// execution period such as unaligned memory accesses, and taken
// branches", plus the cache-miss and branch-prediction rates cited from
// prior HMD work).
package uarch

import "fmt"

// counterTable is a table of 2-bit saturating counters initialized to
// weakly-taken.
type counterTable struct {
	c []uint8
}

func newCounterTable(bits int) counterTable {
	t := counterTable{c: make([]uint8, 1<<bits)}
	for i := range t.c {
		t.c[i] = 2 // weakly taken
	}
	return t
}

func (t counterTable) predict(idx uint64) bool { return t.c[idx] >= 2 }

func (t counterTable) update(idx uint64, taken bool) {
	if taken {
		if t.c[idx] < 3 {
			t.c[idx]++
		}
	} else if t.c[idx] > 0 {
		t.c[idx]--
	}
}

func (t counterTable) reset() {
	for i := range t.c {
		t.c[i] = 2
	}
}

// Gshare is a global-history predictor: the pattern-history table is
// indexed by PC xor global branch history.
type Gshare struct {
	table   counterTable
	mask    uint64
	history uint64
	histLen uint
}

// NewGshare builds a gshare predictor with 2^bits counters and histLen
// bits of global history.
func NewGshare(bits int, histLen uint) *Gshare {
	if bits < 1 || bits > 24 {
		panic(fmt.Sprintf("uarch: gshare bits %d out of range", bits))
	}
	if histLen == 0 || histLen > 32 {
		panic(fmt.Sprintf("uarch: gshare history %d out of range", histLen))
	}
	return &Gshare{table: newCounterTable(bits), mask: 1<<bits - 1, histLen: histLen}
}

func (g *Gshare) idx(pc uint64) uint64 { return ((pc >> 1) ^ g.history) & g.mask }

// Predict returns the predicted direction for the branch at pc.
func (g *Gshare) Predict(pc uint64) bool { return g.table.predict(g.idx(pc)) }

// Update trains the PHT with the resolved direction and shifts it
// into the global history.
func (g *Gshare) Update(pc uint64, taken bool) {
	g.table.update(g.idx(pc), taken)
	g.history <<= 1
	if taken {
		g.history |= 1
	}
	g.history &= 1<<g.histLen - 1
}

// Reset clears the PHT and the history.
func (g *Gshare) Reset() {
	g.table.reset()
	g.history = 0
}
