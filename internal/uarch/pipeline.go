package uarch

import (
	"rhmd/internal/isa"
	"rhmd/internal/trace"
)

// Outcome reports the micro-architectural side effects of one executed
// instruction.
type Outcome struct {
	IsBranch   bool
	Taken      bool
	Mispredict bool
	IsMem      bool
	L1Miss     bool
	L2Miss     bool
	Unaligned  bool
}

// Pipeline wires a gshare predictor and a cache hierarchy behind the
// commit stage, the point where the paper's detectors tap the core ("the
// detectors collect information from the commit stage of the pipeline",
// §7).
type Pipeline struct {
	BP    *Gshare
	Cache *Hierarchy
}

// NewDefaultPipeline returns a gshare(12-bit, 8-history) predictor with
// the default cache hierarchy.
func NewDefaultPipeline() *Pipeline {
	return &Pipeline{
		BP:    NewGshare(12, 8),
		Cache: NewDefaultHierarchy(),
	}
}

// Process consumes one trace event, updates predictor/cache state and
// returns the event's architectural outcome. It steps a conditional
// branch through Branch and a memory reference through Mem; callers
// that know the event's kind call those directly.
func (p *Pipeline) Process(e *trace.Event) Outcome {
	var out Outcome
	if e.Op.Class() == isa.ClassBranch {
		out.IsBranch = true
		out.Taken = e.Taken
		out.Mispredict = p.Branch(e.PC, e.Taken)
	}
	if e.Op.IsMem() {
		out.IsMem = true
		out.L1Miss, out.L2Miss, out.Unaligned = p.Mem(e.Addr)
	}
	return out
}

// Branch resolves the conditional branch at pc: it reports whether the
// predictor mispredicted it, then trains the predictor on taken.
func (p *Pipeline) Branch(pc uint64, taken bool) (mispredict bool) {
	mispredict = p.BP.Predict(pc) != taken
	p.BP.Update(pc, taken)
	return mispredict
}

// Mem performs the data access at addr and reports whether it missed
// in L1, missed in L2 as well, and was not 4-byte aligned.
func (p *Pipeline) Mem(addr uint64) (l1Miss, l2Miss, unaligned bool) {
	l1Miss, l2Miss = p.Cache.Access(addr)
	return l1Miss, l2Miss, addr%4 != 0
}

// Reset clears all pipeline state; called between programs so one
// program's history never leaks into another's features.
func (p *Pipeline) Reset() {
	p.BP.Reset()
	p.Cache.Reset()
}
