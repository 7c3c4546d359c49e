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
// returns the event's architectural outcome.
func (p *Pipeline) Process(e *trace.Event) Outcome {
	var out Outcome
	if e.Op == isa.JCC || e.Op == isa.LOOPCC {
		out.IsBranch = true
		out.Taken = e.Taken
		out.Mispredict = p.BP.Predict(e.PC) != e.Taken
		p.BP.Update(e.PC, e.Taken)
	}
	if e.Op.IsMem() {
		out.IsMem = true
		out.Unaligned = e.Addr%4 != 0
		out.L1Miss, out.L2Miss = p.Cache.Access(e.Addr)
	}
	return out
}

// Reset clears all pipeline state; called between programs so one
// program's history never leaks into another's features.
func (p *Pipeline) Reset() {
	p.BP.Reset()
	p.Cache.Reset()
}
