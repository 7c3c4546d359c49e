package prog

import (
	"fmt"
	"math"

	"rhmd/internal/isa"
	"rhmd/internal/rng"
)

// Generate synthesizes one program instance from a family profile.
//
// The CFG is structured so that execution (see internal/trace) never gets
// stuck: unconditional jumps and branch "skip" edges only go forward,
// loops only arise from conditional back-edges whose taken probability is
// strictly below 1, and calls only target higher-numbered functions so
// the static call graph is a DAG (the trace engine additionally bounds
// call depth). The entry function's final return restarts the program,
// modelling a long-running process as the paper's 15M-instruction traces
// do.
//
// traceSeed becomes the program's deterministic execution seed.
func Generate(p *Profile, r *rng.Source, name string, traceSeed uint64) (*Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	inst, err := p.sampleInstance(r)
	if err != nil {
		return nil, err
	}

	label := Benign
	if p.Malware {
		label = Malware
	}
	nFuncs := r.IntRange(p.FuncsMin, p.FuncsMax)
	prog := &Program{
		Name:   name,
		Family: p.Family,
		Label:  label,
		Seed:   traceSeed,
		Funcs:  make([]*Function, nFuncs),
		Mem: MemConfig{
			WSSmall:       p.WSSmall,
			WSLarge:       p.WSLarge,
			UnalignedFrac: inst.unaligned,
		},
	}

	for fi := 0; fi < nFuncs; fi++ {
		nBlocks := r.IntRange(p.BlocksMin, p.BlocksMax)
		f := &Function{Blocks: make([]*BasicBlock, nBlocks)}
		for bi := 0; bi < nBlocks; bi++ {
			// Each basic block is one behavioural micro-phase: its opcode
			// and memory distributions are jittered around the program
			// instance. Counted loops then dwell on individual blocks for
			// hundreds of instructions, so collection windows vary as
			// execution moves between loop regions — the phase behaviour
			// of real traces.
			phase, err := inst.samplePhase(r)
			if err != nil {
				return nil, fmt.Errorf("prog: profile %q phase: %v", p.Family, err)
			}
			f.Blocks[bi] = &BasicBlock{
				Body: genBody(p, inst, phase, r),
				Term: genTerminator(p, inst, r, fi, bi, nBlocks, nFuncs),
			}
		}
		prog.Funcs[fi] = f
	}

	prog.Layout()
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("prog: generated invalid program: %w", err)
	}
	return prog, nil
}

// genBody samples a straight-line block body from the function phase's
// opcode and memory-pattern distributions.
func genBody(p *Profile, inst *instance, phase *phaseDist, r *rng.Source) []Instruction {
	n := int(r.LogNorm(math.Log(inst.blockLen), p.BlockLenSigma))
	if n < 1 {
		n = 1
	}
	if n > 48 {
		n = 48
	}
	body := make([]Instruction, n)
	for i := range body {
		op := inst.ops[phase.opDist.Sample(r)]
		ins := Instruction{Op: op}
		if op.IsMem() {
			ins.Mem = genMemSpec(op, inst, phase, r)
		}
		body[i] = ins
	}
	return body
}

// genMemSpec picks the address pattern for a memory instruction. Stack
// opcodes always use the stack region; string opcodes strongly prefer
// sequential patterns (rep-style bulk movement); everything else samples
// the phase's pattern distribution.
func genMemSpec(op isa.Op, inst *instance, phase *phaseDist, r *rng.Source) MemSpec {
	switch op.Class() {
	case isa.ClassStack:
		return MemSpec{Pattern: MemStack}
	case isa.ClassString:
		if r.Bool(0.85) {
			return MemSpec{Pattern: MemSeq1}
		}
	}
	return MemSpec{Pattern: inst.memPats[phase.memDist.Sample(r)]}
}

// genTerminator chooses the block's control transfer.
func genTerminator(p *Profile, inst *instance, r *rng.Source, fi, bi, nBlocks, nFuncs int) Terminator {
	last := bi == nBlocks-1
	if last {
		return Terminator{Kind: TermRet}
	}
	u := r.Float64()
	switch {
	case u < p.LoopFrac:
		lo := bi - 3
		if lo < 0 {
			lo = 0
		}
		return Terminator{
			Kind:     TermLoop,
			Target:   r.IntRange(lo, bi),
			IterMean: r.Jitter(p.LoopIterMean, 0.5),
		}
	case u < p.LoopFrac+p.BranchFrac:
		t := Terminator{Kind: TermBranch, TakenProb: inst.taken(r)}
		if r.Bool(p.LoopBackProb) {
			// Back-edge: loop head within the previous few blocks
			// (including this block: a self-loop).
			lo := bi - 6
			if lo < 0 {
				lo = 0
			}
			t.Target = r.IntRange(lo, bi)
			// A back-edge taken with high probability is a hot loop; keep
			// taken probability away from 1 so the loop always exits.
			if t.TakenProb > 0.95 {
				t.TakenProb = 0.95
			}
		} else {
			// Forward skip edge.
			t.Target = r.IntRange(bi+1, nBlocks-1)
		}
		return t
	case u < p.LoopFrac+p.BranchFrac+p.JumpFrac:
		return Terminator{Kind: TermJump, Target: r.IntRange(bi+1, nBlocks-1)}
	case u < p.LoopFrac+p.BranchFrac+p.JumpFrac+p.CallFrac && fi+1 < nFuncs:
		// Calls form a DAG: only higher-numbered functions are callable.
		return Terminator{Kind: TermCall, Callee: r.IntRange(fi+1, nFuncs-1)}
	default:
		return Terminator{Kind: TermFall}
	}
}
