package prog

import (
	"fmt"

	"rhmd/internal/isa"
	"rhmd/internal/rng"
)

// Profile is a family-level behaviour description from which individual
// program instances are sampled. A family is the analogue of one malware
// type or one benign application category in the paper's corpus; the
// per-program Dirichlet jitter reproduces within-family variance so that
// classifiers face overlapping, not point-mass, populations.
type Profile struct {
	// Family is the family name ("browser", "spambot", ...).
	Family string
	// Malware is the ground-truth label for programs of this family.
	Malware bool

	// ClassWeights is the mean fraction of body instructions per opcode
	// class. Control-flow classes are ignored here (control lives in
	// terminators).
	ClassWeights map[isa.Class]float64
	// OpTilt multiplies the within-class weight of specific opcodes,
	// letting a family prefer e.g. XOR/ROL (packers) or FMUL (compute).
	OpTilt map[isa.Op]float64
	// Concentration is the Dirichlet concentration for per-program
	// opcode-mix jitter; larger = tighter family.
	Concentration float64

	// BlockLenMean / BlockLenSigma parametrize the log-normal body length
	// of basic blocks.
	BlockLenMean  float64
	BlockLenSigma float64

	// FuncsMin/FuncsMax bound the function count; BlocksMin/BlocksMax
	// bound blocks per function.
	FuncsMin, FuncsMax   int
	BlocksMin, BlocksMax int

	// Terminator mix for non-final blocks (fractions; remainder falls
	// through).
	BranchFrac float64
	JumpFrac   float64
	CallFrac   float64

	// LoopFrac is the fraction of non-final blocks ending in a counted
	// loop (TermLoop); LoopIterMean is the mean trip count of such
	// loops. Counted loops give traces window-scale phases: execution
	// dwells in one code region for hundreds to thousands of
	// instructions, as real program loops do.
	LoopFrac     float64
	LoopIterMean float64

	// LoopBackProb is the probability a conditional branch targets an
	// earlier (or same) block, forming a loop.
	LoopBackProb float64
	// TakenMean/TakenSpread parametrize per-block branch-taken
	// probability (clamped normal).
	TakenMean   float64
	TakenSpread float64

	// MemWeights weights the address patterns assigned to non-stack
	// memory instructions.
	MemWeights map[MemPattern]float64
	// UnalignedFrac is the mean fraction of memory accesses that are
	// unaligned (an architectural-event feature in the paper).
	UnalignedFrac float64
	// WSSmall/WSLarge are the working-set sizes (bytes) for the random
	// access patterns.
	WSSmall, WSLarge int
}

// Validate reports configuration errors in the profile.
func (p *Profile) Validate() error {
	if p.Family == "" {
		return fmt.Errorf("prog: profile without family name")
	}
	if len(p.ClassWeights) == 0 {
		return fmt.Errorf("prog: profile %q has no class weights", p.Family)
	}
	for c := range p.ClassWeights {
		switch c {
		case isa.ClassBranch, isa.ClassJump, isa.ClassCall, isa.ClassRet:
			return fmt.Errorf("prog: profile %q weights control class %v; control flow belongs to terminators", p.Family, c)
		}
	}
	if p.BlockLenMean < 1 {
		return fmt.Errorf("prog: profile %q block length mean %v < 1", p.Family, p.BlockLenMean)
	}
	if p.FuncsMin < 1 || p.FuncsMax < p.FuncsMin {
		return fmt.Errorf("prog: profile %q bad function bounds [%d,%d]", p.Family, p.FuncsMin, p.FuncsMax)
	}
	if p.BlocksMin < 2 || p.BlocksMax < p.BlocksMin {
		return fmt.Errorf("prog: profile %q bad block bounds [%d,%d]", p.Family, p.BlocksMin, p.BlocksMax)
	}
	if f := p.LoopFrac + p.BranchFrac + p.JumpFrac + p.CallFrac; f < 0 || f > 1 {
		return fmt.Errorf("prog: profile %q terminator fractions sum to %v", p.Family, f)
	}
	if p.LoopFrac > 0 && p.LoopIterMean < 1 {
		return fmt.Errorf("prog: profile %q loop trip mean %v < 1", p.Family, p.LoopIterMean)
	}
	if p.TakenMean < 0 || p.TakenMean > 1 {
		return fmt.Errorf("prog: profile %q taken mean %v", p.Family, p.TakenMean)
	}
	if len(p.MemWeights) == 0 {
		return fmt.Errorf("prog: profile %q has no memory pattern weights", p.Family)
	}
	if p.WSSmall <= 0 || p.WSLarge <= 0 {
		return fmt.Errorf("prog: profile %q non-positive working sets", p.Family)
	}
	return nil
}

// instance holds the per-program parameters sampled from a Profile.
type instance struct {
	opProbs   []float64 // program-level opcode distribution (body ops)
	ops       []isa.Op  // index -> opcode for opProbs
	memProbs  []float64
	memPats   []MemPattern
	blockLen  float64
	taken     func(r *rng.Source) float64
	unaligned float64
}

// phaseSpread is the Dirichlet concentration for per-block behaviour
// jitter, the same for every family. Real programs are phasic —
// different code regions have different instruction mixes and memory
// behaviour — so collection windows within one program vary,
// especially where counted loops dwell on single blocks. Smaller values
// would spread the phases further apart.
const phaseSpread = 70

// phaseDist holds the per-block ("micro-phase") distributions sampled
// around the program instance.
type phaseDist struct {
	opDist  *rng.Categorical
	memDist *rng.Categorical
}

// samplePhase jitters the program-level distributions into one
// block's phase behaviour.
func (inst *instance) samplePhase(r *rng.Source) (*phaseDist, error) {
	opDist, err := rng.NewCategorical(rng.Dirichlet(r, inst.opProbs, phaseSpread))
	if err != nil {
		return nil, err
	}
	memDist, err := rng.NewCategorical(rng.Dirichlet(r, inst.memProbs, phaseSpread))
	if err != nil {
		return nil, err
	}
	return &phaseDist{opDist: opDist, memDist: memDist}, nil
}

// bodyOps lists every opcode eligible for block bodies (non-control).
func bodyOps() []isa.Op {
	var out []isa.Op
	for op := isa.Op(0); op < isa.Op(isa.NumOps); op++ {
		if !op.IsControl() {
			out = append(out, op)
		}
	}
	return out
}

// sampleInstance draws the per-program parameters: a jittered opcode
// distribution, a jittered memory-pattern distribution, block-length and
// branch parameters.
func (p *Profile) sampleInstance(r *rng.Source) (*instance, error) {
	ops := bodyOps()
	base := make([]float64, len(ops))
	classCount := map[isa.Class]int{}
	for _, op := range ops {
		classCount[op.Class()]++
	}
	total := 0.0
	for i, op := range ops {
		w := p.ClassWeights[op.Class()] / float64(classCount[op.Class()])
		if tilt, ok := p.OpTilt[op]; ok {
			w *= tilt
		}
		base[i] = w
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("prog: profile %q produces empty opcode distribution", p.Family)
	}
	for i := range base {
		base[i] /= total
	}
	conc := p.Concentration
	if conc <= 0 {
		conc = 120
	}
	jittered := rng.Dirichlet(r, base, conc)

	memPats := make([]MemPattern, 0, len(p.MemWeights))
	for pat := MemPattern(0); pat < MemPattern(NumMemPatterns); pat++ {
		if w, ok := p.MemWeights[pat]; ok && w > 0 {
			memPats = append(memPats, pat)
		}
	}
	memBase := make([]float64, len(memPats))
	for i, pat := range memPats {
		memBase[i] = p.MemWeights[pat]
	}
	msum := 0.0
	for _, w := range memBase {
		msum += w
	}
	if msum <= 0 {
		return nil, fmt.Errorf("prog: profile %q memory weights all zero", p.Family)
	}
	for i := range memBase {
		memBase[i] /= msum
	}
	memJittered := rng.Dirichlet(r, memBase, conc)

	taken := func(src *rng.Source) float64 {
		v := src.Norm(p.TakenMean, p.TakenSpread)
		if v < 0.02 {
			v = 0.02
		}
		if v > 0.98 {
			v = 0.98
		}
		return v
	}

	return &instance{
		opProbs:   jittered,
		ops:       ops,
		memProbs:  memJittered,
		memPats:   memPats,
		blockLen:  r.Jitter(p.BlockLenMean, 0.2),
		taken:     taken,
		unaligned: clamp01(r.Jitter(p.UnalignedFrac, 0.4)),
	}, nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
