package prog

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"rhmd/internal/isa"
	"rhmd/internal/rng"
)

func testProfile() *Profile {
	return BenignFamilies()[0]
}

func mustGenerate(t *testing.T, p *Profile, seed uint64) *Program {
	t.Helper()
	r := rng.New(seed)
	prog, err := Generate(p, r, p.Family+"-test", seed)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestGenerateValidates(t *testing.T) {
	for _, p := range AllFamilies() {
		for seed := uint64(0); seed < 5; seed++ {
			prog := mustGenerate(t, p, seed)
			if err := prog.Validate(); err != nil {
				t.Fatalf("family %s seed %d: %v", p.Family, seed, err)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := testProfile()
	a := mustGenerate(t, p, 99)
	b := mustGenerate(t, p, 99)
	if a.StaticInstructions() != b.StaticInstructions() || a.StaticBytes() != b.StaticBytes() {
		t.Fatal("same seed produced different programs")
	}
	ha, hb := a.OpcodeHistogram(), b.OpcodeHistogram()
	if ha != hb {
		t.Fatal("same seed produced different opcode histograms")
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	p := testProfile()
	a := mustGenerate(t, p, 1)
	b := mustGenerate(t, p, 2)
	if a.OpcodeHistogram() == b.OpcodeHistogram() {
		t.Fatal("different seeds produced identical programs")
	}
}

func TestAllFamilyProfilesValid(t *testing.T) {
	fams := AllFamilies()
	if len(fams) < 10 {
		t.Fatalf("expected a rich family library, got %d", len(fams))
	}
	seen := map[string]bool{}
	nMal := 0
	for _, p := range fams {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Family, err)
		}
		if seen[p.Family] {
			t.Fatalf("duplicate family %s", p.Family)
		}
		seen[p.Family] = true
		if p.Malware {
			nMal++
		}
	}
	if nMal < 4 || len(fams)-nMal < 4 {
		t.Fatalf("family balance off: %d malware of %d", nMal, len(fams))
	}
}

func TestLabelsFollowProfiles(t *testing.T) {
	for _, p := range AllFamilies() {
		prog := mustGenerate(t, p, 7)
		want := Benign
		if p.Malware {
			want = Malware
		}
		if prog.Label != want {
			t.Fatalf("family %s produced label %v", p.Family, prog.Label)
		}
	}
}

func TestLayoutMonotone(t *testing.T) {
	prog := mustGenerate(t, testProfile(), 3)
	var prev uint64
	first := true
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			if !first && b.Addr <= prev {
				t.Fatalf("non-monotone layout: %#x after %#x", b.Addr, prev)
			}
			prev = b.Addr
			first = false
		}
	}
	if prog.Funcs[0].Blocks[0].Addr != 0x400000 {
		t.Fatalf("base address = %#x", prog.Funcs[0].Blocks[0].Addr)
	}
}

func TestCallGraphIsDAG(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		prog := mustGenerate(t, testProfile(), seed)
		for fi, f := range prog.Funcs {
			for _, b := range f.Blocks {
				if b.Term.Kind == TermCall && b.Term.Callee <= fi {
					t.Fatalf("call from f%d to f%d breaks DAG property", fi, b.Term.Callee)
				}
			}
		}
	}
}

func TestBranchTakenProbBounded(t *testing.T) {
	prog := mustGenerate(t, testProfile(), 5)
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			if b.Term.Kind != TermBranch {
				continue
			}
			if p := b.Term.TakenProb; p < 0.02 || p > 0.98 {
				t.Fatalf("taken prob %v out of bounds", p)
			}
			// Back edges must not be taken w.p. ~1 (termination guarantee).
			if b.Term.Target <= blockIndex(f, b) && b.Term.TakenProb > 0.95 {
				t.Fatalf("back edge with taken prob %v", b.Term.TakenProb)
			}
		}
	}
}

func blockIndex(f *Function, target *BasicBlock) int {
	for i, b := range f.Blocks {
		if b == target {
			return i
		}
	}
	return -1
}

func TestCloneIsDeep(t *testing.T) {
	orig := mustGenerate(t, testProfile(), 11)
	clone := orig.Clone()
	clone.Funcs[0].Blocks[0].Body[0].Op = isa.NOP
	clone.Funcs[0].Blocks[0].Term.Kind = TermRet
	if orig.Funcs[0].Blocks[0].Body[0].Op == isa.NOP && orig.Funcs[0].Blocks[0].Term.Kind == TermRet {
		t.Fatal("clone shares storage with original")
	}
}

func TestValidateRejectsControlInBody(t *testing.T) {
	prog := mustGenerate(t, testProfile(), 13)
	prog.Funcs[0].Blocks[0].Body[0] = Instruction{Op: isa.JMP}
	if prog.Validate() == nil {
		t.Fatal("control op in body must fail validation")
	}
}

func TestValidateRejectsBadTarget(t *testing.T) {
	prog := mustGenerate(t, testProfile(), 13)
	prog.Funcs[0].Blocks[0].Term = Terminator{Kind: TermJump, Target: 9999}
	if prog.Validate() == nil {
		t.Fatal("out-of-range target must fail validation")
	}
}

func TestValidateRejectsMemoryMismatch(t *testing.T) {
	prog := mustGenerate(t, testProfile(), 13)
	prog.Funcs[0].Blocks[0].Body[0] = Instruction{Op: isa.MOVLD} // mem op, no pattern
	if prog.Validate() == nil {
		t.Fatal("memory op without pattern must fail validation")
	}
	prog2 := mustGenerate(t, testProfile(), 13)
	prog2.Funcs[0].Blocks[0].Body[0] = Instruction{Op: isa.ADD, Mem: MemSpec{Pattern: MemSeq1}}
	if prog2.Validate() == nil {
		t.Fatal("non-memory op with pattern must fail validation")
	}
}

func TestProfileValidateCatchesErrors(t *testing.T) {
	bad := *testProfile()
	bad.ClassWeights = map[isa.Class]float64{isa.ClassBranch: 1}
	if bad.Validate() == nil {
		t.Fatal("control class weight must be rejected")
	}
	bad2 := *testProfile()
	bad2.BlocksMin = 1
	if bad2.Validate() == nil {
		t.Fatal("BlocksMin < 2 must be rejected")
	}
	bad3 := *testProfile()
	bad3.Family = ""
	if bad3.Validate() == nil {
		t.Fatal("empty family must be rejected")
	}
}

func TestNewPayloadRejectsUnsafeOps(t *testing.T) {
	if _, err := NewPayload([]isa.Op{isa.JMP}, 0); err == nil {
		t.Fatal("control op payload must be rejected")
	}
	if _, err := NewPayload([]isa.Op{isa.SYSCALL}, 0); err == nil {
		t.Fatal("syscall payload must be rejected")
	}
	for _, delta := range []int64{1 << 31, -(1 << 31) - 1} {
		if _, err := NewPayload([]isa.Op{isa.MOVLD}, delta); err == nil {
			t.Fatalf("memory delta %d outside int32 must be rejected", delta)
		}
	}
	for _, delta := range []int64{math.MaxInt32, math.MinInt32} {
		pl, err := NewPayload([]isa.Op{isa.MOVLD}, delta)
		if err != nil {
			t.Fatalf("memory delta %d: %v", delta, err)
		}
		if got := int64(pl[0].Mem.Delta); got != delta {
			t.Fatalf("memory delta %d stored as %d", delta, got)
		}
	}
}

// TestInstructionSize: every program held in memory is mostly its
// instructions, so a field that regrows Instruction past 16 bytes
// grows every one of them.
func TestInstructionSize(t *testing.T) {
	if got := unsafe.Sizeof(Instruction{}); got != 16 {
		t.Fatalf("Instruction is %d bytes, want 16", got)
	}
}

func TestNewPayloadMemorySpec(t *testing.T) {
	pl, err := NewPayload([]isa.Op{isa.MOVLD, isa.ADD}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if pl[0].Mem.Pattern != MemFixed || pl[0].Mem.Delta != 4096 {
		t.Fatalf("memory op spec = %+v", pl[0].Mem)
	}
	if pl[1].Mem.Pattern != MemNone {
		t.Fatalf("ALU op got memory spec %+v", pl[1].Mem)
	}
	for _, ins := range pl {
		if !ins.Injected {
			t.Fatal("payload instructions must be marked Injected")
		}
	}
}

func TestInjectBlockLevel(t *testing.T) {
	orig := mustGenerate(t, testProfile(), 17)
	pl, _ := NewPayload([]isa.Op{isa.XOR, isa.XOR}, 0)
	mod := Inject(orig, pl, BlockLevel)
	if err := mod.Validate(); err != nil {
		t.Fatal(err)
	}
	sites := InjectionSites(orig, BlockLevel)
	if got := InjectedCount(mod); got != sites*2 {
		t.Fatalf("injected %d, want %d", got, sites*2)
	}
	if InjectedCount(orig) != 0 {
		t.Fatal("original mutated by Inject")
	}
	if mod.Generation != orig.Generation+1 {
		t.Fatal("generation not bumped")
	}
	// Injected instructions must sit at the end of the body.
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			if !siteMatches(b.Term, BlockLevel) {
				continue
			}
			n := len(b.Body)
			if n < 2 || !b.Body[n-1].Injected || !b.Body[n-2].Injected {
				t.Fatal("payload not appended before terminator")
			}
		}
	}
}

func TestInjectFunctionLevelSubsetOfBlockLevel(t *testing.T) {
	orig := mustGenerate(t, testProfile(), 19)
	fn := InjectionSites(orig, FunctionLevel)
	bl := InjectionSites(orig, BlockLevel)
	if fn >= bl {
		t.Fatalf("function sites %d should be < block sites %d", fn, bl)
	}
	if fn != len(orig.Funcs) {
		// One ret per function by construction.
		t.Fatalf("function sites %d, want %d", fn, len(orig.Funcs))
	}
}

func TestStaticOverheadGrowsWithPayload(t *testing.T) {
	orig := mustGenerate(t, testProfile(), 23)
	small, _ := NewPayload([]isa.Op{isa.XOR}, 0)
	big, _ := NewPayload([]isa.Op{isa.XOR, isa.XOR, isa.XOR, isa.XOR, isa.XOR}, 0)
	oSmall := StaticOverhead(orig, Inject(orig, small, BlockLevel))
	oBig := StaticOverhead(orig, Inject(orig, big, BlockLevel))
	if oSmall <= 0 || oBig <= oSmall {
		t.Fatalf("overheads small=%v big=%v", oSmall, oBig)
	}
	oFn := StaticOverhead(orig, Inject(orig, small, FunctionLevel))
	if oFn <= 0 || oFn >= oSmall {
		t.Fatalf("function-level overhead %v should be below block-level %v", oFn, oSmall)
	}
}

// Property: injection never breaks validation nor changes terminators,
// for arbitrary injectable payload sizes.
func TestInjectPreservesStructureProperty(t *testing.T) {
	orig := mustGenerate(t, testProfile(), 29)
	inj := isa.Injectable()
	f := func(opIdx uint8, count uint8, fnLevel bool) bool {
		n := int(count%8) + 1
		ops := make([]isa.Op, n)
		for i := range ops {
			ops[i] = inj[int(opIdx)%len(inj)]
		}
		pl, err := NewPayload(ops, 64)
		if err != nil {
			return false
		}
		level := BlockLevel
		if fnLevel {
			level = FunctionLevel
		}
		mod := Inject(orig, pl, level)
		if mod.Validate() != nil {
			return false
		}
		// Terminators unchanged.
		for fi, fn := range mod.Funcs {
			for bi, b := range fn.Blocks {
				if b.Term != orig.Funcs[fi].Blocks[bi].Term {
					return false
				}
			}
		}
		return mod.StaticInstructions() == orig.StaticInstructions()+n*InjectionSites(orig, level)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMemPatternString(t *testing.T) {
	if MemSeq1.String() != "seq1" || MemPattern(200).String() == "" {
		t.Fatal("pattern names broken")
	}
	if TermRet.String() != "ret" {
		t.Fatal("terminator names broken")
	}
	if Malware.String() != "malware" || Benign.String() != "benign" {
		t.Fatal("label names broken")
	}
}

func TestOpcodeHistogramCountsTerminators(t *testing.T) {
	prog := mustGenerate(t, testProfile(), 31)
	h := prog.OpcodeHistogram()
	if h[isa.RET] != len(prog.Funcs) {
		// One ret per function (last block) plus no others by construction.
		t.Fatalf("ret count %d, want %d", h[isa.RET], len(prog.Funcs))
	}
	total := 0
	for _, c := range h {
		total += c
	}
	if total != prog.StaticInstructions() {
		t.Fatalf("histogram total %d != static instructions %d", total, prog.StaticInstructions())
	}
}
