package trace

import (
	"testing"

	"rhmd/internal/isa"
	"rhmd/internal/prog"
	"rhmd/internal/rng"
)

func genProgram(t testing.TB, famIdx int, seed uint64) *prog.Program {
	t.Helper()
	fams := prog.AllFamilies()
	p, err := prog.Generate(fams[famIdx%len(fams)], rng.New(seed), "t", seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExecRespectsBudget(t *testing.T) {
	p := genProgram(t, 0, 1)
	st, err := Exec(p, Config{MaxInstructions: 5000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total < 5000 || st.Total > 5000+64 {
		t.Fatalf("executed %d instructions for budget 5000", st.Total)
	}
}

func TestExecDeterministic(t *testing.T) {
	p := genProgram(t, 2, 7)
	var a, b []Event
	collect := func(dst *[]Event) Sink {
		return SinkFunc(func(e *Event) { *dst = append(*dst, *e) })
	}
	if _, err := Exec(p, Config{MaxInstructions: 3000}, collect(&a)); err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(p, Config{MaxInstructions: 3000}, collect(&b)); err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestExecSeedChangesStream(t *testing.T) {
	p := genProgram(t, 2, 7)
	q := p.Clone()
	q.Seed = p.Seed + 1
	sa, _ := Exec(p, Config{MaxInstructions: 10000}, nil)
	sb, _ := Exec(q, Config{MaxInstructions: 10000}, nil)
	if sa.Taken == sb.Taken && sa.Loads == sb.Loads {
		t.Fatal("different seeds produced identical statistics (suspicious)")
	}
}

func TestExecErrors(t *testing.T) {
	p := genProgram(t, 0, 3)
	if _, err := Exec(p, Config{}, nil); err == nil {
		t.Fatal("zero budget must error")
	}
	bad := p.Clone()
	bad.Funcs[0].Blocks[0].Body[0] = prog.Instruction{Op: isa.JMP}
	if _, err := Exec(bad, Config{MaxInstructions: 100}, nil); err == nil {
		t.Fatal("invalid program must error")
	}
}

func TestStatsConsistency(t *testing.T) {
	p := genProgram(t, 1, 11)
	var loads, stores, branches, taken int
	sink := SinkFunc(func(e *Event) {
		if e.Op.IsLoad() {
			loads++
		}
		if e.Op.IsStore() {
			stores++
		}
		if e.Op == isa.JCC || e.Op == isa.LOOPCC {
			branches++
			if e.Taken {
				taken++
			}
		}
	})
	st, err := Exec(p, Config{MaxInstructions: 20000}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if st.Loads != loads || st.Stores != stores {
		t.Fatalf("stats loads/stores %d/%d, sink %d/%d", st.Loads, st.Stores, loads, stores)
	}
	if st.Branches != branches || st.Taken != taken {
		t.Fatalf("stats branches/taken %d/%d, sink %d/%d", st.Branches, st.Taken, branches, taken)
	}
	if st.Taken > st.Branches {
		t.Fatal("taken exceeds branches")
	}
	if st.Injected != 0 {
		t.Fatal("unmodified program reported injected instructions")
	}
}

func TestMemoryAddressesValid(t *testing.T) {
	p := genProgram(t, 4, 13)
	bad := 0
	sink := SinkFunc(func(e *Event) {
		if e.Op.IsMem() && e.Addr == 0 {
			bad++
		}
		if !e.Op.IsMem() && e.Op != isa.CALLN && e.Op != isa.RET && e.Addr != 0 {
			bad++
		}
	})
	if _, err := Exec(p, Config{MaxInstructions: 20000}, sink); err != nil {
		t.Fatal(err)
	}
	if bad > 0 {
		t.Fatalf("%d events with inconsistent addresses", bad)
	}
}

func TestStackAddressesInRegion(t *testing.T) {
	p := genProgram(t, 0, 17)
	sink := SinkFunc(func(e *Event) {
		if e.Op == isa.PUSH || e.Op == isa.POP {
			if e.Addr < stackTop-stackSpan || e.Addr > stackTop {
				t.Fatalf("stack access at %#x outside region", e.Addr)
			}
		}
	})
	if _, err := Exec(p, Config{MaxInstructions: 20000}, sink); err != nil {
		t.Fatal(err)
	}
}

func TestInjectedBudgetAccounting(t *testing.T) {
	p := genProgram(t, 6, 19) // a malware family
	payload, err := prog.NewPayload([]isa.Op{isa.XOR, isa.XOR}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mod := prog.Inject(p, payload, prog.BlockLevel)

	st, err := Exec(mod, Config{MaxInstructions: 30000, BudgetOriginalOnly: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Original() < 30000 {
		t.Fatalf("original-only budget ended early: %d", st.Original())
	}
	if st.Injected == 0 {
		t.Fatal("no injected instructions executed")
	}
	if st.DynamicOverhead() <= 0 {
		t.Fatal("dynamic overhead should be positive")
	}

	// Injection must not change control flow: branch outcomes with the
	// same seed match the original.
	stOrig, _ := Exec(p, Config{MaxInstructions: 30000, BudgetOriginalOnly: true}, nil)
	if st.Branches == 0 || st.Taken != stOrig.Taken || st.Branches != stOrig.Branches {
		t.Fatalf("control flow changed: %d/%d vs %d/%d taken/branches",
			st.Taken, st.Branches, stOrig.Taken, stOrig.Branches)
	}
}

func TestFunctionLevelOverheadLower(t *testing.T) {
	p := genProgram(t, 7, 23)
	payload, _ := prog.NewPayload([]isa.Op{isa.ADD}, 0)
	blk := prog.Inject(p, payload, prog.BlockLevel)
	fn := prog.Inject(p, payload, prog.FunctionLevel)
	cfg := Config{MaxInstructions: 40000, BudgetOriginalOnly: true}
	sb, _ := Exec(blk, cfg, nil)
	sf, _ := Exec(fn, cfg, nil)
	if sf.DynamicOverhead() >= sb.DynamicOverhead() {
		t.Fatalf("function-level overhead %.3f should be below block-level %.3f",
			sf.DynamicOverhead(), sb.DynamicOverhead())
	}
}

func TestFixedDeltaAddresses(t *testing.T) {
	p := genProgram(t, 0, 29)
	const delta = 4096
	payload, _ := prog.NewPayload([]isa.Op{isa.MOVLD}, delta)
	mod := prog.Inject(p, payload, prog.BlockLevel)
	var prev uint64
	hits, injMem := 0, 0
	sink := SinkFunc(func(e *Event) {
		if e.Injected && e.Op.IsMem() {
			injMem++
			if prev != 0 && e.Addr == prev+delta {
				hits++
			}
		}
		if e.Op.IsMem() {
			prev = e.Addr
		}
	})
	if _, err := Exec(mod, Config{MaxInstructions: 30000}, sink); err != nil {
		t.Fatal(err)
	}
	if injMem == 0 {
		t.Fatal("no injected memory instructions executed")
	}
	if hits != injMem {
		t.Fatalf("fixed-delta addresses: %d/%d correct", hits, injMem)
	}
}

func TestRestartsForShortPrograms(t *testing.T) {
	// A tiny program must restart many times to fill a large budget.
	fams := prog.AllFamilies()
	small := *fams[0]
	small.FuncsMin, small.FuncsMax = 1, 1
	small.BlocksMin, small.BlocksMax = 2, 3
	p, err := prog.Generate(&small, rng.New(5), "tiny", 5)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Exec(p, Config{MaxInstructions: 10000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Restarts == 0 {
		t.Fatal("tiny program never restarted")
	}
}

func TestMultiSink(t *testing.T) {
	p := genProgram(t, 0, 31)
	var n1, n2 int
	ms := MultiSink{
		SinkFunc(func(*Event) { n1++ }),
		SinkFunc(func(*Event) { n2++ }),
	}
	st, err := Exec(p, Config{MaxInstructions: 1000}, ms)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != st.Total || n2 != st.Total {
		t.Fatalf("multisink counts %d/%d, want %d", n1, n2, st.Total)
	}
}

func TestPCsAreLaidOut(t *testing.T) {
	p := genProgram(t, 0, 37)
	sink := SinkFunc(func(e *Event) {
		if e.PC < 0x400000 {
			t.Fatalf("PC %#x below image base", e.PC)
		}
	})
	if _, err := Exec(p, Config{MaxInstructions: 5000}, sink); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExec(b *testing.B) {
	p := genProgram(b, 0, 1)
	sink := SinkFunc(func(*Event) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exec(p, Config{MaxInstructions: 100000}, sink); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(100000)
}
