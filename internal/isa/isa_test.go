package isa

import (
	"testing"
	"testing/quick"
)

func TestEveryOpcodeHasInfo(t *testing.T) {
	seen := map[string]Op{}
	for op := Op(0); op < Op(NumOps); op++ {
		info := op.Info()
		if info.Name == "" {
			t.Fatalf("opcode %d has no name", op)
		}
		if info.Bytes <= 0 || info.Bytes > 15 {
			t.Fatalf("%s has implausible length %d", info.Name, info.Bytes)
		}
		if prev, dup := seen[info.Name]; dup {
			t.Fatalf("mnemonic %q used by both %d and %d", info.Name, prev, op)
		}
		seen[info.Name] = op
	}
}

func TestClassStringCoverage(t *testing.T) {
	for c := Class(0); c < Class(NumClasses); c++ {
		if s := c.String(); s == "" || s[0] == 'c' && s[1] == 'l' { // "class(n)" fallback
			t.Fatalf("class %d missing name: %q", c, s)
		}
	}
	if Class(200).String() != "class(200)" {
		t.Fatal("out-of-range class should use fallback formatting")
	}
}

func TestMemoryFlagsConsistent(t *testing.T) {
	if !MOVLD.IsLoad() || MOVLD.IsStore() {
		t.Fatal("movld must be load-only")
	}
	if MOVST.IsLoad() || !MOVST.IsStore() {
		t.Fatal("movst must be store-only")
	}
	if !MOVSB.IsLoad() || !MOVSB.IsStore() {
		t.Fatal("movsb is both load and store")
	}
	if ADD.IsMem() {
		t.Fatal("register add must not touch memory")
	}
}

func TestControlFlowOpcodes(t *testing.T) {
	for _, op := range []Op{JMP, JCC, LOOPCC, CALLN, CALLI, RET} {
		if !op.IsControl() {
			t.Fatalf("%s should be control flow", op)
		}
	}
	for _, op := range []Op{ADD, MOVLD, NOP, SYSCALL} {
		if op.IsControl() {
			t.Fatalf("%s should not be control flow", op)
		}
	}
}

func TestByClassPartition(t *testing.T) {
	// Every opcode falls in exactly one of the NumClasses classes.
	for op := Op(0); op < Op(NumOps); op++ {
		if c := op.Class(); c >= Class(NumClasses) {
			t.Fatalf("%s has class %v, outside the %d classes", op, c, NumClasses)
		}
	}
}

func TestInjectableExcludesControlAndSystem(t *testing.T) {
	for _, op := range Injectable() {
		if op.IsControl() {
			t.Fatalf("injectable set contains control op %s", op)
		}
		if c := op.Class(); c == ClassSystem || c == ClassString || c == ClassStack {
			t.Fatalf("injectable set contains unsafe class %v (%s)", c, op)
		}
	}
}

func TestInjectableIncludesMemoryOps(t *testing.T) {
	// The paper's memory-feature evasion requires injectable loads/stores.
	want := map[Op]bool{MOVLD: true, MOVST: true, NOP: true, ADD: true}
	for _, op := range Injectable() {
		delete(want, op)
	}
	if len(want) != 0 {
		t.Fatalf("missing expected injectable ops: %v", want)
	}
}

func TestLookupRoundTrip(t *testing.T) {
	f := func(raw uint8) bool {
		op := Op(int(raw) % NumOps)
		got, ok := Lookup(op.String())
		return ok && got == op
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if _, ok := Lookup("no-such-op"); ok {
		t.Fatal("Lookup of unknown mnemonic succeeded")
	}
}

func TestPackedPredicatesMatchInfo(t *testing.T) {
	for op := Op(0); op < Op(NumOps); op++ {
		i := op.Info()
		if op.Class() != i.Class || op.Bytes() != i.Bytes || op.IsLoad() != i.Load ||
			op.IsStore() != i.Store || op.IsMem() != (i.Load || i.Store) {
			t.Fatalf("%s: packed predicates disagree with %+v", op, i)
		}
	}
}

func TestInvalidOpcodePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Op(255).Info() },
		func() { Op(NumOps).IsMem() }, // the packed predicates too
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for invalid opcode")
				}
			}()
			f()
		}()
	}
}

func TestInvalidOpcodeString(t *testing.T) {
	if Op(255).String() != "op(255)" {
		t.Fatal("invalid opcode String should not panic")
	}
}
