package uarch

import (
	"testing"

	"rhmd/internal/isa"
	"rhmd/internal/trace"
)

// TestCounterLearnsBias: a 2-bit counter learns a bias and a run of
// opposite outcomes relearns the other direction.
func TestCounterLearnsBias(t *testing.T) {
	c := newCounterTable(1)
	for i := 0; i < 10; i++ {
		c.update(1, true)
	}
	if !c.predict(1) {
		t.Fatal("counter failed to learn always-taken")
	}
	for i := 0; i < 10; i++ {
		c.update(1, false)
	}
	if c.predict(1) {
		t.Fatal("counter failed to relearn not-taken")
	}
}

// TestCounterHysteresis: a single opposite outcome does not flip a
// saturated 2-bit counter.
func TestCounterHysteresis(t *testing.T) {
	c := newCounterTable(1)
	for i := 0; i < 10; i++ {
		c.update(1, true)
	}
	c.update(1, false) // one glitch must not flip a saturated counter
	if !c.predict(1) {
		t.Fatal("2-bit counter flipped after a single opposite outcome")
	}
}

func TestGshareLearnsPattern(t *testing.T) {
	g := NewGshare(12, 8)
	pc := uint64(0x400300)
	// Alternating T/N pattern is history-predictable, impossible for
	// a per-PC 2-bit counter.
	warm := 4096
	correct := 0
	for i := 0; i < warm+1000; i++ {
		taken := i%2 == 0
		if i >= warm && g.Predict(pc) == taken {
			correct++
		}
		g.Update(pc, taken)
	}
	if correct < 950 {
		t.Fatalf("gshare got %d/1000 on alternating pattern", correct)
	}
}

func TestGshareReset(t *testing.T) {
	g := NewGshare(10, 8)
	for i := 0; i < 100; i++ {
		g.Update(uint64(i*2), i%3 == 0)
	}
	g.Reset()
	if g.history != 0 {
		t.Fatal("reset did not clear history")
	}
}

func TestPredictorPanicsOnBadConfig(t *testing.T) {
	for _, f := range []func(){
		func() { NewGshare(0, 8) },
		func() { NewGshare(10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCacheGeometryErrors(t *testing.T) {
	cases := [][3]int{
		{0, 8, 64},          // zero size
		{1024, 8, 63},       // non-power-of-two line
		{8, 8, 1},           // one-byte line
		{192, 8, 64},        // not divisible into sets
		{3 * 64 * 8, 8, 64}, // sets not power of two
	}
	for _, c := range cases {
		if _, err := NewCache(c[0], c[1], c[2]); err == nil {
			t.Fatalf("geometry %v should be rejected", c)
		}
	}
}

func TestCacheHitAfterFill(t *testing.T) {
	c := MustCache(1024, 2, 64)
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1020) {
		t.Fatal("same-line access missed")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache: fill a set with two lines, touch the first, then
	// insert a third. The second (LRU) must be evicted.
	c := MustCache(2*64*4, 2, 64) // 4 sets, 2 ways
	setStride := uint64(4 * 64)   // same set every stride
	a, b2, d := uint64(0), setStride, 2*setStride
	c.Access(a)
	c.Access(b2)
	c.Access(a) // a is MRU
	c.Access(d) // evicts b2
	if !c.Access(a) {
		t.Fatal("MRU line evicted")
	}
	if c.Access(b2) {
		t.Fatal("LRU line survived")
	}
}

func TestCacheWorkingSetBehaviour(t *testing.T) {
	c := MustCache(32<<10, 8, 64)
	// A working set within capacity: near-perfect hits after warmup.
	miss := 0
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < 16<<10; a += 64 {
			if !c.Access(a) && pass > 0 {
				miss++
			}
		}
	}
	if miss != 0 {
		t.Fatalf("in-capacity working set missed %d times after warmup", miss)
	}
	// A streaming working set far beyond capacity: ~all misses.
	c.Reset()
	misses := 0
	n := 0
	for a := uint64(0); a < 4<<20; a += 64 {
		if !c.Access(a) {
			misses++
		}
		n++
	}
	if misses != n {
		t.Fatalf("streaming scan hit %d times", n-misses)
	}
}

func TestHierarchyL2FiltersL1Misses(t *testing.T) {
	h := NewDefaultHierarchy()
	// Working set bigger than L1 (32K) but within L2 (256K): after
	// warmup, L1 misses should mostly hit in L2.
	var l1m, l2m int
	for pass := 0; pass < 3; pass++ {
		for a := uint64(0); a < 128<<10; a += 64 {
			m1, m2 := h.Access(a)
			if pass == 2 {
				if m1 {
					l1m++
				}
				if m2 {
					l2m++
				}
			}
		}
	}
	if l1m == 0 {
		t.Fatal("expected L1 misses for 128K working set")
	}
	if l2m != 0 {
		t.Fatalf("L2 missed %d times on an in-L2 working set", l2m)
	}
}

func TestPipelineProcess(t *testing.T) {
	p := NewDefaultPipeline()
	out := p.Process(&trace.Event{Op: isa.JCC, PC: 0x400000, Taken: true})
	if !out.IsBranch || !out.Taken {
		t.Fatalf("branch outcome wrong: %+v", out)
	}
	out = p.Process(&trace.Event{Op: isa.MOVLD, PC: 0x400010, Addr: 0x10000001})
	if !out.IsMem || !out.Unaligned || !out.L1Miss {
		t.Fatalf("memory outcome wrong: %+v", out)
	}
	out = p.Process(&trace.Event{Op: isa.MOVLD, PC: 0x400010, Addr: 0x10000004})
	if out.Unaligned || out.L1Miss {
		t.Fatalf("aligned warm access wrong: %+v", out)
	}
	out = p.Process(&trace.Event{Op: isa.ADD, PC: 0x400020})
	if out.IsBranch || out.IsMem {
		t.Fatalf("ALU op produced µarch events: %+v", out)
	}
}

func TestPipelineResetIsolation(t *testing.T) {
	p := NewDefaultPipeline()
	for a := uint64(0); a < 8<<10; a += 64 {
		p.Process(&trace.Event{Op: isa.MOVLD, Addr: 0x20000000 + a})
	}
	p.Reset()
	out := p.Process(&trace.Event{Op: isa.MOVLD, Addr: 0x20000000})
	if !out.L1Miss {
		t.Fatal("reset did not invalidate cache")
	}
}

func BenchmarkPipelineProcess(b *testing.B) {
	p := NewDefaultPipeline()
	evs := []trace.Event{
		{Op: isa.MOVLD, Addr: 0x20000040},
		{Op: isa.JCC, PC: 0x400100, Taken: true},
		{Op: isa.ADD},
		{Op: isa.MOVST, Addr: 0x20001000},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Process(&evs[i%len(evs)])
	}
}
