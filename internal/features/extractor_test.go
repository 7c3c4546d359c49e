package features

import (
	"math"
	"testing"

	"rhmd/internal/isa"
	"rhmd/internal/prog"
	"rhmd/internal/rng"
	"rhmd/internal/trace"
)

// sameSet fails unless got holds exactly want's windows: the count,
// every bound and the bits of every value.
func sameSet(t *testing.T, what string, got, want *WindowSet) {
	t.Helper()
	if got.Period != want.Period || got.Windows != want.Windows || len(got.Bounds) != len(want.Bounds) {
		t.Fatalf("%s: period %d, %d windows, %d bounds; fresh extraction has %d, %d and %d",
			what, got.Period, got.Windows, len(got.Bounds), want.Period, want.Windows, len(want.Bounds))
	}
	for i := range want.Bounds {
		if got.Bounds[i] != want.Bounds[i] {
			t.Fatalf("%s: window %d bounds %v, fresh extraction has %v", what, i, got.Bounds[i], want.Bounds[i])
		}
	}
	for k := range want.Vectors {
		if len(got.Vectors[k]) != len(want.Vectors[k]) {
			t.Fatalf("%s: %v has %d rows, fresh extraction has %d", what, Kind(k), len(got.Vectors[k]), len(want.Vectors[k]))
		}
		for i, row := range want.Vectors[k] {
			if len(got.Vectors[k][i]) != len(row) {
				t.Fatalf("%s: %v row %d has %d values, fresh extraction has %d", what, Kind(k), i, len(got.Vectors[k][i]), len(row))
			}
			for j, v := range row {
				if g := got.Vectors[k][i][j]; math.Float64bits(g) != math.Float64bits(v) {
					t.Fatalf("%s: %v row %d value %d is %v, fresh extraction has %v", what, Kind(k), i, j, g, v)
				}
			}
		}
	}
}

// noMemProgram is an endless loop of ALU and move ops with a
// conditional branch and a jump: it commits no memory reference (it
// never returns, and a return pops the stack), so every memory row is
// zero.
func noMemProgram() *prog.Program {
	body := []prog.Instruction{{Op: isa.ADD}, {Op: isa.XOR}, {Op: isa.MOVRR}, {Op: isa.NOP}}
	p := &prog.Program{Name: "no-mem", Seed: 5, Funcs: []*prog.Function{{Blocks: []*prog.BasicBlock{
		{Body: body, Term: prog.Terminator{Kind: prog.TermBranch, Target: 0, TakenProb: 0.7}},
		{Body: body[:1], Term: prog.Terminator{Kind: prog.TermJump, Target: 0}},
	}}}}
	p.Layout()
	return p
}

// TestExtractorReuseMatchesFresh: one Extractor serving a run of
// programs yields, call after call, the bits a fresh ExtractScheduled
// yields — across trace lengths that grow and shrink its rows, for a
// program without memory references after one with them, and after a
// call whose schedule panicked.
func TestExtractorReuseMatchesFresh(t *testing.T) {
	var ext Extractor
	// check extracts p with ext and with a fresh extractor, each under
	// its own copy of the schedule seed draws from periods, and returns
	// the fresh set.
	check := func(what string, p *prog.Program, seed uint64, periods []int, instr int) *WindowSet {
		t.Helper()
		draw := func() func() int {
			r := rng.New(seed)
			return func() int { return periods[r.Intn(len(periods))] }
		}
		want, err := ExtractScheduled(p, draw(), instr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ext.Scheduled(p, draw(), instr)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, what, got, want)
		return want
	}

	// TestKernelGolden's schedules, at 40k, then 4k, then 40k again.
	corpus := goldenCorpus(t)
	for _, size := range []struct{ instr, period int }{{40_000, 1_000}, {4_000, 500}, {40_000, 1_000}} {
		periods := []int{size.period / 4, size.period / 2, size.period, 2 * size.period}
		for i, p := range corpus {
			check(p.Name, p, uint64(size.instr+i), periods, size.instr)
		}
	}

	// The last corpus program has memory references; this one has none.
	for i, row := range check("no-mem", noMemProgram(), 1, []int{500}, 4_000).Rows(Memory) {
		for _, v := range row {
			if v != 0 {
				t.Fatalf("no-mem: memory row %d is %v, want zeros", i, row)
			}
		}
	}

	// A schedule that panics mid-trace leaves ext dirty; the next call
	// must not see it.
	windows := 0
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the panicking schedule did not panic")
			}
		}()
		_, _ = ext.Scheduled(corpus[1], func() int {
			if windows++; windows > 3 {
				panic("schedule failed")
			}
			return 1_000
		}, 40_000)
	}()
	check("after a panic", corpus[2], 7, []int{250, 500, 1_000, 2_000}, 40_000)
}

// TestExtractorSteadyStateAllocs: a warm Extractor allocates no more per
// call than the trace it consumes — the pipeline and every row are
// reused.
func TestExtractorSteadyStateAllocs(t *testing.T) {
	p := genProgram(t, 0, 1)
	lens := []int{1000, 1500, 2000}
	for _, instr := range []int{4_000, 40_000} {
		cfg := trace.Config{MaxInstructions: instr}
		execAllocs := testing.AllocsPerRun(20, func() {
			if _, err := trace.Exec(p, cfg, nil); err != nil {
				t.Fatal(err)
			}
		})
		var ext Extractor
		k := 0
		next := func() int { k++; return lens[k%len(lens)] }
		extAllocs := testing.AllocsPerRun(20, func() {
			if _, err := ext.Scheduled(p, next, instr); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d instructions: %v allocations per call, trace.Exec alone %v", instr, extAllocs, execAllocs)
		if extAllocs > execAllocs {
			t.Errorf("%d instructions: a warm Extractor made %v allocations per call, trace.Exec alone %v",
				instr, extAllocs, execAllocs)
		}
	}
}
