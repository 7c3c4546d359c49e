package features

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"rhmd/internal/isa"
	"rhmd/internal/prog"
	"rhmd/internal/rng"
	"rhmd/internal/trace"
)

// kernelGolden is the FNV-64a digest of everything the trace → µarch →
// feature kernel produces over goldenCorpus: trace.Exec statistics in
// both budget modes, every window bound and the bits of every feature
// value of Extract and ExtractScheduled. Any change to the kernel that
// moves a single feature bit changes it.
const (
	kernelGolden       = 0xb1df507c832c63b3
	kernelGoldenValues = 691880
)

// goldenCorpus returns two seeded programs per family plus a
// block-level and a function-level evasive variant of each (the two
// injection strategies of paper §5, with memory ops at attacker-chosen
// deltas).
func goldenCorpus(t *testing.T) []*prog.Program {
	t.Helper()
	block, err := prog.NewPayload([]isa.Op{isa.MOVLD, isa.ADD, isa.MOVST, isa.NOP}, 64)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := prog.NewPayload([]isa.Op{isa.XOR, isa.FMOVLD, isa.MOVRR, isa.MOVSTI}, -4096)
	if err != nil {
		t.Fatal(err)
	}
	var out []*prog.Program
	for i := range 2 * len(prog.AllFamilies()) {
		p := genProgram(t, i, uint64(1000+i))
		out = append(out, p, prog.Inject(p, block, prog.BlockLevel), prog.Inject(p, fn, prog.FunctionLevel))
	}
	return out
}

type goldenHash struct {
	h      hash.Hash64
	values int
	buf    [8]byte
}

func (g *goldenHash) int(v int) {
	binary.LittleEndian.PutUint64(g.buf[:], uint64(int64(v)))
	g.h.Write(g.buf[:])
}

func (g *goldenHash) windows(ws *WindowSet) {
	g.int(ws.Period)
	g.int(ws.Windows)
	for _, b := range ws.Bounds {
		g.int(b[0])
		g.int(b[1])
	}
	for _, rows := range ws.Vectors {
		for _, row := range rows {
			for _, v := range row {
				binary.LittleEndian.PutUint64(g.buf[:], math.Float64bits(v))
				g.h.Write(g.buf[:])
				g.values++
			}
		}
	}
}

func TestKernelGolden(t *testing.T) {
	g := &goldenHash{h: fnv.New64a()}
	for _, size := range []struct{ instr, period int }{{4_000, 500}, {40_000, 1_000}} {
		periods := []int{size.period / 4, size.period / 2, size.period, 2 * size.period}
		for i, p := range goldenCorpus(t) {
			for _, origOnly := range []bool{false, true} {
				st, err := trace.Exec(p, trace.Config{MaxInstructions: size.instr, BudgetOriginalOnly: origOnly}, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range []int{st.Total, st.Injected, st.Loads, st.Stores, st.Branches,
					st.Taken, st.Calls, st.Returns, st.Restarts} {
					g.int(v)
				}
			}
			ws, err := Extract(p, size.period, size.instr)
			if err != nil {
				t.Fatal(err)
			}
			g.windows(ws)
			r := rng.New(uint64(size.instr + i))
			ws, err = ExtractScheduled(p, func() int { return periods[r.Intn(len(periods))] }, size.instr)
			if err != nil {
				t.Fatal(err)
			}
			g.windows(ws)
		}
	}
	if got := g.h.Sum64(); got != kernelGolden || g.values != kernelGoldenValues {
		t.Fatalf("kernel digest %#x over %d feature values, want %#x over %d: "+
			"trace, µarch or feature output changed", got, g.values, uint64(kernelGolden), kernelGoldenValues)
	}
}
