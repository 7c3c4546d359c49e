// Package trace executes synthetic programs and emits their dynamic
// instruction stream.
//
// This is the reproduction's substitute for the paper's Pin-based dynamic
// instrumentation inside a Windows VM (§3): it walks the program CFG,
// resolves branch outcomes from the program's deterministic seed, and
// produces per-instruction events (opcode, PC, effective address, branch
// outcome) that downstream consumers — the µarch simulators in
// internal/uarch and the feature extractors in internal/features —
// aggregate exactly like the paper's hardware counters would.
//
// Execution is deterministic given prog.Program.Seed, so "running the
// same program on the attacker's machine" (the paper's threat model)
// reproduces the identical stream.
package trace

import (
	"fmt"
	"math"

	"rhmd/internal/isa"
	"rhmd/internal/prog"
	"rhmd/internal/rng"
)

// Event is one dynamically executed instruction.
type Event struct {
	Op   isa.Op
	PC   uint64
	Addr uint64 // effective address; valid only if Op touches memory
	// Taken and Target are valid only for conditional branches.
	Taken    bool
	Target   uint64
	Injected bool
}

// Sink consumes the dynamic stream. Exec calls it once per executed
// instruction, in order.
type Sink interface {
	Event(e *Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(e *Event)

// Event calls f(e).
func (f SinkFunc) Event(e *Event) { f(e) }

// Config bounds an execution.
type Config struct {
	// MaxInstructions is the instruction budget (paper: 15M committed
	// instructions; our default corpus uses shorter traces, see
	// DESIGN.md). Must be positive.
	MaxInstructions int
	// BudgetOriginalOnly makes the budget count only non-injected
	// instructions. The evasion-overhead experiment (paper Figure 9)
	// uses it to compare "same useful work" executions: the dynamic
	// overhead is Stats.Injected / Stats.Original.
	BudgetOriginalOnly bool
}

// maxCallDepth bounds the simulated call stack; deeper calls are
// elided (the call event is still emitted).
const maxCallDepth = 64

// Stats summarizes an execution.
type Stats struct {
	Total    int // all executed instructions
	Injected int // executed instructions marked Injected
	Loads    int
	Stores   int
	Branches int
	Taken    int
	Calls    int
	Returns  int
	Restarts int // times the entry function returned and execution wrapped
}

// Original returns the number of executed non-injected instructions.
func (s Stats) Original() int { return s.Total - s.Injected }

// count records one executed instruction.
func (s *Stats) count(e *Event) {
	s.Total++
	if e.Injected {
		s.Injected++
	}
	if e.Op.IsLoad() {
		s.Loads++
	}
	if e.Op.IsStore() {
		s.Stores++
	}
}

// used returns the executed instructions an Exec budget counts: all of
// them, or with originalOnly the non-injected ones.
func (s *Stats) used(originalOnly bool) int {
	if originalOnly {
		return s.Original()
	}
	return s.Total
}

// DynamicOverhead returns the relative execution-time increase caused by
// injected instructions (paper Figure 9's dynamic overhead), assuming a
// unit cost per instruction.
func (s Stats) DynamicOverhead() float64 {
	if o := s.Original(); o > 0 {
		return float64(s.Injected) / float64(o)
	}
	return 0
}

// memState holds the per-execution memory-address generators, one cursor
// per pattern plus the pointer-chase and stack state. Regions are
// disjoint so cross-pattern deltas land in large histogram bins while
// within-pattern deltas stay characteristic.
type memState struct {
	r        *rng.Source
	cfg      prog.MemConfig
	seqCur   [3]uint64 // seq1, seq8, seq64 cursors
	chaseCur uint64
	sp       uint64
	last     uint64 // last effective address, for MemFixed deltas
}

// Region bases for the synthetic address space.
const (
	seqBase      = 0x1000_0000
	randSmallBas = 0x2000_0000
	randLargeBas = 0x3000_0000
	chaseBase    = 0x4000_0000
	stackTop     = 0x7fff_0000
	stackSpan    = 1 << 20
)

func newMemState(r *rng.Source, cfg prog.MemConfig) *memState {
	m := &memState{r: r, cfg: cfg, sp: stackTop, chaseCur: chaseBase}
	for i := range m.seqCur {
		m.seqCur[i] = seqBase + uint64(i)<<26
	}
	m.last = randSmallBas
	return m
}

// addr produces the effective address for one memory instruction.
func (m *memState) addr(op isa.Op, spec prog.MemSpec) uint64 {
	var a uint64
	switch spec.Pattern {
	case prog.MemSeq1:
		m.seqCur[0]++
		if m.seqCur[0] >= seqBase+uint64(m.cfg.WSLarge) {
			m.seqCur[0] = seqBase
		}
		a = m.seqCur[0]
	case prog.MemSeq8:
		m.seqCur[1] += 8
		if m.seqCur[1] >= seqBase+(1<<26)+uint64(m.cfg.WSLarge) {
			m.seqCur[1] = seqBase + 1<<26
		}
		a = m.seqCur[1]
	case prog.MemSeq64:
		m.seqCur[2] += 64
		if m.seqCur[2] >= seqBase+(2<<26)+uint64(m.cfg.WSLarge) {
			m.seqCur[2] = seqBase + 2<<26
		}
		a = m.seqCur[2]
	case prog.MemRandSmall:
		a = randSmallBas + uint64(m.r.Intn(m.cfg.WSSmall))&^7
	case prog.MemRandLarge:
		a = randLargeBas + uint64(m.r.Intn(m.cfg.WSLarge))&^7
	case prog.MemChase:
		// Dependent pseudo-random walk (LCG over the working set).
		off := (m.chaseCur*6364136223846793005 + 1442695040888963407) % uint64(m.cfg.WSLarge)
		m.chaseCur = chaseBase + off&^7
		a = m.chaseCur
	case prog.MemStack:
		if op.IsStore() { // push-like
			m.sp -= 8
			if m.sp < stackTop-stackSpan {
				m.sp = stackTop - 8
			}
			a = m.sp
		} else { // pop-like
			a = m.sp
			m.sp += 8
			if m.sp > stackTop {
				m.sp = stackTop
			}
		}
	case prog.MemFixed:
		a = uint64(int64(m.last) + int64(spec.Delta))
	default:
		// MemNone on a memory op is rejected by Validate; be defensive.
		a = randSmallBas
	}
	// Model the program's propensity for unaligned accesses. Stack and
	// fixed-delta accesses keep their exact addresses (fixed deltas are
	// attacker-controlled).
	if spec.Pattern != prog.MemStack && spec.Pattern != prog.MemFixed && spec.Pattern != prog.MemSeq1 {
		if m.cfg.UnalignedFrac > 0 && m.r.Bool(m.cfg.UnalignedFrac) {
			a += uint64(1 + m.r.Intn(3))
		}
	}
	m.last = a
	return a
}

// frame is one simulated call-stack entry.
type frame struct {
	fn, block int
}

// Exec runs p under cfg, delivering every executed instruction to sink.
// It returns execution statistics. sink may be nil to run for statistics
// only. Exec never mutates p.
func Exec(p *prog.Program, cfg Config, sink Sink) (Stats, error) {
	if cfg.MaxInstructions <= 0 {
		return Stats{}, fmt.Errorf("trace: MaxInstructions must be positive, got %d", cfg.MaxInstructions)
	}
	if err := p.Validate(); err != nil {
		return Stats{}, fmt.Errorf("trace: %w", err)
	}
	r := rng.NewKeyed(p.Seed, "trace")
	mem := newMemState(rng.NewKeyed(p.Seed, "mem"), p.Mem)

	// Live trip counters for counted loops, indexed by global block id
	// (first[fi]+bi): the trips still to take plus one, 0 when no entry
	// of the loop is live.
	first := make([]int, len(p.Funcs))
	for i := 1; i < len(p.Funcs); i++ {
		first[i] = first[i-1] + len(p.Funcs[i-1].Blocks)
	}
	loops := make([]int, p.NumBlocks())

	var st Stats
	var stack []frame
	fi, bi := 0, 0
	var ev Event
	for st.used(cfg.BudgetOriginalOnly) < cfg.MaxInstructions {
		f := p.Funcs[fi]
		b := f.Blocks[bi]
		pc := b.Addr
		for i := range b.Body {
			ins := &b.Body[i]
			ev = Event{Op: ins.Op, PC: pc, Injected: ins.Injected}
			if ins.Op.IsMem() {
				ev.Addr = mem.addr(ins.Op, ins.Mem)
			}
			st.count(&ev)
			if sink != nil {
				sink.Event(&ev)
			}
			pc += uint64(ins.Op.Bytes())
			if st.used(cfg.BudgetOriginalOnly) >= cfg.MaxInstructions {
				return st, nil
			}
		}

		t := b.Term
		if op, ok := t.Op(); ok {
			ev = Event{Op: op, PC: pc}
			switch t.Kind {
			case prog.TermBranch:
				st.Branches++
				ev.Taken = r.Bool(t.TakenProb)
				ev.Target = f.Blocks[t.Target].Addr
				if ev.Taken {
					st.Taken++
				}
			case prog.TermLoop:
				st.Branches++
				id := first[fi] + bi
				left := loops[id] - 1
				if left < 0 {
					// Fresh loop entry: draw this entry's trip count.
					left = int(r.LogNorm(logMean(t.IterMean), 0.6))
					if left < 1 {
						left = 1
					}
				}
				ev.Target = f.Blocks[t.Target].Addr
				if left > 0 {
					ev.Taken = true
					st.Taken++
					loops[id] = left // left-1 trips remain after this one
				} else {
					loops[id] = 0
				}
			case prog.TermCall:
				st.Calls++
				ev.Addr = mem.addr(isa.CALLN, prog.MemSpec{Pattern: prog.MemStack})
			case prog.TermRet:
				st.Returns++
				ev.Addr = mem.addr(isa.RET, prog.MemSpec{Pattern: prog.MemStack})
			}
			st.count(&ev)
			if sink != nil {
				sink.Event(&ev)
			}
		}

		// Advance control flow.
		switch t.Kind {
		case prog.TermFall:
			bi++
		case prog.TermJump:
			bi = t.Target
		case prog.TermBranch, prog.TermLoop:
			if ev.Taken {
				bi = t.Target
			} else {
				bi++
			}
		case prog.TermCall:
			if len(stack) < maxCallDepth {
				stack = append(stack, frame{fn: fi, block: bi + 1})
				fi, bi = t.Callee, 0
			} else {
				bi++ // elide the call body, keep going
			}
		case prog.TermRet:
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				fi, bi = top.fn, top.block
			} else {
				// Entry function returned: the program is a long-running
				// process, restart it.
				st.Restarts++
				fi, bi = 0, 0
			}
		}
	}
	return st, nil
}

// logMean converts a mean trip count to the log-normal location
// parameter used for per-entry draws.
func logMean(mean float64) float64 {
	if mean < 1 {
		mean = 1
	}
	return math.Log(mean)
}
