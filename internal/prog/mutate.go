package prog

import (
	"fmt"

	"rhmd/internal/isa"
)

// InjectLevel selects where the evasion framework inserts instructions,
// matching the paper's two strategies (§5): "Block level: insert
// instructions before every control flow altering instruction" and
// "Function level: we insert instructions before every return
// instruction".
type InjectLevel uint8

// Injection levels.
const (
	// BlockLevel injects before every control-flow-altering terminator
	// (jump, branch, call, ret). Fall-through blocks have no control
	// instruction and are left untouched.
	BlockLevel InjectLevel = iota
	// FunctionLevel injects only before return instructions.
	FunctionLevel
)

// String names the injection level.
func (l InjectLevel) String() string {
	if l == FunctionLevel {
		return "function"
	}
	return "block"
}

// Payload is the instruction sequence an evasion strategy inserts at each
// injection site. Build one with NewPayload to get memory specs that keep
// injected instructions semantically neutral and give the attacker
// control over the memory-delta feature (paper §5: "insertion of load and
// store instructions with controlled distances").
type Payload []Instruction

// NewPayload builds an injection payload from opcodes. Memory opcodes are
// given a fixed-delta address spec so the attacker controls which
// memory-histogram bin they land in; delta applies to all memory ops in
// the payload. Non-injectable opcodes and a delta outside int32 are
// rejected.
func NewPayload(ops []isa.Op, memDelta int64) (Payload, error) {
	if memDelta != int64(int32(memDelta)) {
		return nil, fmt.Errorf("prog: memory delta %d outside int32", memDelta)
	}
	p := make(Payload, 0, len(ops))
	for _, op := range ops {
		if !op.Injectable() {
			return nil, fmt.Errorf("prog: opcode %s is not semantically neutral to inject", op)
		}
		ins := Instruction{Op: op, Injected: true}
		if op.IsMem() {
			ins.Mem = MemSpec{Pattern: MemFixed, Delta: int32(memDelta)}
		}
		p = append(p, ins)
	}
	return p, nil
}

// Inject returns a deep copy of p with the payload inserted before every
// injection site at the given level. The returned program is re-laid-out
// so static sizes reflect the inserted code, and its Generation counter is
// incremented. The original is never modified.
func Inject(p *Program, payload Payload, level InjectLevel) *Program {
	q := p.Clone()
	q.Generation = p.Generation + 1
	for _, f := range q.Funcs {
		for _, b := range f.Blocks {
			if !siteMatches(b.Term, level) {
				continue
			}
			body := make([]Instruction, 0, len(b.Body)+len(payload))
			body = append(body, b.Body...)
			body = append(body, payload...)
			b.Body = body
		}
	}
	q.Layout()
	return q
}

// siteMatches reports whether a terminator is an injection site for the
// level.
func siteMatches(t Terminator, level InjectLevel) bool {
	switch level {
	case FunctionLevel:
		return t.Kind == TermRet
	default:
		_, hasOp := t.Op()
		return hasOp
	}
}

// InjectionSites counts the static injection sites at a level; the
// expected static overhead of a payload is sites × payload bytes.
func InjectionSites(p *Program, level InjectLevel) int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if siteMatches(b.Term, level) {
				n++
			}
		}
	}
	return n
}

// StaticOverhead returns the relative growth of the program text segment
// of modified versus original (paper Figure 9's static overhead).
func StaticOverhead(original, modified *Program) float64 {
	ob := original.StaticBytes()
	if ob == 0 {
		return 0
	}
	return float64(modified.StaticBytes()-ob) / float64(ob)
}

// InjectedCount returns the number of injected static instructions in p.
func InjectedCount(p *Program) int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, ins := range b.Body {
				if ins.Injected {
					n++
				}
			}
		}
	}
	return n
}
