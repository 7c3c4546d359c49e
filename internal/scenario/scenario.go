// Package scenario is the seeded, declarative corpus DSL perfbench
// compiles its workloads from. A Spec names a program population, a
// steady arrival rate and an adversary mix whose evasive fraction ramps
// over the event sequence. Compile turns the Spec into a replayable
// Corpus: a fixed event sequence — program, inter-arrival delay,
// routing stream — that is a pure function of the Spec. Identical Specs
// compile to identical corpora (the determinism analyzer covers this
// package), so a benchmark run names the exact workload it measured via
// the corpus fingerprint.
package scenario

import (
	"fmt"
	"time"

	"rhmd/internal/dataset"
	"rhmd/internal/isa"
	"rhmd/internal/prog"
	"rhmd/internal/rng"
)

// ShapeKind selects the traffic shape. Steady is the only one.
type ShapeKind uint8

// Steady paces events at a fixed rate (Shape.Rate events/second); each
// event rides its own routing stream, spreading uniformly over shards.
const Steady ShapeKind = 0

// Shape parameterizes the traffic shape.
type Shape struct {
	// Kind is Steady, the only shape.
	Kind ShapeKind
	// Rate is the event rate in events/second. 0 means unpaced: every
	// delay is zero.
	Rate float64
}

// Adversary mixes evasive variants into the event sequence. The
// evasive fraction ramps linearly from Start at the first event to End
// at the last, modelling an attacker ramping up a campaign mid-run;
// each event's evasive/clean decision is a seeded draw against the
// ramped fraction at its index. Evasive events replay a variant of
// their base program with the payload injected at block level
// (prog.Inject at prog.BlockLevel: a deep clone, Generation+1), built
// once per base program.
type Adversary struct {
	// Start and End bound the linear evasive-fraction ramp, both in
	// [0, 1]. Zero both to run a clean corpus.
	Start, End float64
	// PayloadLen is the number of injected instructions per site
	// (default 4).
	PayloadLen int
	// MemDelta is the fixed memory-op delta of the payload, steering
	// which memory-histogram bin the injected loads land in.
	MemDelta int64
}

// Spec is one named, fully seeded scenario. Everything a run needs is
// in the Spec; Compile is a pure function of it.
type Spec struct {
	Name string
	// Seed derives every random decision in the compiled corpus: the
	// base program population and the evasive draws.
	Seed uint64
	// Events is the number of submissions in the compiled sequence
	// (default 128). Base programs are drawn round-robin from the
	// generated population, renamed per event.
	Events int
	// Corpus sizes the base program population. Zero-value fields are
	// filled with a small smoke-scale default; Corpus.Seed is always
	// overwritten with Spec.Seed.
	Corpus dataset.Config
	Shape  Shape
	// Adversary mixes evasive variants into the sequence.
	Adversary Adversary
}

// Event is one submission in a compiled corpus: the program (uniquely
// named "<stream>#<base>-<index>", so fleet routing keys on the stream
// while every submission stays individually attributable in reports),
// the delay to wait after the previous event before submitting, and
// whether this event replays an evasive variant.
type Event struct {
	Program *prog.Program
	// Delay is the inter-arrival gap before this event (zero for the
	// first event and when unpaced).
	Delay time.Duration
	// Stream is the fleet routing key (fleet.StreamKey(Program.Name)).
	Stream string
	// Evasive marks events that replay an injected variant.
	Evasive bool
}

// Corpus is a compiled, replayable scenario: submit Events in order,
// honouring Delays.
type Corpus struct {
	Spec   Spec
	Events []Event
}

// normalize fills defaulted Spec fields. It returns a copy; Specs are
// value types and callers keep theirs.
func (s Spec) normalize() Spec {
	if s.Events <= 0 {
		s.Events = 128
	}
	if s.Corpus.BenignPerFamily <= 0 {
		s.Corpus.BenignPerFamily = 2
	}
	if s.Corpus.MalwarePerFamily <= 0 {
		s.Corpus.MalwarePerFamily = 3
	}
	if s.Corpus.TraceLen < 1000 {
		s.Corpus.TraceLen = 40_000
	}
	s.Corpus.Seed = s.Seed
	if s.Adversary.PayloadLen <= 0 {
		s.Adversary.PayloadLen = 4
	}
	return s
}

// Validate reports Spec errors a Compile would otherwise surface late.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: unnamed spec")
	}
	if s.Adversary.Start < 0 || s.Adversary.Start > 1 || s.Adversary.End < 0 || s.Adversary.End > 1 {
		return fmt.Errorf("scenario %s: evasive fractions must be in [0,1] (start %v, end %v)",
			s.Name, s.Adversary.Start, s.Adversary.End)
	}
	return nil
}

// Compile turns a Spec into its replayable Corpus. The result is a
// pure function of the Spec: same Spec (and therefore same Seed), same
// event sequence, same program bytes, same fingerprint — across
// processes and architectures.
func Compile(spec Spec) (*Corpus, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.normalize()

	base, err := dataset.Build(spec.Corpus)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}

	// One evasive variant per base program, built lazily: prog.Inject
	// deep-clones and re-lays-out, so only programs an evasive event
	// actually draws pay for it. Indexed by population position — never
	// a map, so there is no iteration-order hazard.
	var payload prog.Payload
	if spec.Adversary.Start > 0 || spec.Adversary.End > 0 {
		payload, err = buildPayload(spec.Adversary)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
		}
	}
	evasive := make([]*prog.Program, len(base.Programs))

	// The evasive draws ride their own keyed stream, so no other
	// decision can shift them.
	evR := rng.NewKeyed(spec.Seed, "scenario-evasive/"+spec.Name)

	c := &Corpus{Spec: spec, Events: make([]Event, 0, spec.Events)}
	for i := 0; i < spec.Events; i++ {
		p := base.Programs[i%len(base.Programs)]
		pi := i % len(base.Programs)

		ev := evasiveAt(spec.Adversary, i, spec.Events, evR)
		if ev {
			if evasive[pi] == nil {
				evasive[pi] = prog.Inject(p, payload, prog.BlockLevel)
			}
			p = evasive[pi]
		}

		stream := fmt.Sprintf("s%05d", i)
		// Shallow copy: Funcs/Mem are shared with the base (the engine
		// never mutates a submitted program), only identity differs.
		ren := *p
		ren.Name = fmt.Sprintf("%s#%s-%05d", stream, p.Name, i)
		c.Events = append(c.Events, Event{
			Program: &ren,
			Delay:   delayFor(spec.Shape, i),
			Stream:  stream,
			Evasive: ev,
		})
	}
	return c, nil
}

// buildPayload assembles the adversary's injection payload: alternating
// ALU and load ops (the classic pattern from the paper's §5 evasion
// strategies — perturb both the instruction mix and the memory
// histogram), sized to PayloadLen.
func buildPayload(a Adversary) (prog.Payload, error) {
	ops := make([]isa.Op, 0, a.PayloadLen)
	candidates := isa.Injectable()
	alu, mem := candidates[:0:0], candidates[:0:0]
	for _, op := range candidates {
		if op.IsMem() {
			mem = append(mem, op)
		} else {
			alu = append(alu, op)
		}
	}
	for i := 0; i < a.PayloadLen; i++ {
		if i%2 == 1 && len(mem) > 0 {
			ops = append(ops, mem[i%len(mem)])
		} else {
			ops = append(ops, alu[i%len(alu)])
		}
	}
	return prog.NewPayload(ops, a.MemDelta)
}

// evasiveAt draws event i's evasive decision against the linearly
// ramped fraction. The draw stream is consumed for every event so the
// decision at index i does not depend on the ramp endpoints — only the
// threshold does.
func evasiveAt(a Adversary, i, n int, r *rng.Source) bool {
	u := r.Float64()
	if a.Start == 0 && a.End == 0 {
		return false
	}
	t := 0.0
	if n > 1 {
		t = float64(i) / float64(n-1)
	}
	frac := a.Start + (a.End-a.Start)*t
	return u < frac
}

// delayFor computes event i's inter-arrival delay from its index alone
// — no clocks, no state — so a compiled corpus replays with the same
// pacing everywhere.
func delayFor(sh Shape, i int) time.Duration {
	if i == 0 || sh.Rate <= 0 {
		return 0
	}
	return time.Duration(float64(time.Second) / sh.Rate)
}

// Fingerprint folds the compiled event sequence — names, program
// seeds, generations, delays, streams, evasive bits — into one 64-bit
// FNV-1a value. Two corpora with the same fingerprint replay the same
// workload; perfbench prints it as the provenance of every run.
func (c *Corpus) Fingerprint() uint64 {
	h := uint64(1469598103934665603)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= 0xff // field separator
		h *= 1099511628211
	}
	mixU := func(v uint64) {
		for sh := 0; sh < 64; sh += 8 {
			h ^= (v >> sh) & 0xff
			h *= 1099511628211
		}
	}
	mix(c.Spec.Name)
	mixU(c.Spec.Seed)
	for _, e := range c.Events {
		mix(e.Program.Name)
		mixU(e.Program.Seed)
		mixU(uint64(e.Program.Generation))
		mixU(uint64(e.Delay))
		mix(e.Stream)
		if e.Evasive {
			mixU(1)
		} else {
			mixU(0)
		}
	}
	return h
}
