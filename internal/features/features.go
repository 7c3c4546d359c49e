// Package features turns dynamic instruction streams into the per-window
// feature vectors the paper's detectors consume (§3):
//
//   - Instructions: executed opcode frequencies. The paper selects "the
//     instructions that show the most different frequency (delta) between
//     normal programs and malware in the training set"; extraction keeps
//     the full opcode histogram and TopDeltaIndices performs that
//     training-set-dependent selection.
//   - Memory: a histogram of memory-reference address deltas "organized
//     in bins based on the address difference between consecutive memory
//     accesses".
//   - Architectural: counts of architectural events per window (taken
//     branches, mispredictions, cache misses, unaligned accesses, ...).
//
// A feature vector is computed over a collection window of a fixed number
// of committed instructions (the paper's classification period, typically
// 10K).
package features

import (
	"fmt"
	"math"
	"math/bits"

	"rhmd/internal/isa"
	"rhmd/internal/prog"
	"rhmd/internal/trace"
	"rhmd/internal/uarch"
)

// Kind identifies one of the three feature-vector families.
type Kind uint8

// Feature kinds.
const (
	Instructions Kind = iota
	Memory
	Architectural
	numKinds
)

// NumKinds is the number of feature families.
const NumKinds = int(numKinds)

// AllKinds lists every feature family.
func AllKinds() []Kind { return []Kind{Instructions, Memory, Architectural} }

var kindNames = [...]string{"instructions", "memory", "architectural"}

// String returns the paper's name for the feature family.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind resolves a feature-family name.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("features: unknown kind %q", s)
}

// MemBins is the number of log2 address-delta histogram bins.
const MemBins = 24

// Architectural event vector layout.
const (
	ArchTakenBranches = iota
	ArchBranches
	ArchMispredicts
	ArchL1Misses
	ArchL2Misses
	ArchUnaligned
	ArchLoads
	ArchStores
	ArchCalls
	ArchReturns
	ArchSyscalls
	ArchStackOps
	ArchDim
)

var archNames = [ArchDim]string{
	"taken-branches", "branches", "mispredicts", "l1-misses", "l2-misses",
	"unaligned", "loads", "stores", "calls", "returns", "syscalls", "stack-ops",
}

// Dim returns the dimensionality of the kind's raw vectors.
func (k Kind) Dim() int {
	switch k {
	case Instructions:
		return isa.NumOps
	case Memory:
		return MemBins
	case Architectural:
		return ArchDim
	}
	panic(fmt.Sprintf("features: invalid kind %d", uint8(k)))
}

// Names returns human-readable component names for the kind.
func (k Kind) Names() []string {
	switch k {
	case Instructions:
		out := make([]string, isa.NumOps)
		for op := 0; op < isa.NumOps; op++ {
			out[op] = isa.Op(op).String()
		}
		return out
	case Memory:
		out := make([]string, MemBins)
		for i := range out {
			out[i] = fmt.Sprintf("delta-2^%d", i)
		}
		return out
	case Architectural:
		out := make([]string, ArchDim)
		copy(out, archNames[:])
		return out
	}
	panic(fmt.Sprintf("features: invalid kind %d", uint8(k)))
}

// WindowSet holds the per-window feature matrices extracted from one
// program trace. Rows are aligned across kinds: row i of every kind
// describes the same window. Bounds[i] records the instruction range
// [start, end) of window i; for fixed-period extraction every window has
// length Period, while scheduled extraction (ExtractScheduled) produces
// variable-length windows and leaves Period at 0.
type WindowSet struct {
	Period  int
	Windows int
	Bounds  [][2]int
	Vectors [NumKinds][][]float64
}

// Rows returns the feature matrix for one kind.
func (w *WindowSet) Rows(k Kind) [][]float64 { return w.Vectors[k] }

// tally is the raw event counts of one stretch of a trace: the opcode
// histogram, the memory-delta bins, and the architectural counters
// that depend on the µarch state (taken branches, mispredicts, L1 and
// L2 misses, unaligned accesses). The other architectural counters and
// the number of memory references depend on the opcode alone, so
// appendRow derives them from ops (see opArch) and they stay zero here.
type tally struct {
	ops  [isa.NumOps]int
	mem  [MemBins]int
	arch [ArchDim]int
}

// add folds o's counts into t.
func (t *tally) add(o *tally) {
	for i := range t.ops {
		t.ops[i] += o.ops[i]
	}
	for i := range t.mem {
		t.mem[i] += o.mem[i]
	}
	for i := range t.arch {
		t.arch[i] += o.arch[i]
	}
}

// opArch maps each opcode to the architectural counters that count
// every execution of it, one bit per counter index: branches (the
// conditional ones the predictor resolves), loads, stores, calls,
// returns, syscalls and stack ops.
var opArch = func() (t [isa.NumOps]uint16) {
	for i := range t {
		op := isa.Op(i)
		for c, counts := range [ArchDim]bool{
			ArchBranches: op.Class() == isa.ClassBranch,
			ArchLoads:    op.IsLoad(),
			ArchStores:   op.IsStore(),
			ArchCalls:    op.Class() == isa.ClassCall,
			ArchReturns:  op.Class() == isa.ClassRet,
			ArchSyscalls: op.Class() == isa.ClassSystem,
			ArchStackOps: op.Class() == isa.ClassStack,
		} {
			if counts {
				t[i] |= 1 << c
			}
		}
	}
	return t
}()

// appendRow normalizes the counts of the window [start, end) into one
// feature row per kind: instruction frequencies and architectural
// events by window length, memory bins by the number of references (a
// distribution). Every count is a whole number far below 2^53, so its
// float64 is exact and the rows do not depend on how the window's
// blocks were summed.
func (w *WindowSet) appendRow(c *tally, start, end int) {
	arch := c.arch
	memRefs := 0
	for op, k := range c.ops {
		for m := opArch[op]; m != 0; m &= m - 1 {
			arch[bits.TrailingZeros16(m)] += k
		}
		if isa.Op(op).IsMem() {
			memRefs += k
		}
	}
	n := float64(end - start)

	iv := w.nextRow(Instructions, isa.NumOps)
	for i := range iv {
		iv[i] = float64(c.ops[i]) / n
	}
	mv := w.nextRow(Memory, MemBins)
	if memRefs > 0 {
		for i := range mv {
			mv[i] = float64(c.mem[i]) / float64(memRefs)
		}
	} else {
		// A reused row still holds an earlier window's distribution.
		clear(mv)
	}
	av := w.nextRow(Architectural, ArchDim)
	for i := range av {
		av[i] = float64(arch[i]) / n
	}

	w.Bounds = append(w.Bounds, [2]int{start, end})
	w.Windows++
}

// nextRow extends kind k's matrix by one row of dim values and returns
// it. A row an earlier set left past the matrix's length (see
// Extractor) is reused as it stands, so the caller overwrites every
// value.
func (w *WindowSet) nextRow(k Kind, dim int) []float64 {
	rows := w.Vectors[k]
	if n := len(rows); n < cap(rows) {
		if row := rows[:n+1][n]; row != nil {
			w.Vectors[k] = rows[:n+1]
			return row
		}
	}
	row := make([]float64, dim)
	w.Vectors[k] = append(rows, row)
	return row
}

// extractor implements trace.Sink. It steps the µarch pipeline for
// each conditional branch and memory reference and counts the event
// into the open block; nextLen yields the length of each successive
// block. Without periods every block is one window of out, its length
// drawn from the caller's schedule next (scheduled extraction). With
// periods, blocks end at every period's window boundaries and each
// block is folded into every period's open window, so one pass serves
// them all.
type extractor struct {
	next func() int
	pipe *uarch.Pipeline

	start    int // trace position where the open block began
	end      int // trace position where the open block closes
	total    int
	block    tally
	lastAddr uint64
	haveAddr bool

	out     WindowSet
	periods []*periodWindows
}

// periodWindows assembles one collection period's windows from blocks.
type periodWindows struct {
	start int   // trace position where the open window began
	sum   tally // counts of the blocks folded into the open window
	set   WindowSet
}

// Event implements trace.Sink. It does per event only what depends on
// the event: the opcode count, and for a conditional branch or a memory
// reference the pipeline step and its outcome.
func (x *extractor) Event(e *trace.Event) {
	x.block.ops[e.Op]++
	if e.Op.Class() == isa.ClassBranch {
		if e.Taken {
			x.block.arch[ArchTakenBranches]++
		}
		if x.pipe.Branch(e.PC, e.Taken) {
			x.block.arch[ArchMispredicts]++
		}
	}
	if e.Op.IsMem() {
		if x.haveAddr {
			x.block.mem[deltaBin(x.lastAddr, e.Addr)]++
		}
		x.lastAddr = e.Addr
		x.haveAddr = true
		l1Miss, l2Miss, unaligned := x.pipe.Mem(e.Addr)
		if l1Miss {
			x.block.arch[ArchL1Misses]++
		}
		if l2Miss {
			x.block.arch[ArchL2Misses]++
		}
		if unaligned {
			x.block.arch[ArchUnaligned]++
		}
	}

	x.total++
	if x.total >= x.end {
		x.flush()
	}
}

// deltaBin maps the absolute address difference between consecutive
// memory references to a log2 bin, saturating at the top bin.
func deltaBin(prev, cur uint64) int {
	var d uint64
	if cur >= prev {
		d = cur - prev
	} else {
		d = prev - cur
	}
	if d == 0 {
		return 0
	}
	b := bits.Len64(d) // 1 + floor(log2 d)
	if b >= MemBins {
		return MemBins - 1
	}
	return b
}

// flush closes the block: it becomes a window of out, or is folded into
// every period's open window, closing those that reach their period.
func (x *extractor) flush() {
	if x.periods == nil {
		x.out.appendRow(&x.block, x.start, x.total)
	}
	for _, w := range x.periods {
		w.sum.add(&x.block)
		if x.total-w.start == w.set.Period {
			w.set.appendRow(&w.sum, w.start, x.total)
			w.sum = tally{}
			w.start = x.total
		}
	}

	x.start = x.total
	x.end = x.total + x.nextLen()
	x.block = tally{}
}

// nextLen is the length of the next block: the caller's next window,
// or the nearest period boundary.
func (x *extractor) nextLen() int {
	if x.periods != nil {
		return x.nextBoundary()
	}
	if n := x.next(); n > 0 {
		return n
	}
	return 1 // defensive: a broken schedule must not wedge extraction
}

// nextBoundary is the block length that reaches the nearest end of an
// open period window.
func (x *extractor) nextBoundary() int {
	next := -1
	for _, w := range x.periods {
		if n := w.start + w.set.Period - x.total; next < 0 || n < next {
			next = n
		}
	}
	return next
}

// Extract traces p for maxInstr committed instructions and returns the
// per-window feature vectors at the given collection period. Partial
// trailing windows are discarded, as a hardware implementation flushing
// at period boundaries would.
func Extract(p *prog.Program, period, maxInstr int) (*WindowSet, error) {
	sets, err := ExtractPeriods(p, []int{period}, maxInstr)
	if err != nil {
		return nil, err
	}
	return sets[0], nil
}

// ExtractPeriods is Extract at several collection periods from one
// trace and one µarch pipeline: sets[i] holds the windows at
// periods[i], bit for bit what a trace at that period alone yields.
func ExtractPeriods(p *prog.Program, periods []int, maxInstr int) ([]*WindowSet, error) {
	if len(periods) == 0 {
		return nil, fmt.Errorf("features: no periods to extract")
	}
	wins := make([]*periodWindows, len(periods))
	for i, period := range periods {
		if period <= 0 {
			return nil, fmt.Errorf("features: period must be positive, got %d", period)
		}
		if maxInstr < period {
			return nil, fmt.Errorf("features: trace budget %d below period %d", maxInstr, period)
		}
		wins[i] = &periodWindows{set: WindowSet{Period: period}}
	}
	x := &extractor{pipe: uarch.NewDefaultPipeline(), periods: wins}
	x.end = x.nextBoundary()
	if _, err := trace.Exec(p, trace.Config{MaxInstructions: maxInstr}, x); err != nil {
		return nil, err
	}
	sets := make([]*WindowSet, len(periods))
	for i, w := range x.periods {
		if w.set.Windows == 0 {
			return nil, fmt.Errorf("features: trace of %q produced no complete windows", p.Name)
		}
		sets[i] = &w.set
	}
	return sets, nil
}

// ExtractScheduled traces p with a caller-supplied window schedule: next
// is called for the length of each successive window (it must return a
// positive value). This is how an RHMD with heterogeneous collection
// periods observes a program — each window's length is that of the base
// detector randomly selected for it. The trailing partial window is
// discarded. The set is the caller's: ExtractScheduled is
// Extractor.Scheduled on an extractor used once.
func ExtractScheduled(p *prog.Program, next func() int, maxInstr int) (*WindowSet, error) {
	return new(Extractor).Scheduled(p, next, maxInstr)
}

// Extractor is the state scheduled extraction keeps between calls: one
// µarch pipeline, reset for each program as the paper's detectors see
// one running core's commit stage (§7), and the rows of the last set,
// overwritten in place by the next. A monitor worker owns one for its
// lifetime. The zero value is ready to use; an Extractor is not safe
// for concurrent use.
type Extractor struct {
	x extractor
}

// Scheduled is ExtractScheduled on e's pipeline and rows. The set it
// returns, and every row in it, stays valid only until the next call.
// Every call starts from a reset pipeline and zero tallies, also after
// a call that the schedule or the trace ended with a panic.
func (e *Extractor) Scheduled(p *prog.Program, next func() int, maxInstr int) (*WindowSet, error) {
	if maxInstr <= 0 {
		return nil, fmt.Errorf("features: trace budget %d must be positive", maxInstr)
	}
	first := next()
	if first <= 0 {
		return nil, fmt.Errorf("features: schedule produced non-positive window %d", first)
	}
	x := &e.x
	x.reset(next, first)
	// The extractor keeps no reference to a finished call's schedule.
	defer func() { x.next = nil }()
	if _, err := trace.Exec(p, trace.Config{MaxInstructions: maxInstr}, x); err != nil {
		return nil, err
	}
	if x.out.Windows == 0 {
		return nil, fmt.Errorf("features: scheduled trace of %q produced no complete windows", p.Name)
	}
	return &x.out, nil
}

// reset readies x for a scheduled trace whose first window is first
// instructions long: the pipeline reset (made on first use), every
// tally and position zeroed, and the previous set's rows kept only as
// capacity for nextRow.
func (x *extractor) reset(next func() int, first int) {
	pipe := x.pipe
	if pipe == nil {
		pipe = uarch.NewDefaultPipeline()
	} else {
		pipe.Reset()
	}
	out := WindowSet{Bounds: x.out.Bounds[:0]}
	for k, rows := range x.out.Vectors {
		out.Vectors[k] = rows[:0]
	}
	*x = extractor{next: next, pipe: pipe, end: first, out: out}
}

// TopDeltaIndices implements the paper's instruction-feature selection:
// rank components by the absolute difference between their mean value in
// malware windows and in benign windows, and return the indices of the k
// largest deltas (in rank order). It applies to any feature kind but the
// paper uses it for Instructions.
func TopDeltaIndices(malware, benign [][]float64, k int) []int {
	if len(malware) == 0 || len(benign) == 0 {
		return nil
	}
	dim := len(malware[0])
	mMean := columnMeans(malware, dim)
	bMean := columnMeans(benign, dim)
	type cand struct {
		idx   int
		delta float64
	}
	cands := make([]cand, dim)
	for i := 0; i < dim; i++ {
		cands[i] = cand{i, math.Abs(mMean[i] - bMean[i])}
	}
	// Selection sort of the top k: dim is small (≤ isa.NumOps).
	if k > dim {
		k = dim
	}
	out := make([]int, 0, k)
	for len(out) < k {
		best := -1
		for i, c := range cands {
			if c.idx < 0 {
				continue
			}
			if best < 0 || c.delta > cands[best].delta {
				best = i
			}
		}
		out = append(out, cands[best].idx)
		cands[best].idx = -1
	}
	return out
}

func columnMeans(rows [][]float64, dim int) []float64 {
	m := make([]float64, dim)
	for _, r := range rows {
		for i := 0; i < dim && i < len(r); i++ {
			m[i] += r[i]
		}
	}
	for i := range m {
		m[i] /= float64(len(rows))
	}
	return m
}

// Project returns the rows restricted to the selected column indices.
func Project(rows [][]float64, idx []int) [][]float64 {
	out := make([][]float64, len(rows))
	for r, row := range rows {
		v := make([]float64, len(idx))
		for i, c := range idx {
			v[i] = row[c]
		}
		out[r] = v
	}
	return out
}
