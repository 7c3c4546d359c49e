package span

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rhmd/internal/obs"
)

// Reason is a keep-decision flag. A finished trace is kept when any
// reason applies; the kept record lists all of them.
type Reason uint8

// Keep reasons, in the order they are reported.
const (
	ReasonSlow     Reason = 1 << iota // root duration exceeded Config.Slow
	ReasonShed                        // the submission was shed (backpressure)
	ReasonRetried                     // at least one classification retry
	ReasonErrored                     // program failed, a stage errored, or a WAL append failed
	ReasonBreaker                     // degraded/dropped windows, probes, or breaker transitions
	ReasonBaseline                    // the 1-in-N uniform baseline keep
)

var reasonNames = []struct {
	r    Reason
	name string
}{
	{ReasonSlow, "slow"},
	{ReasonShed, "shed"},
	{ReasonRetried, "retried"},
	{ReasonErrored, "errored"},
	{ReasonBreaker, "breaker"},
	{ReasonBaseline, "baseline"},
}

func (r Reason) names() []string {
	var out []string
	for _, rn := range reasonNames {
		if r&rn.r != 0 {
			out = append(out, rn.name)
		}
	}
	return out
}

// Config tunes a Recorder. Now is mandatory (the package never reads
// the wall clock itself); everything else has a serviceable default.
type Config struct {
	// Seed derives the trace/span ID stream (see IDSource).
	Seed uint64
	// Now is the injected clock. The monitor passes its own clock so
	// span timing and the engine's latency accounting agree.
	Now func() time.Time
	// Slow is the root-span duration above which a verdict trace is
	// kept unconditionally (default 50ms).
	Slow time.Duration
	// KeepEvery keeps every N-th trace regardless of flags, a uniform
	// baseline so /traces always shows healthy verdicts too (default
	// 128; 1 keeps everything; negative disables the baseline).
	KeepEvery int
	// Capacity bounds the kept-trace ring; once full, each keep
	// overwrites the oldest survivor (default 256).
	Capacity int
}

func (c *Config) fill() {
	if c.Slow <= 0 {
		c.Slow = 50 * time.Millisecond
	}
	if c.KeepEvery == 0 {
		c.KeepEvery = 128
	}
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
}

// Recorder owns the span pool, the tail sampler and the kept-trace
// ring. A nil *Recorder is valid and records nothing — that is how
// verdict tracing is disabled without a flag check on the hot path.
type Recorder struct {
	cfg    Config
	ids    *IDSource
	pool   sync.Pool // *Span
	traces sync.Pool // *Trace, spans slice capacity retained

	slots []atomic.Pointer[KeptTrace]
	seq   atomic.Uint64 // kept-ring sequence
	nth   atomic.Uint64 // baseline 1-in-N counter

	kept    *obs.Counter
	dropped *obs.Counter
}

// NewRecorder builds a recorder and registers its kept/dropped
// counters in reg (nil reg = private unregistered counters, for
// tests). Config.Now must be set.
func NewRecorder(cfg Config, reg *obs.Registry) (*Recorder, error) {
	if cfg.Now == nil {
		return nil, fmt.Errorf("span: Config.Now is required (inject the owner's clock)")
	}
	cfg.fill()
	r := &Recorder{
		cfg:   cfg,
		ids:   NewIDSource(cfg.Seed),
		slots: make([]atomic.Pointer[KeptTrace], cfg.Capacity),
		pool: sync.Pool{New: func() any {
			s := &Span{}
			s.reset()
			return s
		}},
		kept:    &obs.Counter{},
		dropped: &obs.Counter{},
	}
	if reg != nil {
		r.kept = reg.Counter("rhmd_verdict_traces_kept_total",
			"Verdict traces kept by the tail sampler (slow, shed, retried, errored, breaker-affected, or 1-in-N baseline).")
		r.dropped = reg.Counter("rhmd_verdict_traces_dropped_total",
			"Verdict traces finished and discarded by the tail sampler; their span records were recycled.")
	}
	return r, nil
}

// Kept returns the total number of traces kept so far.
func (r *Recorder) Kept() uint64 {
	if r == nil {
		return 0
	}
	return r.kept.Value()
}

// Dropped returns the total number of traces finished and discarded.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Value()
}

// Trace buffers one verdict's complete span tree until Finish, when
// the tail sampler decides its fate. A trace is single-owner: the
// submitter records the enqueue, hands the trace through the engine
// queue (a happens-before edge), and the worker records the rest —
// no lock is needed or taken.
type Trace struct {
	rec     *Recorder
	id      TraceID
	program string
	verdict string
	root    *Span
	spans   []*Span
	flags   Reason
}

// Start opens a new trace with a root span of the given stage. It
// returns nil on a nil recorder, and every Trace method accepts a nil
// receiver, so callers never branch on whether tracing is enabled.
func (r *Recorder) Start(program, rootStage string) *Trace {
	if r == nil {
		return nil
	}
	t, _ := r.traces.Get().(*Trace)
	if t == nil {
		t = &Trace{}
	}
	t.rec, t.id, t.program = r, r.ids.TraceID(), program
	t.root = t.StartSpan(rootStage, nil)
	return t
}

// ID returns the trace ID ("" on a nil trace) — the join key for
// metric exemplars and verdict log lines.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id.String()
}

// Root returns the root span (nil on a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// StartSpan opens a child span under parent (nil parent = under the
// root; the first span of a trace becomes the root itself). The record
// comes from the pool and is owned by the trace until Finish.
func (t *Trace) StartSpan(stage string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	s := t.rec.pool.Get().(*Span)
	s.ID = t.rec.ids.SpanID()
	s.Stage = stage
	s.Start = t.rec.cfg.Now()
	switch {
	case parent != nil:
		s.Parent = parent.ID
	case t.root != nil:
		s.Parent = t.root.ID
	}
	t.spans = append(t.spans, s)
	return s
}

// EndSpan stamps a span's duration from the recorder's clock. Safe on
// nil trace or span.
func (t *Trace) EndSpan(s *Span) {
	if t == nil || s == nil {
		return
	}
	s.Dur = t.rec.cfg.Now().Sub(s.Start)
}

// Flag accumulates a keep reason.
func (t *Trace) Flag(r Reason) {
	if t != nil {
		t.flags |= r
	}
}

// SetVerdict records the trace's terminal outcome label (malware,
// benign, failed, shed, checkpoint, ...), surfaced on /traces.
func (t *Trace) SetVerdict(v string) {
	if t != nil {
		t.verdict = v
	}
}

// Finish closes the root span, runs the tail sampler, and either
// snapshots the tree into the kept ring or recycles it. It returns
// the trace ID when the trace was kept and "" otherwise — exactly the
// string a verdict log line should carry. A trace must not be touched
// after Finish.
func (t *Trace) Finish() string {
	if t == nil {
		return ""
	}
	r := t.rec
	if t.root != nil && t.root.Dur == 0 {
		t.EndSpan(t.root)
	}
	if t.root != nil && t.root.Dur > r.cfg.Slow {
		t.flags |= ReasonSlow
	}
	// The baseline counter ticks for every finished trace, so the
	// 1-in-N keep is uniform over traffic, not over the unflagged
	// remainder.
	if r.cfg.KeepEvery > 0 && (r.nth.Add(1)-1)%uint64(r.cfg.KeepEvery) == 0 {
		t.flags |= ReasonBaseline
	}
	if t.flags == 0 {
		r.dropped.Inc()
		t.recycle()
		return ""
	}
	kt := t.snapshot()
	kt.Seq = r.seq.Add(1) - 1
	r.slots[kt.Seq%uint64(len(r.slots))].Store(kt)
	r.kept.Inc()
	id := t.id.String()
	t.recycle()
	return id
}

// snapshot copies the pooled tree into an immutable kept record.
func (t *Trace) snapshot() *KeptTrace {
	kt := &KeptTrace{
		TraceID: t.id.String(),
		Program: t.program,
		Verdict: t.verdict,
		Reasons: t.flags.names(),
		Spans:   make([]SpanRecord, len(t.spans)),
	}
	if t.root != nil {
		kt.Start = t.root.Start
		kt.Dur = t.root.Dur
	}
	for i, s := range t.spans {
		kt.Spans[i] = SpanRecord{
			SpanID:   s.ID.String(),
			ParentID: s.Parent.String(),
			Stage:    s.Stage,
			Start:    s.Start,
			Dur:      s.Dur,
			Detector: s.Detector,
			Window:   s.Window,
			Attempt:  s.Attempt,
			Weight:   s.Weight,
			Err:      s.Err,
		}
	}
	return kt
}

// recycle returns every span record to the pool and the trace shell
// (with its spans slice capacity) to the trace pool.
func (t *Trace) recycle() {
	r := t.rec
	for _, s := range t.spans {
		s.reset()
		r.pool.Put(s)
	}
	t.spans = t.spans[:0]
	*t = Trace{spans: t.spans}
	r.traces.Put(t)
}

// KeptTrace is one tail-sampled span tree, immutable once in the ring.
type KeptTrace struct {
	Seq     uint64        `json:"seq"`
	TraceID string        `json:"trace_id"`
	Program string        `json:"program,omitempty"`
	Verdict string        `json:"verdict,omitempty"`
	Start   time.Time     `json:"start"`
	Dur     time.Duration `json:"dur_ns"`
	Reasons []string      `json:"reasons"`
	Spans   []SpanRecord  `json:"spans"`
}

// SpanRecord is the serialized form of one span. ParentID is "" on the
// root.
type SpanRecord struct {
	SpanID   string        `json:"span_id"`
	ParentID string        `json:"parent_id,omitempty"`
	Stage    string        `json:"stage"`
	Start    time.Time     `json:"start"`
	Dur      time.Duration `json:"dur_ns"`
	Detector int           `json:"detector"`
	Window   int           `json:"window"`
	Attempt  int           `json:"attempt,omitempty"`
	Weight   float64       `json:"weight,omitempty"`
	Err      string        `json:"err,omitempty"`
}

// Snapshot returns the surviving kept traces in keep order: a
// consistent set of fully written records, not a stop-the-world
// freeze. Nil-safe (returns nil).
func (r *Recorder) Snapshot() []*KeptTrace {
	if r == nil {
		return nil
	}
	out := make([]*KeptTrace, 0, len(r.slots))
	for i := range r.slots {
		if p := r.slots[i].Load(); p != nil {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
