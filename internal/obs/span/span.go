// Package span is per-verdict causal tracing for the monitoring
// engine: every program that enters the engine gets a trace — a tree
// of timed spans covering enqueue, queue wait, worker pickup, feature
// extraction, the RHMD switching draw (which base detector, at what
// renormalized weight), classification, the majority vote and the WAL
// fsync — and a tail-based sampler decides *after* the verdict whether
// the tree is worth keeping. Aggregate metrics (internal/obs) say the
// p99 moved; a kept trace says why this one sample was slow, degraded
// or wrong, which is the per-decision visibility the paper's §7
// stochastic-switching argument calls for.
//
// The package obeys the repository's determinism invariant (it is in
// the `determinism` analyzer's scope): trace and span IDs are minted
// from a seeded SplitMix64 stream, never the wall clock or math/rand,
// and every timestamp comes from the clock injected in Config.Now, so
// the engine that owns the recorder decides what "now" means.
//
// Kept traces are the serving layer's one event stream: /traces, the
// monitor's -trace-out file and the checkpoint black box all carry the
// same JSON records (Recorder.WriteJSON), and checkpoints, pool swaps
// and SLO alert transitions record their own root traces beside the
// verdicts.
//
// Hot-path discipline: span records come from a sync.Pool, recording a
// span is pointer writes plus one injected clock read, the keep/drop
// decision is flag checks and one atomic add, and kept trees go into a
// lock-free overwrite-oldest ring of immutable snapshots. Dropped trees
// return their records to the pool and count one atomic.
package span

import (
	"encoding/hex"
	"sync/atomic"
	"time"
)

// Stage names for the verdict path, in causal order. The monitor emits
// exactly these; the /traces ?stage= filter matches against them.
const (
	StageVerdict    = "verdict"    // root: submit accept → durable result
	StageEnqueue    = "enqueue"    // the submission-queue send
	StageQueueWait  = "queue-wait" // enqueue done → worker pickup
	StageWorker     = "worker"     // pickup → verdict aggregation done
	StageFeatures   = "features"   // trace replay + window extraction
	StageDraw       = "draw"       // one switching draw (detector, weight)
	StageClassify   = "classify"   // one window's classification, retries included
	StageVote       = "vote"       // majority aggregation over windows
	StageWALFsync   = "wal-fsync"  // hand-off to the committer → verdict batch durable
	StageCheckpoint = "checkpoint" // root: one snapshot generation flush
	StagePoolSwap   = "pool-swap"  // root: one detector-pool generation swap
	StageSLOAlert   = "slo-alert"  // root: one SLO alert-state transition
)

// TraceID is a 16-byte trace identifier, rendered as 32 hex digits.
type TraceID [16]byte

// String returns the lowercase hex form.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is unset.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// SpanID is an 8-byte span identifier, rendered as 16 hex digits.
type SpanID [8]byte

// String returns the lowercase hex form ("" for the zero ID, which
// marks a root span's absent parent).
func (id SpanID) String() string {
	if id == (SpanID{}) {
		return ""
	}
	return hex.EncodeToString(id[:])
}

// IDSource mints trace and span IDs from a seeded SplitMix64 stream.
// It is lock-free (one atomic add per word) and deterministic for a
// given seed and minting order, which keeps the `determinism` analyzer
// honest: no wall clock, no math/rand, no crypto/rand.
type IDSource struct {
	seed uint64
	ctr  atomic.Uint64
}

// NewIDSource returns a source whose stream is derived from seed.
func NewIDSource(seed uint64) *IDSource { return &IDSource{seed: seed} }

// next returns the next 64-bit word of the ID stream: the SplitMix64
// finalizer over seed ⊕ a golden-ratio-stepped counter.
func (s *IDSource) next() uint64 {
	z := s.seed + s.ctr.Add(1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TraceID mints a fresh 16-byte trace ID.
func (s *IDSource) TraceID() (id TraceID) {
	putUint64(id[:8], s.next())
	putUint64(id[8:], s.next())
	return id
}

// SpanID mints a fresh 8-byte span ID.
func (s *IDSource) SpanID() (id SpanID) {
	putUint64(id[:], s.next())
	return id
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// Span is one timed stage of a verdict. Attributes are a small fixed
// set (no maps, no variadic KV), so a pooled record is a handful of
// words and recording never allocates after pool warm-up.
type Span struct {
	ID     SpanID
	Parent SpanID // zero for the trace root
	Stage  string
	Start  time.Time
	Dur    time.Duration

	// Detector/Window are -1 when the span is not tied to one;
	// Attempt counts retries inside a classify span; Weight is the
	// renormalized switching weight at draw time; Err carries the
	// final error of a failed stage.
	Detector int
	Window   int
	Attempt  int
	Weight   float64
	Err      string
}

// reset clears a pooled record for reuse.
func (s *Span) reset() {
	*s = Span{Detector: -1, Window: -1}
}
