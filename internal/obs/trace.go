package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Event kinds emitted by the serving layers. The program lifecycle is
// submit → extract → window → verdict; fault handling interleaves
// retry/timeout/panic/degraded/dropped, and the health board emits
// breaker transitions (quarantine/probe/restore).
const (
	EvSubmit     = "submit"
	EvShed       = "shed"
	EvExtract    = "extract"
	EvWindow     = "window"
	EvVerdict    = "verdict"
	EvRetry      = "retry"
	EvTimeout    = "timeout"
	EvPanic      = "panic"
	EvDegraded   = "degraded"
	EvDropped    = "dropped"
	EvQuarantine = "quarantine"
	EvProbe      = "probe"
	EvRestore    = "restore"

	// Checkpoint lifecycle events (internal/checkpoint).
	EvCheckpointSave     = "ckpt-save"
	EvCheckpointRestore  = "ckpt-restore"
	EvCheckpointFallback = "ckpt-fallback"

	// Pool-lifecycle events (SwapPool / driftguard): a pool generation
	// going live, drift firing, and a canary verdict (commit/rollback).
	EvPoolSwap = "pool-swap"
	EvDrift    = "drift"
	EvCanary   = "canary"

	// SLO / incident events (internal/obs/slo, internal/obs/incident):
	// an objective's alert state changing, and a flight-recorder bundle
	// being captured.
	EvSLO      = "slo-alert"
	EvIncident = "incident"
)

// Event is one structured trace record. Detector and Window are -1 when
// the event is not tied to a detector or window.
type Event struct {
	Seq      uint64        `json:"seq"`
	At       time.Time     `json:"at"`
	Kind     string        `json:"kind"`
	Program  string        `json:"program,omitempty"`
	Detector int           `json:"detector"`
	Window   int           `json:"window"`
	Attempt  int           `json:"attempt,omitempty"`
	Dur      time.Duration `json:"dur_ns,omitempty"`
	Detail   string        `json:"detail,omitempty"`
}

// Tracer is a fixed-capacity ring of events with overwrite semantics:
// once full, each Emit replaces the oldest surviving event. Emit is
// lock-free — one atomic sequence claim and one pointer store — so it
// is safe on the engine's hot path. A nil *Tracer is valid and drops
// every event, which is how tracing is disabled.
type Tracer struct {
	slots []atomic.Pointer[Event]
	seq   atomic.Uint64
	// drops counts ring-slot overwrites (oldest event evicted); dropC
	// mirrors the count into a registry counter once Instrument wires
	// one (nil until then — drops were silent before PR 5).
	drops atomic.Uint64
	dropC atomic.Pointer[Counter]
}

// NewTracer returns a tracer holding the most recent capacity events
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{slots: make([]atomic.Pointer[Event], capacity)}
}

// Emit records one event. The tracer assigns Seq, and stamps At with
// the current time when the caller left it zero. Safe for concurrent
// use; no-op on a nil tracer.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	// Copy to the heap only here, past the nil check: taking &ev would
	// move the parameter itself to the heap on every call, nil or not.
	p := new(Event)
	*p = ev
	if p.At.IsZero() {
		p.At = time.Now()
	}
	p.Seq = t.seq.Add(1) - 1
	if old := t.slots[p.Seq%uint64(len(t.slots))].Swap(p); old != nil {
		// The ring was full: the oldest event is evicted. A snapshot
		// drain may already have served it, so this counts overwrites,
		// not guaranteed-unseen loss — but counting them still lets a
		// scraper tell a quiet engine from an undersized ring.
		t.drops.Add(1)
		if c := t.dropC.Load(); c != nil {
			c.Inc()
		}
	}
}

// Dropped returns how many events have been evicted by ring-slot
// overwrites. Drains snapshot rather than consume, so an overwritten
// event may or may not have been served before eviction.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.drops.Load()
}

// Instrument exposes the ring's drop count as rhmd_trace_dropped_total
// in reg, carrying over any drops recorded before wiring. Nil-safe on
// both receiver and registry; call once, before heavy traffic.
func (t *Tracer) Instrument(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	c := reg.Counter("rhmd_trace_dropped_total",
		"Event-ring slot overwrites (oldest event evicted; ring capacity exceeded).")
	if t.dropC.Swap(c) == nil {
		c.Add(t.drops.Load())
	}
}

// Emitted returns the total number of events ever emitted (including
// overwritten ones).
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	return t.seq.Load()
}

// Snapshot returns the surviving events in emission order. Concurrent
// Emits may be in flight; the snapshot is a consistent set of fully
// written events, not a stop-the-world freeze.
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.slots))
	for i := range t.slots {
		if p := t.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// WriteJSON drains a snapshot as a JSON array (one event object per
// element, oldest first).
func (t *Tracer) WriteJSON(w io.Writer) error {
	evs := t.Snapshot()
	if evs == nil {
		evs = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(evs)
}
