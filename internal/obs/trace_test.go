package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestTracerOverwriteSemantics: a full ring overwrites oldest-first and
// a snapshot returns exactly the surviving suffix in emission order.
func TestTracerOverwriteSemantics(t *testing.T) {
	tr := NewTracer(4)
	reg := NewRegistry()
	tr.Instrument(reg)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Kind: EvWindow, Detector: i, Window: i})
	}
	if tr.Emitted() != 10 {
		t.Fatalf("emitted %d", tr.Emitted())
	}
	// 10 emits into a 4-slot ring: the first 4 land in empty slots, the
	// next 6 each overwrite a survivor — and every one of those drops is
	// visible both on the tracer and as rhmd_trace_dropped_total.
	if tr.Dropped() != 6 {
		t.Fatalf("dropped %d, want 6", tr.Dropped())
	}
	if got := reg.Counter("rhmd_trace_dropped_total", "").Value(); got != 6 {
		t.Fatalf("rhmd_trace_dropped_total %d, want 6", got)
	}
	evs := tr.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("snapshot kept %d events, want ring capacity 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Seq != want {
			t.Fatalf("event %d seq %d, want %d (oldest overwritten first)", i, ev.Seq, want)
		}
		if ev.Detector != 6+i {
			t.Fatalf("event %d carries detector %d", i, ev.Detector)
		}
		if ev.At.IsZero() {
			t.Fatal("Emit did not stamp At")
		}
	}
}

// TestNilTracerIsDisabled: the nil tracer is the documented off switch.
func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: EvSubmit}) // must not panic
	tr.Instrument(NewRegistry())   // must not panic either
	if tr.Emitted() != 0 || tr.Dropped() != 0 || tr.Snapshot() != nil {
		t.Fatal("nil tracer retained state")
	}
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var evs []Event
	if err := json.Unmarshal([]byte(b.String()), &evs); err != nil || len(evs) != 0 {
		t.Fatalf("nil tracer JSON %q (err %v)", b.String(), err)
	}
}

// TestNilTracerEmitDoesNotAllocate: disabled tracing costs no
// allocation per event, so an engine without a trace ring allocates no
// Events on the verdict path.
func TestNilTracerEmitDoesNotAllocate(t *testing.T) {
	var tr *Tracer
	ev := Event{Kind: EvVerdict, Program: "p", Detector: -1, Window: -1, Detail: "benign"}
	if n := testing.AllocsPerRun(100, func() { tr.Emit(ev) }); n != 0 {
		t.Fatalf("nil Emit allocates %v times per call", n)
	}
}

// TestTracerConcurrentEmit: concurrent emitters never lose a sequence
// number and never tear an event (checked under -race).
func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer(64)
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Emit(Event{Kind: EvWindow, Detector: w, Window: i})
			}
		}(w)
	}
	wg.Wait()
	if tr.Emitted() != workers*each {
		t.Fatalf("emitted %d, want %d", tr.Emitted(), workers*each)
	}
	evs := tr.Snapshot()
	if len(evs) == 0 || len(evs) > 64 {
		t.Fatalf("snapshot size %d", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatal("snapshot not in strict emission order")
		}
	}
}

// TestEventsEndpoint drains the ring over HTTP as JSON.
func TestEventsEndpoint(t *testing.T) {
	tr := NewTracer(8)
	tr.Emit(Event{Kind: EvQuarantine, Detector: 2, Window: -1, Detail: "failure threshold reached"})
	srv := httptest.NewServer(NewMux(nil, tr))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	var evs []Event
	if err := json.NewDecoder(resp.Body).Decode(&evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Kind != EvQuarantine || evs[0].Detector != 2 {
		t.Fatalf("drained %+v", evs)
	}
}
