package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rhmd/internal/checkpoint"
	"rhmd/internal/core"
	"rhmd/internal/features"
	"rhmd/internal/fleet"
	"rhmd/internal/monitor"
	"rhmd/internal/obs/span"
	"rhmd/internal/scenario"
	"rhmd/internal/trace"
	"rhmd/internal/uarch"
)

// engineSpans reduces the engine's kept verdict traces (recorder on,
// keep-every-1) to the queue and service figures of the ledger.
type engineSpans struct {
	traces      int
	queueWaitMs []float64
	serviceMs   []float64 // worker span plus WAL span: pickup to durable commit
	walUs       []float64
	classifyUs  float64 // mean classify span per window
}

func reduceSpans(kept []*span.KeptTrace) engineSpans {
	var out engineSpans
	var classify time.Duration
	windows := 0
	for _, kt := range kept {
		if kt.Verdict != "malware" && kt.Verdict != "benign" {
			continue // shed, failed, undurable, checkpoint and swap traces
		}
		out.traces++
		var service time.Duration
		for _, s := range kt.Spans {
			switch s.Stage {
			case span.StageQueueWait:
				out.queueWaitMs = append(out.queueWaitMs, ms(s.Dur))
			case span.StageWorker:
				service += s.Dur
			case span.StageWALFsync:
				service += s.Dur
				out.walUs = append(out.walUs, us(s.Dur))
			case span.StageClassify:
				classify += s.Dur
				windows++
			}
		}
		out.serviceMs = append(out.serviceMs, ms(service))
	}
	out.classifyUs = ratio(us(classify), float64(windows))
	return out
}

// benchSpan is one span the benchmark records around a layer call in
// the serial replay. Spans of one replayed verdict share Trace.
type benchSpan struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	Dur    int64  `json:"dur_ns"`
	Calls  int    `json:"calls"` // layer calls, windows or instructions the span covers
}

type spanLog struct {
	t0    time.Time
	trace int
	spans []benchSpan
}

func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, benchSpan{Trace: l.trace, ID: len(l.spans), Parent: parent, Name: name,
		Start: time.Since(l.t0).Nanoseconds()})
	return len(l.spans) - 1
}

func (l *spanLog) end(id, calls int) {
	s := &l.spans[id]
	s.Dur = time.Since(l.t0).Nanoseconds() - s.Start
	s.Calls = calls
}

// layerTotals sums self time (duration minus the children's) and calls
// per span name.
func layerTotals(spans []benchSpan) (self map[string]time.Duration, calls map[string]int) {
	self, calls = map[string]time.Duration{}, map[string]int{}
	for _, s := range spans {
		self[s.Name] += time.Duration(s.Dur)
		calls[s.Name] += s.Calls
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= time.Duration(s.Dur)
		}
	}
	return self, calls
}

// walRecord has the JSON shape of the engine's per-verdict WAL record,
// so replay appends carry a realistic payload.
type walRecord struct {
	Malware bool `json:"malware,omitempty"`
	Windows int  `json:"windows"`
	Flagged int  `json:"flagged"`
}

// replay is the single-threaded replay of the measured corpus through
// the layer calls, with the benchmark's own spans around each call.
type replay struct {
	log        spanLog
	verdicts   int
	mismatches int
}

// serialReplay replays events from first on, cycling, for budget. Each
// verdict draws
// its schedule (core), extracts (features), scores (hmd) and, with a
// store, appends its WAL record (checkpoint); trace.Exec and
// uarch.Pipeline.Process are then timed on their own, since both run
// inside ExtractScheduled.
func serialReplay(pool *core.RHMD, events []scenario.Event, first, traceLen int, ref map[progKey]bool, store *checkpoint.Store, budget time.Duration) (*replay, error) {
	live := make([]bool, pool.Size())
	for i := range live {
		live[i] = true
	}
	sampler, err := pool.LiveSampler(live)
	if err != nil {
		return nil, err
	}
	minPeriod := pool.Detectors[0].Spec.Period
	for _, d := range pool.Detectors {
		minPeriod = min(minPeriod, d.Spec.Period)
	}
	// Extraction asks for at most one window past the last complete one.
	seq := make([]int, traceLen/minPeriod+2)
	var stream []trace.Event
	capture := trace.SinkFunc(func(e *trace.Event) { stream = append(stream, *e) })
	noop := trace.SinkFunc(func(*trace.Event) {})
	tcfg := trace.Config{MaxInstructions: traceLen}

	r := &replay{log: spanLog{t0: time.Now()}}
	l := &r.log
	for i := first; time.Since(l.t0) < budget; i++ {
		p := events[i%len(events)].Program
		l.trace = r.verdicts
		root := l.begin("verdict", -1)

		ds := l.begin("core.draw", root)
		src := pool.SwitchSource(p)
		for k := range seq {
			seq[k] = sampler.Sample(src)
		}
		l.end(ds, len(seq))

		fs := l.begin("features.extract", root)
		k := 0
		ws, err := features.ExtractScheduled(p, func() int {
			k++
			return pool.Detectors[seq[k-1]].Spec.Period
		}, traceLen)
		l.end(fs, 1)
		if err != nil {
			return nil, fmt.Errorf("replaying %s: %w", p.Name, err)
		}

		ss := l.begin("hmd.score", root)
		flagged := 0
		for w := 0; w < ws.Windows; w++ {
			d := pool.Detectors[seq[w]]
			if d.ScoreWindow(ws.Rows(d.Spec.Kind)[w]) >= d.Threshold {
				flagged++
			}
		}
		l.end(ss, ws.Windows)
		malware := ws.Windows > 0 && 2*flagged >= ws.Windows

		if store != nil {
			payload, err := json.Marshal(walRecord{Malware: malware, Windows: ws.Windows, Flagged: flagged})
			if err != nil {
				return nil, err
			}
			as := l.begin("checkpoint.append", root)
			err = store.Append(checkpoint.KindVerdict, payload)
			l.end(as, 1)
			if err != nil {
				return nil, err
			}
		}
		l.end(root, 1)
		if malware != ref[keyOf(p)] {
			r.mismatches++
		}

		ts := l.begin("trace.exec", -1)
		st, err := trace.Exec(p, tcfg, noop)
		l.end(ts, st.Total)
		if err != nil {
			return nil, err
		}
		stream = stream[:0]
		if _, err := trace.Exec(p, tcfg, capture); err != nil {
			return nil, err
		}
		pipe := uarch.NewDefaultPipeline()
		up := l.begin("uarch.process", -1)
		for j := range stream {
			pipe.Process(&stream[j])
		}
		l.end(up, len(stream))
		r.verdicts++
	}
	return r, nil
}

// appendLatency times n single-caller appends to a fresh store in dir
// and returns the p50 and p99 in µs.
func appendLatency(dir string, n int) (float64, float64, error) {
	st, err := checkpoint.Open(dir, checkpoint.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	payload, err := json.Marshal(walRecord{Malware: true, Windows: 26, Flagged: 14})
	if err != nil {
		return 0, 0, err
	}
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := st.Append(checkpoint.KindVerdict, payload); err != nil {
			return 0, 0, err
		}
		lat = append(lat, us(time.Since(t)))
	}
	return quantile(lat, 0.50), quantile(lat, 0.99), nil
}

// appendThroughput runs callers concurrent appenders against one fresh
// store for dur and returns appends per second.
func appendThroughput(dir string, callers int, dur time.Duration) (float64, error) {
	st, err := checkpoint.Open(dir, checkpoint.Options{})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	payload, err := json.Marshal(walRecord{Malware: true, Windows: 26, Flagged: 14})
	if err != nil {
		return 0, err
	}
	counts := make([]int, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(t0) < dur {
				if err := st.Append(checkpoint.KindVerdict, payload); err != nil {
					errs[c] = err
					return
				}
				counts[c]++
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	total := 0
	for c := range counts {
		if errs[c] != nil {
			return 0, errs[c]
		}
		total += counts[c]
	}
	return float64(total) / elapsed.Seconds(), nil
}

// saveLatency times n snapshot saves of the engine's real snapshot
// payload (its encoded EngineState over pool) and returns the median in
// ms.
func saveLatency(dir string, pool *core.RHMD, n int) (float64, error) {
	eng, err := monitor.New(pool, monitor.Config{})
	if err != nil {
		return 0, err
	}
	payload, err := json.Marshal(eng.SnapshotState())
	if err != nil {
		return 0, err
	}
	st, err := checkpoint.Open(dir, checkpoint.Options{})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if _, err := st.Save(payload); err != nil {
			return 0, err
		}
		lat = append(lat, ms(time.Since(t)))
	}
	return median(lat), nil
}

// routeNs times Fleet.Home over the corpus's program names, in ns per
// call.
func routeNs(fl *fleet.Fleet, events []scenario.Event) float64 {
	const calls = 200_000
	sink := 0
	t := time.Now()
	for i := 0; i < calls; i++ {
		sink += fl.Home(events[i%len(events)].Program.Name)
	}
	el := time.Since(t)
	if sink < 0 {
		return 0
	}
	return float64(el.Nanoseconds()) / calls
}

// writeSpans dumps the replay's spans and a few of the engine's kept
// traces as JSON.
func writeSpans(path string, spans []benchSpan, kept []*span.KeptTrace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	const keepEngine = 32
	if len(kept) > keepEngine {
		kept = kept[len(kept)-keepEngine:]
	}
	data, err := json.Marshal(struct {
		Replay []benchSpan       `json:"replay_spans"`
		Engine []*span.KeptTrace `json:"engine_traces"`
	}{spans, kept})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
