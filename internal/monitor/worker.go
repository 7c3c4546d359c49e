package monitor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"rhmd/internal/features"
	"rhmd/internal/obs/span"
	"rhmd/internal/prog"
)

// ErrDeadline marks a classification attempt that outlived the window
// deadline.
var ErrDeadline = errors.New("monitor: window deadline exceeded")

// workerCrash is the panic payload of FaultWorkerCrash. process's
// per-program recover rethrows it instead of converting it to a report
// error, so it escapes to the worker loop's recover and kills the
// worker goroutine — the shard-death signal the fleet supervisor
// restarts on.
type workerCrash struct {
	detector int
	program  string
}

func (wc workerCrash) String() string {
	return fmt.Sprintf("injected worker crash (detector %d, program %q)", wc.detector, wc.program)
}

// process monitors one program end to end: schedule windows over the
// live pool, extract them with the worker's ext, classify each with
// fault handling, aggregate the majority-rule verdict. A panic anywhere
// in tracing or extraction is converted into a program-level error so
// one poisoned trace cannot take a worker down; ext resets itself on
// its next call. Every window row is read before process returns, so
// none outlives the call. tr is the verdict's span trace (nil when
// verdict tracing is off) and wk the enclosing worker span; process
// hangs feature-extraction, draw, classify and vote spans off them.
func (e *Engine) process(ctx context.Context, ext *features.Extractor, p *prog.Program, tr *span.Trace, wk *span.Span) (rep Report) {
	// One generation load per program: the whole verdict — scheduling,
	// classification, breaker reporting — runs against this pool even if
	// SwapPool publishes a newer generation mid-program. The report
	// carries the epoch so consumers can attribute it.
	g := e.pool.Load()
	rep = Report{Program: p.Name, Label: p.Label, PoolEpoch: g.epoch}
	defer func() {
		if r := recover(); r != nil {
			if wc, ok := r.(workerCrash); ok {
				// A scripted worker crash must kill the worker, not become
				// a program error; the probe-cancel defer below has already
				// run (LIFO), so no breaker is left wedged half-open.
				panic(wc)
			}
			e.ins.panics.Inc()
			rep.Err = fmt.Errorf("monitor: tracing %q panicked: %v", p.Name, r)
		}
	}()

	// Schedule: each window is collected at the period of the detector
	// picked for it, sampled from the renormalized live distribution
	// (exactly DecideTrace's contract, but against the live pool).
	src := g.rhmd.SwitchSource(p)
	var seq []int
	var probes []bool
	resolved := 0
	// The schedule runs one pick ahead of extraction (the trailing
	// partial window is discarded), and errors or shutdown can leave
	// further picks unclassified. A probe pick that never reports would
	// wedge its breaker in HalfOpen, so cancel every unresolved one.
	defer func() {
		for i := resolved; i < len(seq); i++ {
			if probes[i] {
				g.health.cancelProbe(seq[i])
			}
		}
	}()
	feat := tr.StartSpan(span.StageFeatures, wk)
	next := func() int {
		// pick also owns probe routing: a cooled-down quarantined
		// detector is handed this window half-open, and the breaker
		// resolves the probe from the classification outcome.
		ds := tr.StartSpan(span.StageDraw, feat)
		idx, probe, weight := g.health.pick(src)
		if ds != nil {
			ds.Detector, ds.Weight = idx, weight
		}
		tr.EndSpan(ds)
		if probe {
			// A half-open probe window is breaker-affected by
			// definition: the trace shows which draw it rode in on.
			tr.Flag(span.ReasonBreaker)
		}
		seq = append(seq, idx)
		probes = append(probes, probe)
		// One liveness tick per scheduled window, so extraction of a
		// long trace reads as forward motion, not a stall.
		e.progress.Add(1)
		if idx < 0 {
			// Nothing live to schedule for: collect at the pool's
			// smallest period so the stream stays window-aligned; the
			// window itself will be counted as dropped.
			return g.minPeriod()
		}
		return g.rhmd.Detectors[idx].Spec.Period
	}
	ws, err := ext.Scheduled(p, next, e.cfg.TraceLen)
	tr.EndSpan(feat)
	if err != nil {
		if feat != nil {
			feat.Err = err.Error()
		}
		rep.Err = fmt.Errorf("monitor: extracting %q: %w", p.Name, err)
		return rep
	}

	for w := 0; w < ws.Windows; w++ {
		idx := seq[w]
		cs := tr.StartSpan(span.StageClassify, wk)
		if cs != nil {
			cs.Detector, cs.Window = idx, w
		}
		decision, degraded, ok := e.classifyWindow(ctx, g, p, ws, w, idx, tr, cs)
		tr.EndSpan(cs)
		if err := ctx.Err(); err != nil {
			// Shutdown mid-window: the classify outcome may not have
			// reached the breaker, so leave seq[w] to the probe-cancel
			// defer rather than marking it resolved.
			rep.Err = err
			return rep
		}
		resolved = w + 1
		g.health.windowDone()
		e.progress.Add(1)
		// Window outcomes accumulate on the report only; the registry
		// counters are committed at verdict time (Engine.commit) so the
		// checkpoint layer sees each program's accounting atomically.
		if !ok {
			rep.Dropped++
			tr.Flag(span.ReasonBreaker)
			if cs != nil && cs.Err == "" {
				cs.Err = "no live detector"
			}
			continue
		}
		rep.Windows++
		if degraded {
			rep.Degraded++
			tr.Flag(span.ReasonBreaker)
		}
		if decision == 1 {
			rep.Flagged++
		}
	}
	vote := tr.StartSpan(span.StageVote, wk)
	rep.Malware = float64(rep.Flagged) >= float64(rep.Windows)/2 && rep.Windows > 0
	tr.EndSpan(vote)
	return rep
}

// classifyWindow classifies window w, starting with the scheduled
// detector idx and degrading to live fallbacks when it fails. ok=false
// means no detector could classify the window (it is dropped and
// counted). degraded=true means a fallback, not the scheduled detector,
// produced the decision.
func (e *Engine) classifyWindow(ctx context.Context, g *poolGen, p *prog.Program, ws *features.WindowSet, w, idx int, tr *span.Trace, cs *span.Span) (decision int, degraded, ok bool) {
	if idx >= 0 {
		dec, err := e.classify(ctx, g, p, ws, w, idx, tr, cs)
		if err == nil {
			return dec, false, true
		}
		if cs != nil {
			cs.Err = err.Error()
		}
		if ctx.Err() != nil {
			return 0, false, false
		}
	}
	// Degraded mode: the already-collected window is re-scored by the
	// surviving detectors in descending switching weight. Their feature
	// kind may differ from the scheduled detector's, but the window set
	// carries every kind, so survivors classify the same hardware
	// observation through their own feature view. The classify span
	// keeps the scheduled detector and its failure; the trace flags the
	// degradation at the window level.
	for _, fb := range g.health.liveFallbacks(idx) {
		dec, err := e.classify(ctx, g, p, ws, w, fb, tr, nil)
		if err == nil {
			return dec, true, true
		}
		if ctx.Err() != nil {
			return 0, false, false
		}
	}
	return 0, false, false
}

// classify runs one detector over one window with retry-with-backoff,
// reporting the final outcome to the health board. cs, when non-nil,
// is the window's classify span: it accumulates the attempt count, and
// retries flag the trace for the tail sampler.
func (e *Engine) classify(ctx context.Context, g *poolGen, p *prog.Program, ws *features.WindowSet, w, idx int, tr *span.Trace, cs *span.Span) (int, error) {
	d := g.rhmd.Detectors[idx]
	vec := ws.Rows(d.Spec.Kind)[w]
	start := time.Now()
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		fc := FaultContext{
			Detector: idx,
			ProgSeed: p.Seed,
			ProgName: p.Name,
			Window:   w,
			Attempt:  attempt,
		}
		if attempt > 0 {
			e.ins.retries.Inc()
			tr.Flag(span.ReasonRetried)
			if cs != nil {
				cs.Attempt = attempt
			}
			if err := e.cfg.Sleep(ctx, retryBackoff(fc, attempt)); err != nil {
				return 0, err
			}
		}
		// The injector is consulted here, on the worker goroutine, so the
		// shard-killing faults act on the worker itself; the detector-level
		// faults ride into classifyOnce with the attempt.
		fault := FaultNone
		if e.cfg.Injector != nil {
			fault = e.cfg.Injector.Fault(fc)
		}
		switch fault {
		case FaultWedge:
			// Block the worker, not the scored call: the window deadline
			// cannot rescue a wedge, only engine teardown can.
			<-ctx.Done()
			return 0, ctx.Err()
		case FaultWorkerCrash:
			panic(workerCrash{detector: idx, program: p.Name})
		}
		dec, err := e.classifyOnce(ctx, fc, fault, d.ScoreWindow, d.Threshold, vec)
		if err == nil {
			e.commitTransition(g, idx, true, time.Since(start), e.exemplarID(tr))
			return dec, nil
		}
		lastErr = err
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			if ctx.Err() != nil {
				return 0, err
			}
		case errors.Is(err, ErrDeadline):
			e.ins.timeouts.Inc()
		}
	}
	tr.Flag(span.ReasonErrored)
	e.commitTransition(g, idx, false, time.Since(start), e.exemplarID(tr))
	return 0, lastErr
}

// retryBackoff returns the jittered wait before retry attempt k
// (1 ≤ k ≤ maxRetries): exponential doubling from backoffBase, with
// equal jitter — uniform in [b/2, b) — drawn deterministically from the
// attempt's fault context. The same (detector, program, window,
// attempt) tuple always waits the same time, so a rerun reproduces the
// schedule regardless of worker interleaving, while distinct attempts
// desynchronize instead of retrying in lockstep.
func retryBackoff(fc FaultContext, attempt int) time.Duration {
	b := backoffBase << (attempt - 1)
	half := b / 2
	// 53 uniform bits of the mixed context → frac in [0, 1).
	frac := float64(mixFault(fc)>>11) / (1 << 53)
	return half + time.Duration(frac*float64(half))
}

// exemplarID returns the trace ID to attach to latency observations as
// an OpenMetrics exemplar, or "" when exemplars are off or the verdict
// is untraced.
func (e *Engine) exemplarID(tr *span.Trace) string {
	if !e.cfg.Exemplars {
		return ""
	}
	return tr.ID()
}

// classifyOnce is a single deadline-bounded attempt, scored inline on
// the worker: a panicking detector is recovered into an error, and an
// injected stall is waited out through Config.Sleep for the whole
// window deadline, then fails the attempt with ErrDeadline. fault is
// the attempt's injected detector fault, resolved by the caller
// (FaultNone when no injector is configured).
func (e *Engine) classifyOnce(ctx context.Context, fc FaultContext, fault FaultKind, score func([]float64) float64, threshold float64, vec []float64) (dec int, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.ins.panics.Inc()
			dec, err = 0, fmt.Errorf("monitor: detector %d panicked: %v", fc.Detector, r)
		}
	}()
	switch fault {
	case FaultError:
		return 0, ErrInjected
	case FaultPanic:
		panic("injected detector fault")
	case FaultLatency:
		if err := e.cfg.Sleep(ctx, e.cfg.WindowDeadline); err != nil {
			return 0, err
		}
		return 0, ErrDeadline
	case FaultCorrupt:
		vec = make([]float64, len(vec))
		for i := range vec {
			vec[i] = math.NaN()
		}
	}
	s := score(vec)
	if math.IsNaN(s) || math.IsInf(s, 0) {
		return 0, fmt.Errorf("monitor: detector %d produced non-finite score", fc.Detector)
	}
	if s >= threshold {
		return 1, nil
	}
	return 0, nil
}

// minPeriod returns the generation's smallest collection period.
func (g *poolGen) minPeriod() int {
	min := g.rhmd.Detectors[0].Spec.Period
	for _, d := range g.rhmd.Detectors {
		if d.Spec.Period < min {
			min = d.Spec.Period
		}
	}
	return min
}
