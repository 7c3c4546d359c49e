// Package monitor is the online serving layer for RHMD: a concurrent
// engine that streams programs through a randomized detector pool with
// production-grade fault handling. It is the deployment story of the
// paper's §7 — an always-on hardware monitor classifying every running
// program — hardened for the failure modes a real deployment sees:
//
//   - bounded submission queues with explicit load shedding (a saturated
//     monitor drops and counts work, it never blocks the host or loses
//     windows silently);
//   - per-window classification deadlines and retry-with-backoff for
//     transient faults, with panic recovery so one poisoned trace or a
//     crashing base detector cannot take the engine down;
//   - per-detector consecutive-failure circuit breakers with graceful
//     pool degradation: a faulting detector is quarantined and the
//     switching distribution renormalized over the survivors. Per §7 the
//     RHMD's accuracy is the average of its live base pool, so a
//     degraded pool keeps classifying at the survivors' average accuracy
//     instead of failing closed;
//   - half-open probing that routes a single window back to a
//     quarantined detector after a cooldown, restoring it (and its
//     switching weight) once it answers correctly;
//   - a pluggable fault-injection harness (FaultInjector) so the
//     degradation behaviour is provable in tests.
package monitor

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rhmd/internal/checkpoint"
	"rhmd/internal/core"
	"rhmd/internal/obs"
	"rhmd/internal/obs/span"
	"rhmd/internal/prog"
)

// Config tunes the engine. The zero value of every field selects a
// sensible default.
type Config struct {
	// Workers is the number of concurrent classification workers
	// (default 4).
	Workers int
	// QueueDepth bounds the submission queue; a full queue sheds load
	// (default 2×Workers).
	QueueDepth int
	// TraceLen is the committed-instruction budget per monitored program
	// (default 80_000).
	TraceLen int
	// WindowDeadline bounds one classification attempt; a stalled
	// detector counts as a fault (default 25ms).
	WindowDeadline time.Duration
	// Sleep is the injected clock seam the retry backoff and injected
	// FaultLatency stalls wait through, on the worker (nil = a real
	// timer honoring ctx). A stall waits exactly WindowDeadline. Tests
	// substitute a recording fake to assert the schedule without
	// waiting it out.
	Sleep func(ctx context.Context, d time.Duration) error
	// ProbeAfter is the quarantine cooldown, measured in pool-wide
	// processed windows, before a half-open probe (default 64). Counting
	// windows instead of wall-clock keeps tests deterministic.
	ProbeAfter int
	// Injector, when non-nil, injects faults into classification calls.
	Injector FaultInjector
	// Metrics is the observability registry the engine's instruments
	// register in (nil = a fresh private registry; reachable either way
	// via Engine.Registry). One live engine per registry: two engines
	// serving at once would share — and double-count — the same
	// instruments. A successor engine may take over its predecessor's
	// registry (a fleet restarts each shard on the same
	// obs.Registry.WithLabel view): its gauges start from its own
	// state, and Restore raises counters to the checkpointed totals
	// instead of adding them, so every series stays continuous.
	Metrics *obs.Registry
	// Spans, when non-nil, records a per-verdict span tree for every
	// submission — enqueue, queue wait, worker pickup, feature
	// extraction, each switching draw (detector + renormalized weight),
	// each window's classification, the vote, and the group commit
	// (hand-off to durable, the batch wait included) — and
	// tail-samples which trees to keep (see internal/obs/span). Nil
	// disables verdict tracing; every span call is nil-safe so the hot
	// path carries no flag checks.
	Spans *span.Recorder
	// Exemplars attaches the verdict trace ID to per-detector latency
	// observations as OpenMetrics exemplars. Requires Spans; only the
	// OpenMetrics exposition renders them, so 0.0.4 scrapes are
	// byte-identical either way.
	Exemplars bool
	// Checkpoint, when non-nil, makes the engine durable: verdicts
	// (group-committed, one fsync per batch) and breaker transitions
	// are write-ahead-logged as they happen, snapshots are flushed
	// every CheckpointEvery and once more on drain, and a crashed
	// engine resumes via Restore. One engine per store. A verdict whose
	// WAL append failed is withheld: counted
	// (rhmd_monitor_programs_total{outcome="undurable"}) but never
	// delivered, so everything a consumer acks is recoverable.
	Checkpoint *checkpoint.Store
	// CheckpointEvery is the periodic snapshot interval (default 2s;
	// ignored without a Checkpoint store).
	CheckpointEvery time.Duration
	// OnWorkerCrash, when non-nil, is called each time a worker
	// goroutine dies to a panic that escaped per-program recovery (for
	// example FaultWorkerCrash), and when the verdict committer dies to
	// a panic. The engine absorbs a worker crash — the remaining workers
	// keep serving — but never replaces the worker; after a committer
	// crash nothing more is delivered. A fleet supervisor uses the
	// callback as its shard-death signal. Called from the dying
	// goroutine; must not block.
	OnWorkerCrash func(err error)
	// ResolvePool, when non-nil, lets Restore rebuild pool generations
	// other than the one the engine was constructed with: given the
	// epoch and fingerprint a checkpointed swap recorded, it returns the
	// matching trained pool (typically from a driftguard.Archive). With
	// a nil ResolvePool a checkpoint whose fingerprint does not match
	// the constructed pool is a hard error, the pre-swap behavior.
	ResolvePool func(epoch, fingerprint uint64) (*core.RHMD, error)
}

// The retry schedule and the breaker's trip point are constants: no
// deployment has run another value.
const (
	// maxRetries is the number of re-attempts after a failed
	// classification: three attempts in all.
	maxRetries = 2
	// backoffBase is the backoff before the first retry. It doubles per
	// attempt with deterministic equal jitter: the wait before attempt
	// k is uniform in [b/2, b) for b = backoffBase·2^(k-1), derived
	// from the attempt's fault context so reruns reproduce the same
	// schedule.
	backoffBase = 500 * time.Microsecond
	// failureThreshold is the consecutive-failure count that opens a
	// detector's breaker.
	failureThreshold = 3
)

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.TraceLen <= 0 {
		c.TraceLen = 80_000
	}
	if c.WindowDeadline <= 0 {
		c.WindowDeadline = 25 * time.Millisecond
	}
	if c.Sleep == nil {
		c.Sleep = sleepCtx
	}
	if c.ProbeAfter <= 0 {
		c.ProbeAfter = 64
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 2 * time.Second
	}
}

// sleepCtx is the default Config.Sleep: a real timer that aborts on
// context cancellation.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Report is the engine's verdict for one monitored program.
type Report struct {
	Program string
	Label   prog.Label
	// Malware is the majority-rule verdict over classified windows.
	Malware bool
	// Windows/Flagged/Degraded/Dropped account for every window of the
	// program's trace: Windows classified (Flagged malware, Degraded via
	// a fallback detector), Dropped unclassifiable (no live detector).
	Windows  int
	Flagged  int
	Degraded int
	Dropped  int
	// Err is set when the program could not be traced at all; the other
	// fields are zero in that case.
	Err error
	// TraceID is the verdict's span-trace identifier when the tail
	// sampler kept the trace (query it on /traces); empty when the
	// trace was dropped or verdict tracing is disabled.
	TraceID string
	// Shard and ShardGen identify which fleet shard (and which life of
	// it — generations count restarts) produced this verdict. Both are
	// zero for a bare single engine; internal/fleet stamps them as it
	// merges shard result streams.
	Shard    int
	ShardGen uint64
	// PoolEpoch is the detector-pool generation this verdict was
	// classified by (0 until the first SwapPool). In-flight programs
	// finish on the generation they started on, so after a swap the
	// epoch tells canary evaluation — and offline analysis — exactly
	// which pool produced each verdict.
	PoolEpoch uint64
}

// submission carries one queued program together with its verdict
// trace. The trace is single-owner: the submitter records the enqueue,
// the channel send is the happens-before handoff, and the worker
// records everything after pickup — no locking on the trace.
type submission struct {
	p *prog.Program
	// tr is nil when verdict tracing is disabled; wait is the open
	// queue-wait span the worker closes at pickup.
	tr   *span.Trace
	wait *span.Span
	// ts is the submit instant, the start of the end-to-end verdict
	// latency histogram (rhmd_monitor_verdict_latency_seconds).
	ts time.Time
}

// handoff is one finished verdict on its way from a worker to the
// committer. The trace changes owner with it, the channel send being
// the happens-before edge as at submission.
type handoff struct {
	rep Report
	tr  *span.Trace
	ws  *span.Span // the open wal-fsync span
	ts  time.Time  // the submit instant
}

// Engine streams programs through an RHMD pool. Construct with New,
// start workers with Start, feed with Submit, consume Results, and
// Close to drain.
type Engine struct {
	cfg Config

	// pool is the serving generation: the detector pool, its health
	// board, and the swap epoch. Hot-path readers load it exactly once
	// per program, so an in-flight verdict finishes on the generation it
	// started on while SwapPool publishes the next one atomically (see
	// swap.go). swapMu serializes swaps.
	pool   atomic.Pointer[poolGen]
	swapMu sync.Mutex

	queue   chan submission
	results chan Report
	wg      sync.WaitGroup // the workers

	// commits carries finished verdicts from the workers to the
	// committer, the only sender on results; its capacity, Workers,
	// lets every worker hand off without waiting on an fsync.
	// committed is closed when the committer returns.
	commits   chan handoff
	committed chan struct{}

	reg   *obs.Registry
	ins   *instruments
	spans *span.Recorder

	// ckpt is the durability store (nil = volatile engine). ckptMu
	// orders verdict/transition commits (shared) against snapshot
	// capture + WAL rotation (exclusive); done ends the periodic
	// checkpoint loop when the engine drains.
	ckpt   *checkpoint.Store
	ckptMu sync.RWMutex
	done   chan struct{}

	// closeMu orders queue sends (shared) against closing the queue
	// channel (exclusive), so Submit is safe to race with Close — a
	// fleet supervisor tears engines down underneath live submitters.
	// Both sides are non-blocking (select-default send, close).
	closeMu sync.RWMutex
	closed  atomic.Bool

	// progress ticks at least once per scheduled window, through both
	// the extraction and classification phases (see Progress).
	progress atomic.Uint64

	mu      sync.Mutex
	started bool
}

// New validates the configuration and builds an engine around a trained
// pool.
func New(r *core.RHMD, cfg Config) (*Engine, error) {
	if r == nil || r.Size() == 0 {
		return nil, fmt.Errorf("monitor: engine needs a non-empty RHMD pool")
	}
	cfg.fill()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{
		cfg:       cfg,
		queue:     make(chan submission, cfg.QueueDepth),
		results:   make(chan Report, cfg.QueueDepth),
		commits:   make(chan handoff, cfg.Workers),
		committed: make(chan struct{}),
		reg:       reg,
		ins:       newInstruments(reg, r),
		spans:     cfg.Spans,
		ckpt:      cfg.Checkpoint,
		done:      make(chan struct{}),
	}
	g := &poolGen{
		rhmd:   r,
		health: newHealthBoard(r, failureThreshold, uint64(cfg.ProbeAfter)),
	}
	g.health.attach(e.ins)
	e.pool.Store(g)
	// A predecessor on this registry may have been cancelled with
	// programs still queued or in flight; this engine's occupancy starts
	// empty, on the constructed pool.
	e.ins.queueDepth.Set(0)
	e.ins.inflight.Set(0)
	e.ins.poolGeneration.Set(0)
	if e.ckpt != nil {
		e.ckpt.Instrument(reg)
	}
	return e, nil
}

// Registry returns the engine's observability registry — mount it on an
// obs.NewMux to expose /metrics for this engine.
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Start launches the worker pool and the verdict committer. Cancelling
// ctx stops workers promptly (in-flight programs finish their current
// window attempt and are committed with ctx's error, undelivered).
// Start is idempotent.
func (e *Engine) Start(ctx context.Context) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return
	}
	e.started = true
	e.ins.workersLive.Set(float64(e.cfg.Workers))
	for i := 0; i < e.cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker(ctx)
	}
	go e.committer(ctx)
	if e.ckpt != nil {
		go e.checkpointLoop(ctx, e.cfg.CheckpointEvery)
	}
	go func() {
		e.wg.Wait()
		// The workers are gone, so no more hand-offs. Once the committer
		// has released the last verdict, flush a final generation, so a
		// graceful shutdown restores to the exact terminal state; only
		// then is the result stream closed, making "Results closed" ⇒
		// "final checkpoint durable" for consumers.
		close(e.commits)
		<-e.committed
		if e.ckpt != nil {
			_, _ = e.Checkpoint() // a failure is counted and flags its own trace
		}
		close(e.done)
		close(e.results)
	}()
}

// Submit offers a program to the engine. It returns false — and counts
// the program as shed — when the queue is full (backpressure) or the
// engine is closed. Shedding is explicit by design: an overloaded
// monitor must fail visibly, not stall the host.
func (e *Engine) Submit(p *prog.Program) bool {
	tr := e.spans.Start(p.Name, span.StageVerdict)
	// The closed check and the queue send form one unit under closeMu:
	// Close cannot close the channel between them.
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed.Load() {
		e.ins.shed.Inc()
		e.finishShed(tr, "engine closed")
		return false
	}
	enq := tr.StartSpan(span.StageEnqueue, nil)
	// The queue-wait span opens before the send so its start is the
	// enqueue instant; the worker closes it at pickup.
	wait := tr.StartSpan(span.StageQueueWait, nil)
	// The enqueue span must close BEFORE the send: a successful send
	// hands trace ownership to the worker, which may record its spans
	// and Finish (recycling the trace) concurrently with anything the
	// submitter does afterwards. The send is non-blocking, so ending
	// here loses nothing of the enqueue step's duration.
	tr.EndSpan(enq)
	select {
	case e.queue <- submission{p: p, tr: tr, wait: wait, ts: time.Now()}:
		e.ins.queueDepth.Inc()
		return true
	default:
		tr.EndSpan(wait)
		e.ins.shed.Inc()
		e.finishShed(tr, "queue full")
		return false
	}
}

// finishShed terminates a shed submission's trace: a shed is always a
// keep-worthy tail event (it is the engine failing visibly), so the
// trace is flagged and finished on the spot.
func (e *Engine) finishShed(tr *span.Trace, why string) {
	if tr == nil {
		return
	}
	if r := tr.Root(); r != nil {
		r.Err = why
	}
	tr.Flag(span.ReasonShed)
	tr.SetVerdict("shed")
	tr.Finish()
}

// Results returns the report stream. It is closed after Close (or
// context cancellation) once all workers have drained.
func (e *Engine) Results() <-chan Report { return e.results }

// Close stops accepting submissions and lets workers drain the queue.
// It does not wait; range over Results to observe completion. Close is
// idempotent and safe to race with Submit.
func (e *Engine) Close() {
	if e.closed.Swap(true) {
		return
	}
	// Exclude in-flight queue sends: a submitter either saw closed and
	// shed, or completes its send before the channel closes.
	e.closeMu.Lock()
	close(e.queue)
	e.closeMu.Unlock()
}

// Progress returns a monotonic, volatile activity counter that ticks at
// least once per scheduled window — during feature extraction (each
// switching draw) and during classification (each completed window). It
// is the supervisor's wedge signal: a slow shard keeps ticking at
// window granularity, a wedged one (workers blocked inside a
// classification that will never return) freezes entirely. Not
// persisted, not a metric; restored engines start from zero.
func (e *Engine) Progress() uint64 { return e.progress.Load() }

// Stats snapshots the engine's counters and per-detector health. The
// counters now live in the observability registry (the same numbers a
// /metrics scrape sees); the snapshot's public shape is unchanged.
func (e *Engine) Stats() Stats {
	g := e.pool.Load()
	return Stats{
		PoolEpoch:          g.epoch,
		PoolSwaps:          e.ins.poolSwaps.Value(),
		ProgramsProcessed:  e.ins.programs.Value(),
		ProgramsShed:       e.ins.shed.Value(),
		ProgramsFailed:     e.ins.failed.Value(),
		ProgramsUndurable:  e.ins.undurable.Value(),
		Windows:            e.ins.windows.Value(),
		Flagged:            e.ins.flagged.Value(),
		Degraded:           e.ins.degraded.Value(),
		DroppedWindows:     e.ins.dropped.Value(),
		Retries:            e.ins.retries.Value(),
		Timeouts:           e.ins.timeouts.Value(),
		Panics:             e.ins.panics.Value(),
		WorkerCrashes:      e.ins.workerCrashes.Value(),
		CheckpointFailures: e.ins.ckptFailures.Value(),
		QueueDepth:         gaugeCount(e.ins.queueDepth),
		Inflight:           gaugeCount(e.ins.inflight),
		WorkersLive:        gaugeCount(e.ins.workersLive),
		Quarantines:        e.ins.quarantines.Value(),
		Restores:           e.ins.restores.Value(),
		Detectors:          g.health.snapshot(),
	}
}

// gaugeCount reads an occupancy gauge as a non-negative integer (a
// concurrent inc/dec pair can transiently expose a negative read).
func gaugeCount(g *obs.Gauge) uint64 {
	v := g.Value()
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// worker consumes the queue until it closes or ctx is cancelled,
// handing each finished verdict to the committer and taking the next
// program at once. A panic that escapes per-program recovery (a
// deliberate FaultWorkerCrash, or a real bug) is absorbed here: the
// worker dies — it is never replaced — but the engine survives, counts
// the crash, and notifies Config.OnWorkerCrash so a supervisor can
// decide the shard's fate.
func (e *Engine) worker(ctx context.Context) {
	defer e.wg.Done()
	// Every exit — drain, cancellation, or crash — retires the worker
	// from the live gauge, so a drained engine reads 0 like a fresh one.
	defer e.ins.workersLive.Dec()
	defer func() {
		if r := recover(); r != nil {
			// The crash happened mid-program (nothing else panics), so
			// the in-flight slot this worker held is released.
			e.ins.inflight.Dec()
			e.crashed(fmt.Errorf("monitor: worker crashed: %v", r))
		}
	}()
	for {
		select {
		case <-ctx.Done():
			return
		case sub, ok := <-e.queue:
			if !ok {
				return
			}
			e.ins.queueDepth.Dec()
			e.ins.inflight.Inc()
			tr := sub.tr
			tr.EndSpan(sub.wait)
			wk := tr.StartSpan(span.StageWorker, nil)
			rep := e.process(ctx, sub.p, tr, wk)
			tr.EndSpan(wk)
			// The wal-fsync span runs from the hand-off until the batch
			// holding the verdict is durable. The committer drains until
			// the workers are gone, so this send never strands a worker.
			e.commits <- handoff{rep: rep, tr: tr, ws: tr.StartSpan(span.StageWALFsync, nil), ts: sub.ts}
		}
	}
}

// crashed accounts a goroutine lost to a panic that escaped
// per-program recovery and notifies Config.OnWorkerCrash.
func (e *Engine) crashed(err error) {
	e.ins.panics.Inc()
	e.ins.workerCrashes.Inc()
	if e.cfg.OnWorkerCrash != nil {
		e.cfg.OnWorkerCrash(err)
	}
}

// committer is the engine's one delivery path. It takes a finished
// verdict from the workers together with every other one already
// queued, so a batch is whatever queued during the previous fsync —
// there is no timer and no size setting. It commits the batch (one WAL
// append, then the counters, under ckptMu shared) and only then
// releases the verdicts in hand-off order, with ckptMu no longer held,
// so a slow Results consumer never blocks a snapshot. A panic is
// absorbed like a worker's, and nothing more is delivered: the
// committer then drains the hand-offs without acting on them, so no
// worker blocks on it.
func (e *Engine) committer(ctx context.Context) {
	defer close(e.committed)
	defer func() {
		if r := recover(); r != nil {
			e.crashed(fmt.Errorf("monitor: verdict committer crashed: %v", r))
			for range e.commits {
			}
		}
	}()
	batch := make([]handoff, 0, e.cfg.Workers+1)
	for h := range e.commits {
		batch = append(batch[:0], h)
		// Only the committer receives, so the n queued hand-offs are
		// there to take without blocking.
		for n := len(e.commits); n > 0; n-- {
			batch = append(batch, <-e.commits)
		}
		e.release(ctx, batch, e.commit(batch))
	}
}

// release ends each verdict of a committed batch in hand-off order: it
// closes the wal-fsync span, observes the end-to-end latency (submit to
// durable, for every outcome, withheld verdicts included, so
// percentiles cover exactly the work the engine performed), finishes
// the trace and sends the report on Results. When the batch failed to
// log (err != nil) each verdict is withheld and its trace is kept with
// the error: the consumer sees either a durable verdict or nothing.
// Once ctx is cancelled nothing more is delivered.
func (e *Engine) release(ctx context.Context, batch []handoff, err error) {
	for _, h := range batch {
		rep, tr := h.rep, h.tr
		verdict := verdictLabel(rep)
		if err != nil {
			verdict = "undurable"
			tr.Flag(span.ReasonErrored)
			if h.ws != nil {
				h.ws.Err = err.Error()
			}
		}
		tr.EndSpan(h.ws)
		e.ins.verdictLatency.ObserveSince(h.ts)
		if rep.Err != nil {
			tr.Flag(span.ReasonErrored)
			if r := tr.Root(); r != nil {
				r.Err = rep.Err.Error()
			}
		}
		tr.SetVerdict(verdict)
		rep.TraceID = tr.Finish()
		e.ins.inflight.Dec()
		if err != nil || ctx.Err() != nil {
			continue
		}
		select {
		case e.results <- rep:
		case <-ctx.Done():
		}
	}
}

// verdictLabel names a report's terminal outcome for the kept trace.
func verdictLabel(rep Report) string {
	switch {
	case rep.Err != nil:
		return "failed"
	case rep.Malware:
		return "malware"
	default:
		return "benign"
	}
}
