// Package driftguard is the live arms-race loop on top of the
// monitoring engine: it watches the verdict stream for distribution
// drift — the signature of an adversary that has reverse-engineered the
// serving pool (the paper's §6 evade/retrain game, run online) —
// retrains the detector pool in the background against a bounded replay
// buffer, and commits the retrained pool through the engine's
// epoch-versioned SwapPool with an automatic canary/rollback gate.
//
// Two drift signals, complementary by design (see DESIGN.md):
//
//   - labeled-feedback accuracy: an EWMA of whether each verdict
//     matched its ground-truth label. Precise — it measures exactly the
//     damage evasion does — but it needs labels, which production
//     feedback delivers late and sparsely.
//   - inter-detector agreement: an EWMA of the per-program vote margin
//     |2·flagged/windows − 1|. Label-free and immediate — an adversary
//     tuned against part of the pool splits the vote, so the margin
//     collapses — but it also dips for benign workload shifts, so it
//     trades precision for availability.
//
// Either EWMA crossing its floor (after a minimum sample count) fires
// the drift verdict. Retraining never blocks the hot path: the guard
// observes reports from the consumer's results loop, and the retrain
// runs in its own goroutine while the old pool keeps serving. The
// canary window then compares the new pool's accuracy/agreement against
// the degraded pre-swap baseline, attributing verdicts exactly by
// Report.PoolEpoch, and rolls back to the previous generation on
// regression.
package driftguard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"rhmd/internal/core"
	"rhmd/internal/monitor"
	"rhmd/internal/obs"
	"rhmd/internal/prog"
)

// State is the guard's position in the drift/retrain/canary loop.
type State int32

// Guard states: Watching accumulates drift statistics, Retraining has a
// background retrain in flight (old pool still serving), Canary is
// evaluating a freshly swapped pool against the pre-swap baseline.
const (
	Watching State = iota
	Retraining
	Canary
)

var stateNames = [...]string{"watching", "retraining", "canary"}

// String returns the state name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "state(?)"
}

// Swapper commits retrained pools — monitor.Engine and fleet.Fleet both
// satisfy it.
type Swapper interface {
	SwapPool(*core.RHMD) (uint64, error)
}

// Retrainer produces a retrained pool from a replay corpus. It runs on
// the guard's background goroutine and may be slow; it must not touch
// the serving engine. ctx is cancelled by Guard.Close — a long-running
// implementation should poll ctx.Err between training rounds and bail
// out; the guard also discards any result produced after cancellation,
// so ignoring ctx costs shutdown latency, never correctness.
type Retrainer func(ctx context.Context, corpus []*prog.Program) (*core.RHMD, error)

// Config tunes the guard. The zero value of every numeric field selects
// a sensible default; Swapper and Retrain are required.
type Config struct {
	// Swapper receives retrained pools (and rollbacks).
	Swapper Swapper
	// Retrain builds the next pool generation from the replay corpus.
	Retrain Retrainer
	// Archive, when non-nil, persists every retrained pool before it is
	// swapped in, so Engine.Restore can re-materialize any generation
	// after a crash (wire Archive.Resolve into monitor.Config.
	// ResolvePool). A failed archive save aborts the swap: a generation
	// that cannot be recovered must never serve.
	Archive *Archive

	// AccuracyFloor fires drift when the labeled-accuracy EWMA falls
	// below it (default 0.65).
	AccuracyFloor float64
	// AgreementFloor fires drift when the vote-margin EWMA falls below
	// it (default 0.30). Margin 1 = unanimous windows, 0 = split votes.
	AgreementFloor float64
	// Alpha is the EWMA smoothing factor (default 0.05).
	Alpha float64
	// MinSamples is the number of observed verdicts required before
	// drift can fire (default 48).
	MinSamples int
	// Cooldown is the number of verdicts after a swap, rollback or
	// failed retrain during which drift will not re-fire (default
	// 2×MinSamples).
	Cooldown int
	// CanaryWindow is the number of new-generation verdicts the canary
	// collects before deciding commit vs rollback (default 32).
	CanaryWindow int
	// CanaryTolerance is how far below the pre-swap baseline the new
	// pool's canary accuracy or agreement may fall before the guard
	// rolls back (default 0.15).
	CanaryTolerance float64
	// ReplayCap bounds the replay buffer of recent programs the
	// retrainer trains on (default 256).
	ReplayCap int

	// Metrics receives the rhmd_drift_* instruments (nil = a private
	// registry).
	Metrics *obs.Registry
	// OnEvent, when non-nil, is called for each lifecycle step (drift
	// fired, retrain done/failed, canary commit/rollback) — the CLI's
	// progress hook, and on kind "rollback" the incident flight
	// recorder's trigger: a rollback means a retrained pool regressed
	// in production, which is exactly the moment to freeze a diagnostic
	// bundle. Called with the guard's lock NOT held.
	OnEvent func(kind, detail string)
}

func (c *Config) fill() error {
	if c.Swapper == nil || c.Retrain == nil {
		return fmt.Errorf("driftguard: Config needs a Swapper and a Retrain func")
	}
	if c.AccuracyFloor <= 0 {
		c.AccuracyFloor = 0.65
	}
	if c.AgreementFloor <= 0 {
		c.AgreementFloor = 0.30
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.05
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 48
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * c.MinSamples
	}
	if c.CanaryWindow <= 0 {
		c.CanaryWindow = 32
	}
	if c.CanaryTolerance <= 0 {
		c.CanaryTolerance = 0.15
	}
	if c.ReplayCap <= 0 {
		c.ReplayCap = 256
	}
	return nil
}

// instruments is the guard's registry-backed accounting.
type instruments struct {
	accuracy  *obs.Gauge // labeled-accuracy EWMA
	agreement *obs.Gauge // vote-margin EWMA
	state     *obs.Gauge // 0 watching, 1 retraining, 2 canary

	driftEvents     *obs.Counter
	retrains        *obs.Counter
	retrainFailures *obs.Counter
	rollbacks       *obs.Counter
	commits         *obs.Counter
}

func newInstruments(reg *obs.Registry) *instruments {
	outcomes := reg.CounterVec("rhmd_drift_outcomes_total",
		"Drift-loop lifecycle outcomes.", "kind")
	return &instruments{
		accuracy: reg.Gauge("rhmd_drift_accuracy_ewma",
			"EWMA of labeled verdict accuracy on the live stream."),
		agreement: reg.Gauge("rhmd_drift_agreement_ewma",
			"EWMA of the per-program vote margin |2·flagged/windows − 1|."),
		state: reg.Gauge("rhmd_drift_state",
			"Drift-guard state: 0 watching, 1 retraining, 2 canary."),
		driftEvents:     outcomes.With("drift"),
		retrains:        outcomes.With("retrain"),
		retrainFailures: outcomes.With("retrain-failure"),
		rollbacks:       outcomes.With("rollback"),
		commits:         outcomes.With("commit"),
	}
}

// Guard is the drift supervisor. Feed it every submitted program via
// Ingest (replay buffer) and every consumed report via Observe (drift
// statistics + state machine). Both are cheap; the expensive work —
// retraining — happens on a background goroutine the guard owns.
type Guard struct {
	cfg Config
	ins *instruments

	wg sync.WaitGroup // in-flight background retrains
	// ctx is the lifetime of the guard's background work; Close cancels
	// it so an in-flight retrain stops instead of outliving shutdown.
	ctx    context.Context
	cancel context.CancelFunc

	mu    sync.Mutex
	state State
	// replay is a bounded ring of recently submitted programs, the
	// retraining corpus.
	replay []*prog.Program
	next   int // ring write cursor

	accEWMA, agrEWMA float64
	samples          int
	cooldown         int

	// prev is the generation to roll back to; candidate is the pool
	// under canary evaluation; epoch is the generation the canary is
	// attributing verdicts to (set by the retrain goroutine after a
	// successful swap).
	prev      *core.RHMD
	candidate *core.RHMD
	epoch     uint64

	// Pre-swap baseline (the degraded EWMAs at drift time) and canary
	// accumulators over new-generation verdicts only.
	baselineAcc, baselineAgr float64
	canarySeen               int
	canaryCorrect            int
	canaryAgrSum             float64

	lastReason string
}

// New validates the configuration and builds a guard. current is the
// pool serving at attach time — the first rollback target.
func New(current *core.RHMD, cfg Config) (*Guard, error) {
	if current == nil || current.Size() == 0 {
		return nil, fmt.Errorf("driftguard: New needs the serving pool")
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if cfg.Archive != nil {
		// The serving pool is the first rollback target; archive it up
		// front so a rollback's WAL entry is resolvable after a crash.
		if err := cfg.Archive.Put(current); err != nil {
			return nil, err
		}
	}
	g := &Guard{
		cfg:    cfg,
		ins:    newInstruments(reg),
		replay: make([]*prog.Program, 0, cfg.ReplayCap),
		prev:   current,
	}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	g.ins.state.Set(float64(Watching))
	return g, nil
}

// Ingest records a submitted program into the bounded replay buffer.
// Call it for every successful Submit; it never blocks and keeps only
// the most recent ReplayCap programs.
func (g *Guard) Ingest(p *prog.Program) {
	if p == nil {
		return
	}
	g.mu.Lock()
	if len(g.replay) < g.cfg.ReplayCap {
		g.replay = append(g.replay, p)
	} else {
		g.replay[g.next] = p
		g.next = (g.next + 1) % g.cfg.ReplayCap
	}
	g.mu.Unlock()
}

// Observe feeds one consumed report into the drift statistics and runs
// the state machine: it can fire drift (spawning the background
// retrain) or, in canary state, decide commit vs rollback. Call it from
// the results loop for every report.
func (g *Guard) Observe(rep monitor.Report) {
	if rep.Err != nil || rep.Windows == 0 {
		return
	}
	correct := rep.Malware == (rep.Label == prog.Malware)
	margin := 2*float64(rep.Flagged)/float64(rep.Windows) - 1
	if margin < 0 {
		margin = -margin
	}

	var fire bool
	var notify func()
	g.mu.Lock()
	if g.samples == 0 {
		g.accEWMA, g.agrEWMA = b2f(correct), margin
	} else {
		a := g.cfg.Alpha
		g.accEWMA = (1-a)*g.accEWMA + a*b2f(correct)
		g.agrEWMA = (1-a)*g.agrEWMA + a*margin
	}
	g.samples++
	g.ins.accuracy.Set(g.accEWMA)
	g.ins.agreement.Set(g.agrEWMA)

	switch g.state {
	case Watching:
		if g.cooldown > 0 {
			g.cooldown--
			break
		}
		if g.samples >= g.cfg.MinSamples {
			switch {
			case g.accEWMA < g.cfg.AccuracyFloor:
				fire = true
				g.lastReason = fmt.Sprintf("accuracy EWMA %.3f below floor %.3f", g.accEWMA, g.cfg.AccuracyFloor)
			case g.agrEWMA < g.cfg.AgreementFloor:
				fire = true
				g.lastReason = fmt.Sprintf("agreement EWMA %.3f below floor %.3f", g.agrEWMA, g.cfg.AgreementFloor)
			}
			if fire {
				g.fireDriftLocked(g.lastReason)
			}
		}
	case Canary:
		// Exact attribution: only verdicts the new generation produced
		// count; stragglers that started on the old pool carry its epoch
		// and are excluded.
		if rep.PoolEpoch != g.epoch {
			break
		}
		g.canarySeen++
		if correct {
			g.canaryCorrect++
		}
		g.canaryAgrSum += margin
		if g.canarySeen >= g.cfg.CanaryWindow {
			notify = g.decideCanaryLocked()
		}
	}
	g.mu.Unlock()
	if notify != nil {
		notify()
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ForceDrift fires the drift verdict immediately (ops lever: a known
// campaign, a scheduled refresh). No-op unless the guard is Watching.
func (g *Guard) ForceDrift(reason string) {
	g.mu.Lock()
	fired := false
	if g.state == Watching {
		g.lastReason = "forced: " + reason
		g.fireDriftLocked(g.lastReason)
		fired = true
	}
	g.mu.Unlock()
	if fired {
		g.event("drift", "forced: "+reason)
	}
}

// fireDriftLocked transitions Watching → Retraining and launches the
// background retrain over a snapshot of the replay buffer. Callers hold
// g.mu.
func (g *Guard) fireDriftLocked(reason string) {
	g.state = Retraining
	g.ins.state.Set(float64(Retraining))
	g.ins.driftEvents.Inc()
	// The degraded EWMAs at drift time are the canary baseline: the
	// retrained pool must beat (or at least match, within tolerance)
	// what the old pool was doing when we gave up on it.
	g.baselineAcc, g.baselineAgr = g.accEWMA, g.agrEWMA
	corpus := append([]*prog.Program(nil), g.replay...)

	g.wg.Add(1)
	go g.retrain(g.ctx, corpus, reason)
}

// retrain is the background arm: build the next generation, archive it,
// swap it in, enter canary. Any failure returns the guard to Watching
// under cooldown with the old pool untouched — the hot path never
// notices. ctx cancellation (Guard.Close) abandons the round before the
// swap: a pool built during shutdown must never start serving.
func (g *Guard) retrain(ctx context.Context, corpus []*prog.Program, reason string) {
	defer g.wg.Done()
	g.event("drift", reason)

	fail := func(detail string) {
		g.mu.Lock()
		g.state = Watching
		g.cooldown = g.cfg.Cooldown
		g.ins.state.Set(float64(Watching))
		g.ins.retrainFailures.Inc()
		g.mu.Unlock()
		g.event("retrain-failure", detail)
	}

	pool, err := g.cfg.Retrain(ctx, corpus)
	if err != nil {
		fail(err.Error())
		return
	}
	if ctx.Err() != nil {
		fail("cancelled: " + ctx.Err().Error())
		return
	}
	if g.cfg.Archive != nil {
		// Archive before swap: once this pool serves, a crash must be
		// able to re-materialize it. Unarchivable ⇒ unswappable.
		if err := g.cfg.Archive.Put(pool); err != nil {
			fail("archiving pool: " + err.Error())
			return
		}
	}
	epoch, err := g.cfg.Swapper.SwapPool(pool)
	if err != nil {
		fail("swap: " + err.Error())
		return
	}

	g.mu.Lock()
	g.candidate = pool
	g.epoch = epoch
	g.state = Canary
	g.canarySeen, g.canaryCorrect, g.canaryAgrSum = 0, 0, 0
	g.ins.state.Set(float64(Canary))
	g.ins.retrains.Inc()
	g.mu.Unlock()
	g.event("retrain", fmt.Sprintf("epoch %d live, canary over %d verdicts", epoch, g.cfg.CanaryWindow))
}

// decideCanaryLocked evaluates the completed canary window and either
// commits the new generation or rolls back to the previous one. Callers
// hold g.mu; the returned func (possibly nil) must be invoked after
// unlocking (it calls OnEvent).
func (g *Guard) decideCanaryLocked() func() {
	candAcc := float64(g.canaryCorrect) / float64(g.canarySeen)
	candAgr := g.canaryAgrSum / float64(g.canarySeen)
	tol := g.cfg.CanaryTolerance

	if candAcc < g.baselineAcc-tol || candAgr < g.baselineAgr-tol {
		// Regression: the retrained pool is worse than the degraded
		// baseline it replaced. Roll back.
		detail := fmt.Sprintf("canary regression: accuracy %.3f vs baseline %.3f, agreement %.3f vs %.3f",
			candAcc, g.baselineAcc, candAgr, g.baselineAgr)
		prev := g.prev
		epoch, err := g.cfg.Swapper.SwapPool(prev)
		if err != nil {
			// Rollback failed (e.g. WAL append error): stay on the new
			// pool — it is serving and durable — but record the failure
			// and return to Watching so drift can re-fire.
			g.state = Watching
			g.cooldown = g.cfg.Cooldown
			g.ins.state.Set(float64(Watching))
			g.ins.retrainFailures.Inc()
			d := detail + "; rollback swap failed: " + err.Error()
			return func() { g.event("rollback-failure", d) }
		}
		g.epoch = epoch
		g.candidate = nil
		g.state = Watching
		g.cooldown = g.cfg.Cooldown
		// The old pool is serving again: resume from the baseline it had.
		g.accEWMA, g.agrEWMA = g.baselineAcc, g.baselineAgr
		g.ins.accuracy.Set(g.accEWMA)
		g.ins.agreement.Set(g.agrEWMA)
		g.ins.state.Set(float64(Watching))
		g.ins.rollbacks.Inc()
		return func() { g.event("rollback", detail) }
	}

	// Commit: the new generation is the pool of record — a future drift
	// round rolls back to it, not to the one it replaced.
	detail := fmt.Sprintf("canary pass: accuracy %.3f (baseline %.3f), agreement %.3f (baseline %.3f)",
		candAcc, g.baselineAcc, candAgr, g.baselineAgr)
	g.prev = g.candidate
	g.candidate = nil
	g.state = Watching
	g.cooldown = g.cfg.Cooldown
	// Seed the EWMAs with the canary's fresh estimate of the new pool.
	g.accEWMA, g.agrEWMA = candAcc, candAgr
	g.samples = g.canarySeen
	g.ins.accuracy.Set(g.accEWMA)
	g.ins.agreement.Set(g.agrEWMA)
	g.ins.state.Set(float64(Watching))
	g.ins.commits.Inc()
	return func() { g.event("commit", detail) }
}

// Wait blocks until any in-flight background retrain finishes. Call on
// shutdown (after Close-ing the engine) and in tests.
func (g *Guard) Wait() { g.wg.Wait() }

// Close cancels the retrain context and waits for the background arm
// to drain. After Close no retrained pool will be swapped in — a round
// racing the shutdown is abandoned and counted as a retrain failure.
// Close is the shutdown path; Wait alone is for tests that want the
// round to complete.
func (g *Guard) Close() {
	g.cancel()
	g.wg.Wait()
}

// event invokes the OnEvent hook without holding the guard lock.
func (g *Guard) event(kind, detail string) {
	if g.cfg.OnEvent != nil {
		g.cfg.OnEvent(kind, detail)
	}
}

// Status is a point-in-time snapshot of the guard, JSON-ready for the
// /drift endpoint and the CLI's survival report.
type Status struct {
	State         string  `json:"state"`
	PoolEpoch     uint64  `json:"pool_epoch"`
	AccuracyEWMA  float64 `json:"accuracy_ewma"`
	AgreementEWMA float64 `json:"agreement_ewma"`
	Samples       int     `json:"samples"`
	Cooldown      int     `json:"cooldown"`
	ReplaySize    int     `json:"replay_size"`
	CanarySeen    int     `json:"canary_seen"`
	LastReason    string  `json:"last_reason,omitempty"`

	DriftEvents     uint64 `json:"drift_events"`
	Retrains        uint64 `json:"retrains"`
	RetrainFailures uint64 `json:"retrain_failures"`
	Rollbacks       uint64 `json:"rollbacks"`
	Commits         uint64 `json:"commits"`
}

// Status snapshots the guard.
func (g *Guard) Status() Status {
	g.mu.Lock()
	st := Status{
		State:         g.state.String(),
		PoolEpoch:     g.epoch,
		AccuracyEWMA:  g.accEWMA,
		AgreementEWMA: g.agrEWMA,
		Samples:       g.samples,
		Cooldown:      g.cooldown,
		ReplaySize:    len(g.replay),
		CanarySeen:    g.canarySeen,
		LastReason:    g.lastReason,
	}
	g.mu.Unlock()
	st.DriftEvents = g.ins.driftEvents.Value()
	st.Retrains = g.ins.retrains.Value()
	st.RetrainFailures = g.ins.retrainFailures.Value()
	st.Rollbacks = g.ins.rollbacks.Value()
	st.Commits = g.ins.commits.Value()
	return st
}

// String renders the snapshot as the survival report's drift line.
func (s Status) String() string {
	return fmt.Sprintf(
		"drift:    %s, pool epoch %d; accuracy %.3f, agreement %.3f (%d samples); %d drift events, %d retrains (%d failed), %d commits, %d rollbacks",
		s.State, s.PoolEpoch, s.AccuracyEWMA, s.AgreementEWMA, s.Samples,
		s.DriftEvents, s.Retrains, s.RetrainFailures, s.Commits, s.Rollbacks)
}

// Handler returns the /drift endpoint: the Status snapshot as indented
// JSON, for mounting on the obs introspection mux.
func (g *Guard) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(g.Status())
	})
}
