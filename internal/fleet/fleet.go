package fleet

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rhmd/internal/checkpoint"
	"rhmd/internal/core"
	"rhmd/internal/monitor"
	"rhmd/internal/obs"
	"rhmd/internal/prog"
)

// Config tunes a fleet. The zero value of every field selects a
// sensible default; Shards 0 or 1 is the single-failure-domain special
// case (one shard, the pre-fleet behavior behind the same facade).
type Config struct {
	// Shards is the number of independent engine shards (default 1).
	Shards int
	// CheckpointDir, when set, makes every shard durable: shard i
	// snapshots and WALs under <CheckpointDir>/shard-i, and a restarted
	// shard recovers from its own directory only. A durable engine
	// withholds any verdict it could not log, so every verdict the
	// fleet delivers is recoverable — the zero-acked-loss invariant the
	// chaos harness proves. Empty means volatile shards.
	CheckpointDir string
	// Engine is the per-shard engine template. Metrics and Checkpoint
	// must be left unset (each shard registers in its own view of
	// Metrics and each generation gets its own store); Spans is shared
	// across shards as given.
	Engine monitor.Config
	// Script, when non-nil, is the deterministic kill-a-shard chaos
	// scenario applied to generation 0 of each targeted shard (see
	// ShardScript). Every fault must target a shard below Shards.
	Script *ShardScript
	// WedgeTimeout is how long a shard may hold a backlog (queued +
	// in-flight programs) without delivering a single verdict before
	// the supervisor declares it wedged and restarts it (default 2s).
	WedgeTimeout time.Duration
	// Metrics is the fleet registry (nil = a fresh private one). It
	// carries the fleet's own families (shard states, restarts,
	// reroutes, sheds) and every shard engine's and checkpoint store's
	// instruments under a shard="i" label: shard i registers through
	// Metrics.WithLabel("shard", "i") for its whole life, so its series
	// stay continuous across restarts.
	Metrics *obs.Registry
	// OnShardDeath, when non-nil, is called from the restart goroutine
	// once a dead shard has left serving (its key range already
	// reroutes) and before its generation is torn down — the incident
	// flight recorder's trigger, which sees the dead generation intact.
	// It must not block for long: the dead shard stays down until it
	// returns.
	OnShardDeath func(shard int, reason string)
}

const (
	// checkpointFailureLimit is the failed-append/save count, counted
	// from a generation's start, at which a durable shard is declared
	// dead.
	checkpointFailureLimit = 3
	// restartRetries is how many rebuild attempts a restart gets after
	// the first before the shard is parked degraded.
	restartRetries = 3
	// supervisorEvery is the supervisor's health-poll interval and the
	// pause between rebuild attempts.
	supervisorEvery = 25 * time.Millisecond
)

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.WedgeTimeout <= 0 {
		c.WedgeTimeout = 2 * time.Second
	}
}

// Fleet is a sharded monitor: the same Submit/Results/Stats surface as
// one monitor.Engine, backed by N independent engine shards behind a
// consistent-hash router and a supervisor that restarts dead shards
// from their own checkpoints.
type Fleet struct {
	cfg Config
	// rhmd is the immutable construction base: restarted generations are
	// always built from it so checkpoint restore replays each shard's
	// history (snapshot fingerprint, WAL swap entries) exactly as
	// recorded; pool/poolEpoch are the fleet's current target generation
	// that restarted shards are caught up to afterwards (see swap.go).
	rhmd      *core.RHMD
	pool      atomic.Pointer[core.RHMD]
	poolEpoch atomic.Uint64
	ring      *ring
	shards    []*shard
	reg       *obs.Registry
	ins       *fleetInstruments

	results chan monitor.Report

	pumpWG   sync.WaitGroup
	closedCh chan struct{}
	supStop  chan struct{}
	supDone  chan struct{}

	mu      sync.Mutex
	ctx     context.Context
	started bool
	closed  bool
}

// New validates the configuration and builds the fleet: the routing
// ring, and one gen-0 engine per shard — durable shards open their
// checkpoint directory and restore whatever a previous life left
// there, so a fleet restarted over an existing CheckpointDir resumes
// every shard's state.
func New(r *core.RHMD, cfg Config) (*Fleet, error) {
	if r == nil || r.Size() == 0 {
		return nil, fmt.Errorf("fleet: fleet needs a non-empty RHMD pool")
	}
	if cfg.Engine.Metrics != nil {
		return nil, fmt.Errorf("fleet: Engine.Metrics must be unset (each shard registers in its view of Config.Metrics)")
	}
	if cfg.Engine.Checkpoint != nil {
		return nil, fmt.Errorf("fleet: Engine.Checkpoint must be unset (use CheckpointDir for per-shard stores)")
	}
	cfg.fill()
	if cfg.Script != nil {
		for _, sf := range cfg.Script.Faults {
			if sf.Shard < 0 || sf.Shard >= cfg.Shards {
				return nil, fmt.Errorf("fleet: chaos script targets shard %d, but the fleet has %d shards", sf.Shard, cfg.Shards)
			}
		}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	f := &Fleet{
		cfg:      cfg,
		rhmd:     r,
		ring:     newRing(cfg.Shards),
		reg:      reg,
		results:  make(chan monitor.Report, cfg.Shards*8),
		closedCh: make(chan struct{}),
		supStop:  make(chan struct{}),
		supDone:  make(chan struct{}),
	}
	f.ins = newFleetInstruments(reg, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{idx: i, reg: reg.WithLabel("shard", strconv.Itoa(i))}
		if cfg.CheckpointDir != "" {
			sh.dir = filepath.Join(cfg.CheckpointDir, fmt.Sprintf("shard-%d", i))
		}
		eng, store, chaos, err := f.newGeneration(sh, 0)
		if err != nil {
			for _, prev := range f.shards {
				if prev.store != nil {
					_ = prev.store.Close() // best effort on the construction-failure path
				}
			}
			return nil, err
		}
		sh.eng.Store(eng)
		sh.store = store
		sh.chaos = chaos
		f.shards = append(f.shards, sh)
		f.ins.state[i].Set(float64(Serving))
	}
	f.ins.serving.Set(float64(cfg.Shards))
	// Fleet-level SLI aggregate: the serving fraction as a gauge func,
	// so an SLO objective (and any scrape) reads one normalized number
	// instead of dividing rhmd_fleet_serving by the configured count.
	shards := cfg.Shards
	reg.GaugeFunc("rhmd_fleet_serving_fraction",
		"Fraction of configured shards currently serving (1 = full fleet).",
		func() float64 { return f.ins.serving.Value() / float64(shards) })
	f.alignPools()
	return f, nil
}

// newGeneration builds one engine life for a shard: instruments in the
// shard's registry view, the shard's own checkpoint store (with the
// chaos filesystem when scripted), the scripted fault injector, and a
// crash callback that restarts the shard. Durable generations restore
// the shard's snapshot+WAL before returning, recording the verdict
// count the checkpoint holds as the shard's zero-acked-loss baseline.
// The generation's checkpoint-failure count starts at the shard's
// cumulative count so far.
func (f *Fleet) newGeneration(sh *shard, gen uint64) (*monitor.Engine, *checkpoint.Store, *chaosInjector, error) {
	cfg := f.cfg.Engine
	cfg.Metrics = sh.reg
	chaos := f.chaosFor(sh.idx, gen, f.cfg.Engine.Injector)
	if chaos != nil {
		cfg.Injector = chaos
	}
	var store *checkpoint.Store
	if sh.dir != "" {
		st, err := checkpoint.Open(sh.dir, checkpoint.Options{FS: f.chaosFS(sh.idx, gen)})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("fleet: opening shard %d checkpoint dir: %w", sh.idx, err)
		}
		store = st
		cfg.Checkpoint = store
	}
	// kill only claims the restart and starts its goroutine, so the
	// dying goroutine never blocks; a second crash of the same
	// generation finds the restart already claimed.
	cfg.OnWorkerCrash = func(error) { f.kill(sh, "worker-crash") }
	eng, err := monitor.New(f.rhmd, cfg)
	if err == nil && store != nil {
		var ri *monitor.RestoreInfo
		if ri, err = eng.Restore(); err == nil && ri != nil {
			sh.restored.Store(ri.Verdicts)
		}
	}
	if err != nil {
		if store != nil {
			_ = store.Close() // the generation never went live; nothing durable is lost
		}
		return nil, nil, nil, fmt.Errorf("fleet: building shard %d gen %d: %w", sh.idx, gen, err)
	}
	sh.ckptBase.Store(eng.Stats().CheckpointFailures)
	return eng, store, chaos, nil
}

// Registry returns the fleet registry, shard engines included — mount
// it on an obs.NewMux to expose the fleet's /metrics.
func (f *Fleet) Registry() *obs.Registry { return f.reg }

// Home returns the key's home shard on the routing ring, ignoring
// liveness (the shard that serves it when everything is up). The key
// is reduced to its stream part first (see StreamKey).
func (f *Fleet) Home(key string) int { return f.ring.home(StreamKey(key)) }

// Start launches every shard, the supervisor, and the result pumps.
// Cancelling ctx stops the whole fleet. Start is idempotent.
func (f *Fleet) Start(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return
	}
	f.started = true
	f.ctx = ctx
	for _, sh := range f.shards {
		cctx, cancel := context.WithCancel(ctx)
		sh.cancel = cancel
		sh.pumpDone = make(chan struct{})
		eng := sh.eng.Load()
		eng.Start(cctx)
		f.pumpWG.Add(1)
		go f.pump(sh, 0, eng, sh.pumpDone)
	}
	go f.supervise()
	go f.closer(ctx)
}

// Submit routes a program to its shard by stream key — the program
// name up to the first '#' (see StreamKey), so producers can pin many
// unique programs to one stream. It returns false when the fleet is
// closed, no shard is serving, or the target shard sheds it (queue
// backpressure) — shedding stays explicit, per shard. A submission
// whose home shard is down is rerouted to the next live sibling on the
// ring and counted against the home shard.
func (f *Fleet) Submit(p *prog.Program) bool {
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		f.ins.shed.Inc()
		return false
	}
	key := StreamKey(p.Name)
	home := f.ring.home(key)
	target := f.ring.route(key, func(i int) bool { return f.shards[i].shardState() == Serving })
	if target < 0 {
		f.ins.shed.Inc()
		return false
	}
	if target != home {
		f.ins.rerouted[home].Inc()
	}
	return f.shards[target].eng.Load().Submit(p)
}

// Results returns the merged report stream of every shard, each report
// stamped with the shard and generation that produced it. The channel
// closes after Close (or context cancellation) once every shard has
// drained.
func (f *Fleet) Results() <-chan monitor.Report { return f.results }

// Close stops accepting submissions and lets every shard drain. It
// does not wait; range over Results to observe completion. The
// supervisor stays up until the drain finishes, so a shard that is
// wedged at Close time is still torn down (teardown-only: it is not
// rebuilt).
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	engs := make([]*monitor.Engine, 0, len(f.shards))
	for _, sh := range f.shards {
		engs = append(engs, sh.eng.Load())
	}
	f.mu.Unlock()
	for _, e := range engs {
		e.Close()
	}
	close(f.closedCh)
}

// Kill manually declares a shard dead, as if the supervisor had
// detected it — the manual chaos lever. It is a no-op for an unknown
// index or a shard already being restarted.
func (f *Fleet) Kill(idx int, reason string) {
	if idx < 0 || idx >= len(f.shards) {
		return
	}
	f.kill(f.shards[idx], reason)
}

// pump forwards one engine generation's reports into the merged result
// stream, stamping shard and generation, counting deliveries (the
// supervisor's progress signal), and arming the gen-0 chaos script at
// its delivery threshold.
func (f *Fleet) pump(sh *shard, gen uint64, eng *monitor.Engine, done chan struct{}) {
	defer f.pumpWG.Done()
	defer close(done)
	var chaos *chaosInjector
	if gen == 0 {
		chaos = sh.chaos
	}
	for rep := range eng.Results() {
		rep.Shard = sh.idx
		rep.ShardGen = gen
		select {
		case f.results <- rep:
		case <-f.ctx.Done():
			return
		}
		chaos.observe(sh.delivered.Add(1))
	}
}

// supervise is the shard health loop: it polls every serving shard
// for the two slow deaths — checkpoint failures past the limit, and a
// wedged queue (a worker crash restarts its shard from the crash
// callback; see newGeneration).
// Wedge detection keys on the engine's window-granular Progress
// counter, not on delivered verdicts: a slow shard still ticks every
// window it extracts or classifies, while a wedged one (workers
// blocked inside classifications that will never return) freezes. A
// shard is declared wedged when it holds a backlog with zero window
// progress for WedgeTimeout.
func (f *Fleet) supervise() {
	defer close(f.supDone)
	tick := time.NewTicker(supervisorEvery)
	defer tick.Stop()
	type progress struct {
		gen       uint64
		delivered uint64
		windows   uint64
		since     time.Time
	}
	last := make([]progress, len(f.shards))
	for i := range last {
		last[i].since = time.Now()
	}
	for {
		select {
		case <-f.supStop:
			return
		case <-tick.C:
			for i, sh := range f.shards {
				if sh.shardState() != Serving {
					last[i].since = time.Now()
					continue
				}
				eng := sh.eng.Load()
				st := eng.Stats()
				if sh.dir != "" && st.CheckpointFailures-sh.ckptBase.Load() >= checkpointFailureLimit {
					f.kill(sh, "checkpoint-failures")
					continue
				}
				gen, delivered, windows := sh.gen.Load(), sh.delivered.Load(), eng.Progress()
				backlog := st.QueueDepth + st.Inflight
				if gen != last[i].gen || delivered != last[i].delivered || windows != last[i].windows || backlog == 0 {
					last[i] = progress{gen: gen, delivered: delivered, windows: windows, since: time.Now()}
					continue
				}
				if time.Since(last[i].since) >= f.cfg.WedgeTimeout {
					f.kill(sh, "wedged-queue")
				}
			}
		}
	}
}

// kill starts one shard restart, deduping concurrent death signals
// (crash callback, checkpoint failures and wedge detection can all
// fire for the same dying shard).
func (f *Fleet) kill(sh *shard, reason string) {
	if !sh.restartPending.CompareAndSwap(false, true) {
		return
	}
	go f.restart(sh, reason)
}

// restart is the supervisor's recovery sequence for one dead shard:
//
//	serving → degraded:   reroute begins; intake stops; OnShardDeath
//	                      fires; the old generation is cancelled
//	                      (cancellation, not the window deadline, is
//	                      what unblocks wedged workers) and its pump
//	                      drained.
//	degraded → restarting: the old store is closed; a fresh engine
//	                      generation is rebuilt from the shard's own
//	                      snapshot+WAL (retried up to restartRetries times).
//	restarting → serving: the new generation goes live and the key
//	                      range comes home.
//
// Only this shard's resources are touched; sibling shards never block.
// If the fleet closed mid-restart the sequence degenerates to teardown
// only, and if every rebuild attempt fails the shard parks degraded
// with its keys left rerouted.
func (f *Fleet) restart(sh *shard, reason string) {
	f.mu.Lock()
	oldGen := sh.gen.Load()
	eng := sh.eng.Load()
	cancel := sh.cancel
	done := sh.pumpDone
	store := sh.store
	sh.store = nil
	sh.lastReason = reason
	f.setState(sh, Degraded)
	f.mu.Unlock()

	// Fire the death hook out of rotation but before teardown, while the
	// dead generation is intact: the incident recorder wants the scene
	// of the crime, not the rebuilt shard. Already on the restart
	// goroutine, so the supervisor loop is never blocked by the hook's
	// I/O.
	if f.cfg.OnShardDeath != nil {
		f.cfg.OnShardDeath(sh.idx, reason)
	}
	eng.Close()
	if cancel != nil {
		cancel()
	}
	if done != nil {
		<-done
	}
	if store != nil {
		if err := store.Close(); err != nil {
			// Likely the very disk failure that killed the shard.
			f.ins.restartErrs[sh.idx].Inc()
		}
	}

	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return
	}

	f.setState(sh, Restarting)
	newGen := oldGen + 1
	for attempt := 0; attempt <= restartRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(supervisorEvery):
			case <-f.ctx.Done():
				return
			}
		}
		eng2, store2, _, err := f.newGeneration(sh, newGen)
		if err != nil {
			f.ins.restartErrs[sh.idx].Inc()
			continue
		}
		// The rebuilt engine restored its own pool history; if the fleet
		// swapped generations while this shard was down, catch it up to
		// the current target before it goes live.
		if err := f.catchUp(sh, eng2, f.pool.Load(), f.poolEpoch.Load()); err != nil {
			f.ins.restartErrs[sh.idx].Inc()
			if store2 != nil {
				_ = store2.Close() // the generation never went live
			}
			continue
		}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			if store2 != nil {
				if cerr := store2.Close(); cerr != nil {
					f.ins.restartErrs[sh.idx].Inc()
				}
			}
			return
		}
		cctx, cancel2 := context.WithCancel(f.ctx)
		sh.cancel = cancel2
		sh.store = store2
		sh.eng.Store(eng2)
		sh.gen.Store(newGen)
		sh.pumpDone = make(chan struct{})
		eng2.Start(cctx)
		f.pumpWG.Add(1)
		go f.pump(sh, newGen, eng2, sh.pumpDone)
		f.setState(sh, Serving)
		f.mu.Unlock()
		sh.restarts.Add(1)
		f.ins.restarts[sh.idx].Inc()
		sh.restartPending.Store(false)
		return
	}
	// Recovery exhausted: park the shard degraded, keys rerouted.
	// restartPending stays set so the supervisor does not hot-loop on a
	// shard that cannot come back.
	f.setState(sh, Degraded)
}

// closer finishes the fleet's shutdown once Close is called or the
// start context is cancelled: it waits for every pump (the supervisor
// keeps running meanwhile so wedged shards still get torn down), stops
// the supervisor, closes the remaining stores, and closes the merged
// result stream — so "Results closed" means every shard drained and
// every final checkpoint was attempted.
func (f *Fleet) closer(ctx context.Context) {
	select {
	case <-f.closedCh:
	case <-ctx.Done():
		f.Close()
	}
	f.pumpWG.Wait()
	close(f.supStop)
	<-f.supDone
	f.mu.Lock()
	for _, sh := range f.shards {
		if sh.store != nil {
			if err := sh.store.Close(); err != nil {
				f.ins.restartErrs[sh.idx].Inc()
			}
			sh.store = nil
		}
	}
	f.mu.Unlock()
	close(f.results)
}
