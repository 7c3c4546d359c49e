package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rhmd/internal/checkpoint"
	"rhmd/internal/core"
	"rhmd/internal/dataset"
	"rhmd/internal/experiments"
	"rhmd/internal/features"
	"rhmd/internal/fleet"
	"rhmd/internal/monitor"
	"rhmd/internal/obs/span"
	"rhmd/internal/prog"
	"rhmd/internal/scenario"
)

// fleetRate is the open-loop rate of unique-adversary-fleet, in
// submissions per second: about a quarter of that workload's
// closed-loop capacity (410–470/s on a 2-vCPU ext4 VM) when the
// benchmark was introduced. At 250/s and 150/s a shared host's CPU and
// fsync stalls queued up behind the open loop and set the p99: across
// seeds its interquartile range was 25–43% of the median. It is fixed
// so every later commit is offered the same load.
const fleetRate = 100

// windowDeadline replaces the engine's 25 ms default: a shared CPU can
// stall a healthy classification past 25 ms, and the retry or fallback
// that follows would make a verdict differ from the reference.
const windowDeadline = 2 * time.Second

// workload is one traffic mix. Each is chosen to load a different layer
// of the verdict path; README.md gives the layer-to-metric map.
type workload struct {
	name     string
	why      string
	traceLen int
	// fleet serves through an nproc-shard fleet with one worker per
	// shard; otherwise one engine with nproc workers.
	fleet bool
	// durable gives the engine (or each shard) a real checkpoint store.
	durable bool
	// rate is the open-loop submission rate per second; 0 runs a closed
	// loop with two submissions outstanding per worker.
	rate float64
	// spec builds the corpus chunk of measured slice `slice` of `slices`
	// for a seed, holding `events` submissions. Closed loops use one
	// chunk and cycle it.
	spec func(seed uint64, slice, slices, events int) scenario.Spec
}

var workloads = []workload{
	{
		name:     "repeat-long",
		why:      "closed loop, one volatile engine, 40k-instruction traces of 30 repeating programs: feature extraction is ~95% of service and there is no WAL",
		traceLen: 40_000,
		spec:     steadyBased("repeat-long", 40_000),
	},
	{
		name:     "unique-adversary-fleet",
		why:      "open loop at a fixed rate into a durable nproc-shard fleet; every program is distinct and the evasive share ramps 0 to 0.8",
		traceLen: 40_000,
		fleet:    true,
		durable:  true,
		rate:     fleetRate,
		spec: func(seed uint64, slice, slices, events int) scenario.Spec {
			// One distinct base program per event: size the population so
			// Compile never cycles, and give every chunk its own seed.
			// Each chunk covers its share of the 0 → 0.8 evasive ramp.
			fams := len(prog.BenignFamilies()) + len(prog.MalwareFamilies())
			per := (events + fams - 1) / fams
			return scenario.Spec{
				Name:   "unique-adversary-fleet",
				Seed:   seed ^ uint64(slice)<<40,
				Events: events,
				Corpus: dataset.Config{BenignPerFamily: per, MalwarePerFamily: per, TraceLen: 40_000},
				Shape:  scenario.Shape{Kind: scenario.Steady, Rate: fleetRate},
				Adversary: scenario.Adversary{
					Start:      0.8 * float64(slice) / float64(slices),
					End:        0.8 * float64(slice+1) / float64(slices),
					PayloadLen: 4,
					MemDelta:   64,
				},
			}
		},
	},
	{
		name:     "short-durable",
		why:      "closed loop, one engine with a real checkpoint store, 4k-instruction traces of 30 repeating programs: the per-verdict WAL fsync is a large share of service",
		traceLen: 4_000,
		durable:  true,
		spec:     steadyBased("short-durable", 4_000),
	},
}

// steadyBased builds the steady scenario's corpus, 96 events over the
// default 30-program population, under a new name.
func steadyBased(name string, traceLen int) func(uint64, int, int, int) scenario.Spec {
	return func(seed uint64, _, _, _ int) scenario.Spec {
		return scenario.Spec{
			Name:   name,
			Seed:   seed,
			Events: 96,
			Corpus: dataset.Config{TraceLen: traceLen},
		}
	}
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// nproc is the CPU count the engines and load generators are sized to.
func nproc() int { return runtime.GOMAXPROCS(0) }

// runner is the serving surface monitor.Engine and fleet.Fleet share.
type runner interface {
	Start(ctx context.Context)
	Submit(p *prog.Program) bool
	Results() <-chan monitor.Report
	Close()
}

// system is one built serving stack: the pool, the compiled corpus and
// the engine or fleet over them.
type system struct {
	seed   uint64
	pool   *core.RHMD
	corpus *scenario.Corpus
	run    runner
	eng    *monitor.Engine // nil on the fleet path
	fl     *fleet.Fleet    // nil on the engine path
	store  *checkpoint.Store
	dir    string // checkpoint directory, "" when volatile
}

// newPool trains the standard smoke-scale six-detector pool (LR over
// all three feature kinds at both collection periods), the pool the
// scenario benchrunner serves. Its seed is fixed: --seed varies the
// traffic, not the detector.
func newPool() (*core.RHMD, error) {
	e, err := experiments.NewEnv(experiments.SmokeConfig(42))
	if err != nil {
		return nil, err
	}
	periods := []int{e.Cfg.PeriodSmall, e.Cfg.Period}
	data := map[int]*dataset.MultiWindowData{}
	for _, p := range periods {
		mw, err := e.Windows("victim", p)
		if err != nil {
			return nil, err
		}
		data[p] = mw
	}
	specs := core.PoolSpecs(features.AllKinds(), periods, "lr")
	pool, err := core.TrainPool(specs, data, e.Cfg.Seed+9)
	if err != nil {
		return nil, err
	}
	return core.New(pool, e.Cfg.Seed+10)
}

// setUp is the timed set-up: train the pool, compile the first corpus
// chunk and build the serving stack with its checkpoint store open.
func (w workload) setUp(seed uint64, slices, events int, dir string) (*system, error) {
	pool, err := newPool()
	if err != nil {
		return nil, fmt.Errorf("training pool: %w", err)
	}
	c, err := w.compile(seed, 0, slices, events)
	if err != nil {
		return nil, err
	}
	return w.build(seed, pool, c, dir, nil)
}

func (w workload) compile(seed uint64, slice, slices, events int) (*scenario.Corpus, error) {
	return scenario.Compile(w.spec(seed, slice, slices, events))
}

// build constructs a fresh engine or fleet over pool and corpus chunk
// 0 of seed. dir must not exist yet when the workload is durable;
// spans, when non-nil, turns on the engine's verdict span recorder.
func (w workload) build(seed uint64, pool *core.RHMD, c *scenario.Corpus, dir string, spans *span.Recorder) (*system, error) {
	s := &system{seed: seed, pool: pool, corpus: c}
	if w.durable {
		s.dir = dir
	}
	eng := monitor.Config{
		TraceLen:       w.traceLen,
		WindowDeadline: windowDeadline,
		Spans:          spans,
	}
	if w.fleet {
		eng.Workers = 1
		// Room for more than a second of open-loop backlog per shard.
		eng.QueueDepth = 128
		fl, err := fleet.New(pool, fleet.Config{Shards: nproc(), CheckpointDir: s.dir, Engine: eng})
		if err != nil {
			return nil, err
		}
		s.fl, s.run = fl, fl
		return s, nil
	}
	eng.Workers = nproc()
	eng.QueueDepth = 2 * eng.Workers // the closed loop's outstanding count: never sheds
	if w.durable {
		st, err := checkpoint.Open(s.dir, checkpoint.Options{})
		if err != nil {
			return nil, err
		}
		s.store, eng.Checkpoint = st, st
	}
	e, err := monitor.New(pool, eng)
	if err != nil {
		s.teardown()
		return nil, err
	}
	s.eng, s.run = e, e
	return s, nil
}

// teardown releases the checkpoint store and deletes its directory.
// Call it after the run has drained, or on a stack that never started.
func (s *system) teardown() {
	if s.store != nil {
		_ = s.store.Close() // the directory is deleted next; nothing to keep
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir) // best effort: the run's temp root is removed on exit too
	}
}

// progKey names a distinct program: its trace seed and variant
// generation. The switching schedule is a function of the seed and the
// pool key, so equal keys also mean equal schedules.
type progKey struct {
	seed uint64
	gen  int
}

func keyOf(p *prog.Program) progKey { return progKey{p.Seed, p.Generation} }

// reference adds to ref the core.RHMD.DetectTraced verdict of every
// distinct program of events it does not hold yet, computed on nproc
// goroutines. Every delivered verdict is checked against it.
func reference(ref map[progKey]bool, pool *core.RHMD, events []scenario.Event, traceLen int) error {
	var todo []*prog.Program
	seen := map[progKey]bool{}
	for _, e := range events {
		if k := keyOf(e.Program); !seen[k] && !hasKey(ref, k) {
			seen[k] = true
			todo = append(todo, e.Program)
		}
	}
	verdicts := make([]bool, len(todo))
	errs := make([]error, len(todo))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < nproc(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(todo) {
					return
				}
				verdicts[i], errs[i] = pool.DetectTraced(todo[i], traceLen)
			}
		}()
	}
	wg.Wait()
	for i, p := range todo {
		if errs[i] != nil {
			return fmt.Errorf("reference verdict for %s: %w", p.Name, errs[i])
		}
		ref[keyOf(p)] = verdicts[i]
	}
	return nil
}

func hasKey(ref map[progKey]bool, k progKey) bool {
	_, ok := ref[k]
	return ok
}
