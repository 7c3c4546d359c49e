package benchrunner

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"rhmd/internal/core"
	"rhmd/internal/dataset"
	"rhmd/internal/experiments"
	"rhmd/internal/features"
	"rhmd/internal/fleet"
	"rhmd/internal/monitor"
	"rhmd/internal/obs"
	"rhmd/internal/obs/slo"
	"rhmd/internal/prog"
	"rhmd/internal/scenario"
)

// Options tunes a scenario run.
type Options struct {
	// Pool is the detector pool under test. Nil trains (and caches) the
	// standard smoke-scale six-detector pool.
	Pool *core.RHMD
	// OutDir receives profile captures (default ".").
	OutDir string
	// Profile enables CPU and heap pprof capture around the replay,
	// written to BENCH_<scenario>.cpu.pprof / .heap.pprof in OutDir.
	Profile bool
	// SLO runs the standard SLO objective set against the run's
	// registry (windows compressed to the seconds scale of a scenario
	// replay) and records per-objective conformance verdicts in the
	// report — the scenario doubles as an SLO conformance run, and the
	// throughput delta against a non-SLO run measures the engine's
	// overhead. The SLO engine's own instruments go to a private
	// registry so the report's before/after diff stays clean.
	SLO bool
}

// runner is the execution surface the engine and the fleet share —
// their method sets are deliberately identical, so one replay loop
// drives both paths.
type runner interface {
	Start(ctx context.Context)
	Submit(p *prog.Program) bool
	Results() <-chan monitor.Report
	Close()
}

// sharedPool trains the standard smoke-scale pool once per process:
// LR detectors over all three feature kinds × two collection periods,
// the same fixture the root benchmarks use. Training dominates
// benchrunner startup, so every scenario in a CLI invocation shares
// it.
var (
	poolOnce sync.Once
	poolVal  *core.RHMD
	poolErr  error
)

func sharedPool() (*core.RHMD, error) {
	poolOnce.Do(func() {
		e, err := experiments.NewEnv(experiments.SmokeConfig(42))
		if err != nil {
			poolErr = err
			return
		}
		periods := []int{e.Cfg.PeriodSmall, e.Cfg.Period}
		data := map[int]*dataset.MultiWindowData{}
		for _, p := range periods {
			mw, err := e.Windows("victim", p)
			if err != nil {
				poolErr = err
				return
			}
			data[p] = mw
		}
		specs := core.PoolSpecs(features.AllKinds(), periods, "lr")
		pool, err := core.TrainPool(specs, data, e.Cfg.Seed+9)
		if err != nil {
			poolErr = err
			return
		}
		poolVal, poolErr = core.New(pool, e.Cfg.Seed+10)
	})
	return poolVal, poolErr
}

// Run compiles the scenario and replays it: submit every event in
// order (honouring inter-arrival delays) against a single engine or a
// fleet per the spec, measure exact client-side verdict latencies,
// snapshot the metrics registry before and after, and assemble the
// BENCH report. The corpus is deterministic in the spec; wall-clock
// numbers of course are not.
func Run(spec scenario.Spec, opts Options) (*Report, error) {
	c, err := scenario.Compile(spec)
	if err != nil {
		return nil, err
	}
	pool := opts.Pool
	if pool == nil {
		if pool, err = sharedPool(); err != nil {
			return nil, err
		}
	}
	if opts.OutDir == "" {
		opts.OutDir = "."
	}

	norm := c.Spec // normalized copy: defaults filled
	tmpl := monitor.Config{
		Workers:        norm.Engine.Workers,
		QueueDepth:     norm.Engine.QueueDepth,
		TraceLen:       norm.Corpus.TraceLen,
		WindowDeadline: norm.Engine.WindowDeadline,
		Injector:       c.Injector,
	}
	if tmpl.QueueDepth <= 0 {
		tmpl.QueueDepth = len(c.Events)
	}
	if tmpl.WindowDeadline <= 0 {
		tmpl.WindowDeadline = 2 * time.Second
	}

	reg := obs.NewRegistry()
	var run runner
	var fl *fleet.Fleet
	if norm.Engine.Shards > 1 {
		fl, err = fleet.New(pool, fleet.Config{
			Shards:  norm.Engine.Shards,
			Engine:  tmpl,
			Script:  c.Script,
			Metrics: reg,
		})
		if err != nil {
			return nil, err
		}
		run = fl
	} else {
		tmpl.Metrics = reg
		eng, err := monitor.New(pool, tmpl)
		if err != nil {
			return nil, err
		}
		run = eng
	}

	var sloEng *slo.Engine
	var sloStop, sloDone chan struct{}
	if opts.SLO {
		objs := slo.DefaultObjectives(0)
		if norm.Engine.Shards > 1 {
			objs = slo.FleetObjectives(0, norm.Engine.Shards, 0)
		}
		sloEng, err = slo.New(slo.Config{
			Source:  reg,
			Metrics: obs.NewRegistry(),
			Now:     time.Now,
			// A scenario replay lasts seconds, not hours: compress the
			// alert windows to that scale so burn rates are meaningful
			// within one run.
			Interval: 50 * time.Millisecond,
			Windows: slo.Windows{
				FastShort: 250 * time.Millisecond,
				FastLong:  time.Second,
				SlowShort: 500 * time.Millisecond,
				SlowLong:  2 * time.Second,
			},
			Objectives: objs,
		})
		if err != nil {
			return nil, err
		}
		sloStop = make(chan struct{})
		sloDone = make(chan struct{})
		go func() {
			defer close(sloDone)
			sloEng.Run(sloStop)
		}()
	}

	rep := &Report{
		Schema:      SchemaVersion,
		Scenario:    norm.Name,
		Description: norm.Description,
		Seed:        norm.Seed,
		Fingerprint: fmt.Sprintf("%016x", c.Fingerprint()),
		Shards:      norm.Engine.Shards,
		Workers:     tmpl.Workers,
		Events:      len(c.Events),
		Evasive:     c.EvasiveCount(),
	}
	rep.GoVersion, rep.Revision, _ = buildID()

	var profiles Profiles
	var cpuFile *os.File
	if opts.Profile {
		cpuPath := filepath.Join(opts.OutDir, "BENCH_"+norm.Name+".cpu.pprof")
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close() //rhmd:ignore errclose best-effort cleanup on error path
			return nil, err
		}
		profiles.CPU = cpuPath
	}

	// Settle the heap so Mallocs/TotalAlloc deltas measure the replay,
	// not leftover garbage from pool training.
	runtime.GC()
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	before := reg.Snapshot()

	submitted := make([]time.Time, len(c.Events))
	received := make(map[string]time.Duration, len(c.Events))
	start := time.Now()
	run.Start(context.Background())
	//rhmd:ignore goroutineleak bounded by the finite compiled corpus: the loop submits len(c.Events) programs, then Close()s the run, which ends the consumer below
	go func() {
		for i, e := range c.Events {
			if e.Delay > 0 {
				time.Sleep(e.Delay)
			}
			submitted[i] = time.Now()
			run.Submit(e.Program)
		}
		run.Close()
	}()
	// Index events by name once; every name is unique by construction
	// ("<stream>#<base>-<index>"), so a verdict attributes exactly.
	byName := make(map[string]int, len(c.Events))
	for i, e := range c.Events {
		byName[e.Program.Name] = i
	}
	for r := range run.Results() {
		if i, ok := byName[r.Program]; ok {
			received[r.Program] = time.Since(submitted[i])
		}
	}
	wall := time.Since(start)
	if sloEng != nil {
		close(sloStop)
		<-sloDone
		// One final deterministic tick so the verdicts cover the whole
		// replay even if the last ticker interval never fired.
		sloEng.Tick()
	}

	after := reg.Snapshot()
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	if opts.Profile {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			return nil, err
		}
		heapPath := filepath.Join(opts.OutDir, "BENCH_"+norm.Name+".heap.pprof")
		hf, err := os.Create(heapPath)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(hf)
		if cerr := hf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		profiles.Heap = heapPath
		rep.Profiles = &profiles
	}

	rep.WallSeconds = wall.Seconds()
	rep.Counters = gatherCounters(run, fl)
	if rep.Counters.Processed > 0 {
		rep.ThroughputPerSec = float64(rep.Counters.Processed) / wall.Seconds()
		rep.AllocsPerOp = (msAfter.Mallocs - msBefore.Mallocs) / rep.Counters.Processed
		rep.BytesPerOp = (msAfter.TotalAlloc - msBefore.TotalAlloc) / rep.Counters.Processed
	}
	rep.Latency.Exact = exactPercentiles(received)
	// Engines and fleet shards alike register the verdict-latency
	// histogram in reg; the diff merges every shard's.
	if hv := after.Diff(before).Histogram("rhmd_monitor_verdict_latency_seconds"); hv != nil && hv.Count > 0 {
		rep.Latency.Histogram = &Percentiles{
			P50ms:   1000 * hv.Quantile(0.50),
			P95ms:   1000 * hv.Quantile(0.95),
			P99ms:   1000 * hv.Quantile(0.99),
			Samples: hv.Count,
		}
	}
	if sloEng != nil {
		for _, o := range sloEng.Status().Objectives {
			rep.SLO = append(rep.SLO, SLOVerdict{
				Objective:       o.Name,
				Target:          o.Target,
				State:           o.State,
				BadRatio:        o.BadRatio,
				BudgetRemaining: o.BudgetRemaining,
				BurnFast:        math.Min(o.BurnFastShort, o.BurnFastLong),
				BurnSlow:        math.Min(o.BurnSlowShort, o.BurnSlowLong),
			})
		}
	}
	return rep, nil
}

// buildID adapts obs.BuildInfo to the report fields, suffixing a dirty
// worktree the way Go's own -buildvcs stamping is usually rendered.
func buildID() (goversion, revision, modified string) {
	goversion, revision, modified = obs.BuildInfo()
	if modified == "true" && revision != "unknown" {
		revision += "-dirty"
	}
	return
}

// gatherCounters folds the run's terminal stats into the report shape:
// engine Stats directly, or fleet-level counters plus per-shard sums.
func gatherCounters(run runner, fl *fleet.Fleet) Counters {
	if fl == nil {
		s := run.(*monitor.Engine).Stats()
		return Counters{
			Processed:          s.ProgramsProcessed,
			Shed:               s.ProgramsShed,
			Failed:             s.ProgramsFailed,
			Undurable:          s.ProgramsUndurable,
			Windows:            s.Windows,
			Flagged:            s.Flagged,
			Degraded:           s.Degraded,
			DroppedWindows:     s.DroppedWindows,
			Retries:            s.Retries,
			Timeouts:           s.Timeouts,
			Panics:             s.Panics,
			WorkerCrashes:      s.WorkerCrashes,
			CheckpointFailures: s.CheckpointFailures,
			Quarantines:        s.Quarantines,
			Restores:           s.Restores,
			PoolGeneration:     s.PoolEpoch,
			PoolSwaps:          s.PoolSwaps,
		}
	}
	fs := fl.Stats()
	out := Counters{Shed: fs.Shed, PoolGeneration: fs.PoolEpoch}
	for _, h := range fs.Health {
		s := h.Stats
		out.Processed += s.ProgramsProcessed
		out.Failed += s.ProgramsFailed
		out.Undurable += s.ProgramsUndurable
		out.Windows += s.Windows
		out.Flagged += s.Flagged
		out.Degraded += s.Degraded
		out.DroppedWindows += s.DroppedWindows
		out.Retries += s.Retries
		out.Timeouts += s.Timeouts
		out.Panics += s.Panics
		out.WorkerCrashes += s.WorkerCrashes
		out.CheckpointFailures += s.CheckpointFailures
		out.Quarantines += s.Quarantines
		out.Restores += s.Restores
		out.Restarts += h.Restarts
		out.Rerouted += h.Rerouted
		out.PoolSwaps += s.PoolSwaps
	}
	return out
}

// exactPercentiles computes exact order statistics over the measured
// client-side latencies (rank = ceil(q·n), the same convention
// obs.Quantile estimates).
func exactPercentiles(lat map[string]time.Duration) *Percentiles {
	if len(lat) == 0 {
		return nil
	}
	ms := make([]float64, 0, len(lat))
	for _, d := range lat {
		ms = append(ms, float64(d)/float64(time.Millisecond))
	}
	sort.Float64s(ms)
	pick := func(q float64) float64 {
		rank := int(math.Ceil(q * float64(len(ms))))
		if rank < 1 {
			rank = 1
		}
		return ms[rank-1]
	}
	return &Percentiles{
		P50ms:   pick(0.50),
		P95ms:   pick(0.95),
		P99ms:   pick(0.99),
		Samples: uint64(len(ms)),
	}
}
