// Package rhmd's root benchmarks regenerate every figure of the paper's
// evaluation through the experiment drivers (see DESIGN.md §4 for the
// figure → driver → module mapping). They run at the smoke scale so the
// full suite finishes in minutes; `cmd/rhmd-bench -scale full` produces
// the EXPERIMENTS.md numbers.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
package rhmd_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"rhmd/internal/core"
	"rhmd/internal/dataset"
	"rhmd/internal/experiments"
	"rhmd/internal/features"
	"rhmd/internal/monitor"
	"rhmd/internal/obs"
	"rhmd/internal/obs/span"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
)

// env returns the shared smoke-scale experiment environment. Sharing it
// across benchmarks mirrors the real workflow (one corpus, many
// experiments) and keeps `go test -bench=.` fast.
func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = experiments.NewEnv(experiments.SmokeConfig(42))
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

// runExperiment benchmarks one registered experiment driver.
func runExperiment(b *testing.B, id string) {
	e := env(b)
	x, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := x.Run(e)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("%s produced no data", id)
		}
	}
}

// BenchmarkFig2 regenerates Figure 2: baseline detector AUC/accuracy for
// {LR, NN} × {Instructions, Memory, Architectural}.
func BenchmarkFig2(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig3a regenerates Figure 3a: reverse-engineering accuracy
// across attacker collection periods.
func BenchmarkFig3a(b *testing.B) { runExperiment(b, "fig3a") }

// BenchmarkFig3b regenerates Figure 3b: reverse-engineering accuracy
// across attacker feature vectors.
func BenchmarkFig3b(b *testing.B) { runExperiment(b, "fig3b") }

// BenchmarkFig4 regenerates Figures 4a/4b: reverse-engineering LR and NN
// victims with LR/DT/NN surrogates.
func BenchmarkFig4(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig6 regenerates Figure 6: random instruction injection does
// not evade.
func BenchmarkFig6(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig8 regenerates Figures 8a/8b: least-weight injection against
// LR and NN victims.
func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9: static/dynamic overhead of the
// injection payloads.
func BenchmarkFig9(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10: weighted injection against the
// LR victim.
func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Figures 11a/11b: retraining LR and NN with
// evasive malware fractions.
func BenchmarkFig11(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig13 regenerates Figure 13: the multi-generation
// evade/retrain arms race.
func BenchmarkFig13(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14 regenerates Figures 14a/14b: reverse-engineering RHMDs
// over two and three feature vectors.
func BenchmarkFig14(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkFig15 regenerates Figures 15a/15b: RHMDs over features × two
// collection periods.
func BenchmarkFig15(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkFig16 regenerates Figure 16: RHMD evasion resilience under
// least-weight injection.
func BenchmarkFig16(b *testing.B) { runExperiment(b, "fig16") }

// BenchmarkTheorem1 regenerates the §8 PAC-bound analysis for the
// six-detector pool.
func BenchmarkTheorem1(b *testing.B) { runExperiment(b, "theorem1") }

// BenchmarkHWCost regenerates the §7 hardware overhead estimates.
func BenchmarkHWCost(b *testing.B) { runExperiment(b, "hw") }

// BenchmarkAblationEnsemble compares the deterministic majority-vote
// ensemble (§9.1) against the RHMD built from the same base detectors.
func BenchmarkAblationEnsemble(b *testing.B) { runExperiment(b, "ablation-ensemble") }

// BenchmarkAblationSwitching sweeps switching policies across the §8.2
// accuracy/resilience trade-off.
func BenchmarkAblationSwitching(b *testing.B) { runExperiment(b, "ablation-switching") }

// BenchmarkAblationWhitebox runs the §8.3 white-box iterative evasion
// and the non-stationary counter-measure.
func BenchmarkAblationWhitebox(b *testing.B) { runExperiment(b, "ablation-whitebox") }

// benchPool trains the six-detector pool once, shared by the monitor
// benchmarks below.
var (
	benchPoolOnce sync.Once
	benchRHMD     *core.RHMD
	benchPoolErr  error
)

func monitorPool(b *testing.B) *core.RHMD {
	b.Helper()
	e := env(b)
	benchPoolOnce.Do(func() {
		periods := []int{e.Cfg.PeriodSmall, e.Cfg.Period}
		data := map[int]*dataset.MultiWindowData{}
		for _, p := range periods {
			mw, err := e.Windows("victim", p)
			if err != nil {
				benchPoolErr = err
				return
			}
			data[p] = mw
		}
		specs := core.PoolSpecs(features.AllKinds(), periods, "lr")
		pool, err := core.TrainPool(specs, data, e.Cfg.Seed+9)
		if err != nil {
			benchPoolErr = err
			return
		}
		benchRHMD, benchPoolErr = core.New(pool, e.Cfg.Seed+10)
	})
	if benchPoolErr != nil {
		b.Fatal(benchPoolErr)
	}
	return benchRHMD
}

// benchmarkMonitor streams the attacker-test corpus through a healthy
// engine once per iteration. The two variants differ only in the
// observability wiring, so their ns/op gap is exactly the cost of the
// instrumentation hot path.
func benchmarkMonitor(b *testing.B, cfg func(*monitor.Config)) {
	e := env(b)
	r := monitorPool(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mcfg := monitor.Config{Workers: 4, QueueDepth: len(e.AtkTest),
			TraceLen: e.Cfg.TraceLen, WindowDeadline: 2 * time.Second}
		if cfg != nil {
			cfg(&mcfg)
		}
		eng, err := monitor.New(r, mcfg)
		if err != nil {
			b.Fatal(err)
		}
		eng.Start(context.Background())
		for _, p := range e.AtkTest {
			if !eng.Submit(p) {
				b.Fatal("submission shed with roomy queue")
			}
		}
		eng.Close()
		n := 0
		for rep := range eng.Results() {
			if rep.Err != nil {
				b.Fatal(rep.Err)
			}
			n++
		}
		if n != len(e.AtkTest) {
			b.Fatalf("%d reports for %d programs", n, len(e.AtkTest))
		}
	}
}

// BenchmarkMonitorBaseline is the uninstrumented reference: the engine's
// always-on registry counters (pre-resolved atomics) but no span
// recorder and no scrape traffic.
func BenchmarkMonitorBaseline(b *testing.B) { benchmarkMonitor(b, nil) }

// BenchmarkMonitorInstrumented is the guard for the observability PR:
// a shared registry and a /metrics render per iteration. Compare against
// BenchmarkMonitorBaseline; the delta must stay in the noise, because
// the hot path adds only pre-resolved atomic operations (no locks, no
// label lookups, no allocation).
func BenchmarkMonitorInstrumented(b *testing.B) {
	reg := obs.NewRegistry()
	benchmarkMonitor(b, func(c *monitor.Config) {
		// A fresh registry per engine would be the production shape; the
		// shared one here is fine because each iteration only adds to
		// the same counters, and keeps the benchmark allocation-honest.
		c.Metrics = reg
	})
	var sink strings.Builder
	if err := reg.WritePrometheus(&sink); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMonitorSpans is the guard for the verdict-tracing PR: the
// instrumented wiring of BenchmarkMonitorInstrumented plus a span
// recorder at production sampling defaults and exemplars on — what
// rhmd-monitor runs with -metrics-addr. The delta against
// BenchmarkMonitorInstrumented is exactly the per-verdict span cost —
// pooled span records, an injected clock read per span edge, and a
// flags-check at Finish — and must stay under 10% (see
// results/bench-spans.txt for a committed run).
func BenchmarkMonitorSpans(b *testing.B) {
	reg := obs.NewRegistry()
	rec, err := span.NewRecorder(span.Config{Seed: 42, Now: time.Now}, reg)
	if err != nil {
		b.Fatal(err)
	}
	benchmarkMonitor(b, func(c *monitor.Config) {
		c.Metrics = reg
		c.Spans = rec
		c.Exemplars = true
	})
	if rec.Kept()+rec.Dropped() == 0 {
		b.Fatal("no verdict traces reached the tail sampler")
	}
	var sink strings.Builder
	if err := reg.WritePrometheus(&sink); err != nil {
		b.Fatal(err)
	}
}
