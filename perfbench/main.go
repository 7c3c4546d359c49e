// Command perfbench measures the RHMD verdict path end to end and layer
// by layer. For each workload it compiles a seeded corpus with
// scenario.Compile, drives a monitor.Engine or fleet.Fleet through its
// public Start/Submit/Results/Close/Stats calls, checks every delivered
// verdict against core.RHMD.DetectTraced, and prints one metric per
// line followed by a single JSON result line.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload repeat-long --seed 42 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// also runs the workload with the engine's span recorder on, replays the
// corpus single-threaded through the layer calls under the benchmark's
// own spans, times the checkpoint and routing layers directly, and
// reports the per-layer ledger. --workload all runs every workload.
// The command exits 1 when any verdict differs from the reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"rhmd/internal/checkpoint"
	"rhmd/internal/fleet"
	"rhmd/internal/monitor"
	"rhmd/internal/obs/span"
)

// setupReps is how many times a run builds its stack; setup_s is the
// median.
const setupReps = 5

// replayBudget bounds the single-threaded replay of a traced run.
const replayBudget = 2 * time.Second

// endToEnd and perLayer list the metrics the result line carries, with
// their units, in BENCHMARK.json order.
var endToEnd = [][2]string{
	{"verdicts_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"alloc_kb_per_verdict", "KiB"},
	{"heap_peak_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayer = [][2]string{
	{"trace.exec_us", "us"},
	{"uarch.process_ns_per_instr", "ns"},
	{"features.extract_us", "us"},
	{"features.self_us", "us"},
	{"features.windows_per_verdict", "count"},
	{"features.repeat_share", "ratio"},
	{"core.draw_ns", "ns"},
	{"hmd.score_ns", "ns"},
	{"monitor.queue_wait_ms_p50", "ms"},
	{"monitor.queue_wait_ms_p99", "ms"},
	{"monitor.service_ms_p50", "ms"},
	{"monitor.classify_us_per_window", "us"},
	{"monitor.wal_fsync_us_p50", "us"},
	{"monitor.queue_depth_max", "count"},
	{"monitor.self_us", "us"},
	{"checkpoint.append_us_p50", "us"},
	{"checkpoint.append_us_p99", "us"},
	{"checkpoint.appends_per_s", "1/s"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.appends_per_verdict", "count"},
	{"fleet.route_ns", "ns"},
	{"fleet.shard_skew", "ratio"},
	{"fleet.rerouted", "count"},
	{"obs.spans_overhead_pct", "%"},
	{"serial.verdicts_per_s", "1/s"},
	{"bench.gen_late_ms_p99", "ms"},
	{"ledger.accounted_pct", "%"},
}

// units maps every metric the report prints to its unit, including the
// end-to-end figures that are printed but not gated (README.md says
// why).
var units = func() map[string]string {
	m := map[string]string{"latency_p99_ms": "ms", "failed_frac": "ratio", "accuracy": "ratio", "evasive_detect_rate": "ratio"}
	for _, l := range [][][2]string{endToEnd, perLayer} {
		for _, n := range l {
			m[n[0]] = n[1]
		}
	}
	return m
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	seed   uint64
	dur    time.Duration
	traced bool
	out    string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 42, "corpus seed")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	traced := fs.Int("trace", 0, "1 adds the traced run and reports the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for temporary checkpoint stores and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	todo := workloads
	if *name != "all" {
		w, ok := lookup(*name)
		if !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{w}
	}
	o := options{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), traced: *traced == 1, out: *out}
	names := endToEnd
	if o.traced {
		names = perLayer
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	mismatches := 0
	for _, w := range todo {
		r, err := w.bench(o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 2
		}
		r.print(stdout)
		res.Correct = res.Correct && r.correct
		res.Attempted += r.attempted
		res.Failed += r.failed
		mismatches += r.mismatches
		for _, n := range names {
			v, ok := r.values[n[0]]
			if !ok {
				fmt.Fprintf(stderr, "perfbench: %s: metric %s not measured\n", w.name, n[0])
				return 2
			}
			key := n[0]
			if len(todo) > 1 {
				key = w.name + "/" + key
			}
			res.Metrics[key] = metric{Value: v, Unit: n[1]}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if mismatches > 0 {
		fmt.Fprintf(stderr, "perfbench: %d verdicts differ from the DetectTraced reference\n", mismatches)
		return 1
	}
	return 0
}

// report is one workload's measurements.
type report struct {
	header     []string
	lines      []string
	values     map[string]float64
	correct    bool
	attempted  int
	failed     int
	mismatches int
}

// set records a metric and its printed line; note carries the sample
// count or says why a layer is absent.
func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	r.lines = append(r.lines, fmt.Sprintf("%-32s %14.4f %-6s %s", name, v, units[name], note))
}

func (r *report) print(w io.Writer) {
	for _, h := range r.header {
		fmt.Fprintln(w, "# "+h)
	}
	for _, l := range r.lines {
		fmt.Fprintln(w, strings.TrimRight(l, " "))
	}
}

// bench runs one workload: setupReps timed set-ups (the last stack
// serves), the reference, the untraced run, and with o.traced the
// traced run, the serial replay and the layer timings.
func (w workload) bench(o options) (*report, error) {
	tmp := filepath.Join(o.out, "tmp", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	warm := min(max(o.dur/10, 250*time.Millisecond), time.Second)
	slices := w.slices(o.dur)
	events := w.warmEvents(warm) + w.sliceEvents(o.dur)

	var setups []float64
	var sys *system
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t := time.Now()
		s, err := w.setUp(o.seed, slices, events, filepath.Join(tmp, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if sys != nil {
			sys.teardown()
		}
		sys = s
	}
	ref := map[progKey]bool{}
	if err := reference(ref, sys.pool, sys.corpus.Events, w.traceLen); err != nil {
		sys.teardown()
		return nil, err
	}
	res, err := w.drive(sys, ref, warm, o.dur, nil)
	sys.teardown()
	if err != nil {
		return nil, err
	}

	r := &report{values: map[string]float64{}}
	r.header = []string{
		fmt.Sprintf("perfbench workload=%s seed=%d seconds=%g trace=%t", w.name, o.seed, o.dur.Seconds(), o.traced),
		fmt.Sprintf("provenance fingerprint=%016x nproc=%d go=%s checkpoint_fs=%s", sys.corpus.Fingerprint(), nproc(), runtime.Version(), fsType(tmp)),
		fmt.Sprintf("workload repeat_share=%.4f evasive_share=%.4f windows_per_verdict=%.2f mean_program_instrs=%.0f distinct_programs=%d trace_len=%d",
			res.repeatShare, res.evasiveShare, windowsPerVerdict(sys), res.meanInstrs, res.distinct, w.traceLen),
		"why " + w.why,
	}
	r.correct = res.mismatched == 0 && res.errs == 0
	r.attempted, r.failed, r.mismatches = res.attempted, res.failed(), res.mismatched

	n := fmt.Sprintf("n=%d, median over %d slices", res.latN, slices)
	r.set("setup_s", median(setups), fmt.Sprintf("median of %d set-ups", setupReps))
	r.set("verdicts_per_s", res.vps, fmt.Sprintf("n=%d delivered over %d slices", res.delivered, slices))
	r.set("latency_p50_ms", res.p50Ms, n)
	r.set("latency_p99_ms", res.p99Ms, n)
	r.set("failed_frac", ratio(float64(res.failed()), float64(res.attempted)),
		fmt.Sprintf("n=%d: shed=%d failed=%d missing(incl. undurable)=%d mismatched=%d", res.attempted, res.shed, res.errs, res.missing, res.mismatched))
	r.set("accuracy", res.accuracy, fmt.Sprintf("n=%d", res.delivered))
	if res.evasive > 0 {
		r.set("evasive_detect_rate", ratio(float64(res.evasiveHit), float64(res.evasive)),
			fmt.Sprintf("%d/%d evasive flagged", res.evasiveHit, res.evasive))
	}
	r.set("alloc_kb_per_verdict", res.allocKB, fmt.Sprintf("n=%d", res.delivered))
	r.set("heap_peak_mb", res.heapPeakMB, "heap live after a full GC once drained and deadline timers fired")
	if !o.traced {
		return r, nil
	}
	return r, w.layers(o, r, sys, ref, res, tmp, warm)
}

// windowsPerVerdict reads classified windows per processed program from
// the stack's counters.
func windowsPerVerdict(s *system) float64 {
	if s.eng != nil {
		st := s.eng.Stats()
		return ratio(float64(st.Windows), float64(st.ProgramsProcessed))
	}
	var win, progs uint64
	for _, h := range s.fl.Stats().Health {
		win += h.Stats.Windows
		progs += h.Stats.ProgramsProcessed
	}
	return ratio(float64(win), float64(progs))
}

// queueDepth reads the deepest submission queue of the stack.
func queueDepth(s *system) func() uint64 {
	if s.eng != nil {
		return func() uint64 { return s.eng.Stats().QueueDepth }
	}
	return func() uint64 {
		var d uint64
		for _, h := range s.fl.Stats().Health {
			d = max(d, h.Stats.QueueDepth)
		}
		return d
	}
}

// layers fills the per-layer ledger: a traced run on a fresh stack, the
// serial replay, and direct timings of the checkpoint and fleet layers.
func (w workload) layers(o options, r *report, sys *system, ref map[progKey]bool, untraced *outcome, tmp string, warm time.Duration) error {
	rec, err := span.NewRecorder(span.Config{Seed: o.seed, Now: time.Now, KeepEvery: 1, Capacity: 2048}, nil)
	if err != nil {
		return err
	}
	tsys, err := w.build(sys.seed, sys.pool, sys.corpus, filepath.Join(tmp, "traced"), rec)
	if err != nil {
		return err
	}
	traced, err := w.drive(tsys, ref, warm, o.dur, queueDepth(tsys))
	tsys.teardown()
	if err != nil {
		return err
	}
	kept := rec.Snapshot()
	es := reduceSpans(kept)

	var store *checkpoint.Store
	if w.durable {
		if store, err = checkpoint.Open(filepath.Join(tmp, "replay"), checkpoint.Options{}); err != nil {
			return err
		}
		defer store.Close()
	}
	rp, err := serialReplay(sys.pool, sys.corpus.Events, w.warmEvents(warm), w.traceLen, ref, store, replayBudget)
	if err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d.json", w.name, o.seed)), rp.log.spans, kept); err != nil {
		return err
	}

	r.correct = r.correct && traced.mismatched == 0 && traced.errs == 0 && rp.mismatches == 0
	r.attempted += traced.attempted
	r.failed += traced.failed()
	r.mismatches += traced.mismatched + rp.mismatches

	self, calls := layerTotals(rp.log.spans)
	nv := float64(rp.verdicts)
	perVerdictUs := func(name string) float64 { return ratio(us(self[name]), nv) }
	perCallNs := func(name string) float64 { return ratio(float64(self[name].Nanoseconds()), float64(calls[name])) }
	replayed := fmt.Sprintf("serial replay, %d verdicts", rp.verdicts)
	windows := windowsPerVerdict(sys)

	traceUs, uarchUs, extractUs := perVerdictUs("trace.exec"), perVerdictUs("uarch.process"), perVerdictUs("features.extract")
	r.set("trace.exec_us", traceUs, replayed+", no-op sink")
	r.set("uarch.process_ns_per_instr", perCallNs("uarch.process"), fmt.Sprintf("%d instructions", calls["uarch.process"]))
	r.set("features.extract_us", extractUs, replayed)
	r.set("features.self_us", extractUs-traceUs-uarchUs, "extract minus trace and uarch")
	r.set("features.windows_per_verdict", windows, "engine counters, untraced run")
	r.set("features.repeat_share", untraced.repeatShare, fmt.Sprintf("n=%d submissions", untraced.attempted))
	drawNs, scoreNs := perCallNs("core.draw"), perCallNs("hmd.score")
	r.set("core.draw_ns", drawNs, fmt.Sprintf("%d draws", calls["core.draw"]))
	r.set("hmd.score_ns", scoreNs, fmt.Sprintf("%d windows", calls["hmd.score"]))

	spans := fmt.Sprintf("engine spans, n=%d verdicts", es.traces)
	r.set("monitor.queue_wait_ms_p50", quantile(es.queueWaitMs, 0.50), spans)
	r.set("monitor.queue_wait_ms_p99", quantile(es.queueWaitMs, 0.99), spans)
	r.set("monitor.service_ms_p50", quantile(es.serviceMs, 0.50), spans)
	r.set("monitor.classify_us_per_window", es.classifyUs, spans)
	r.set("monitor.wal_fsync_us_p50", quantile(es.walUs, 0.50), spans+", commit span")
	r.set("monitor.queue_depth_max", float64(traced.depthMax), "Stats() polled every 1ms, traced run")

	// The ledger: one verdict's service time split over the layers. The
	// engine draws windows+1 times per verdict.
	appendUs := perVerdictUs("checkpoint.append")
	layered := extractUs + drawNs*(windows+1)/1000 + perVerdictUs("hmd.score") + appendUs
	service := mean(es.serviceMs) * 1000
	r.set("monitor.self_us", service-layered, fmt.Sprintf("mean service %.1fus minus layer self times", service))
	r.set("ledger.accounted_pct", 100*ratio(layered, service), fmt.Sprintf("layers %.1fus of service %.1fus", layered, service))

	// The checkpoint and routing layers are also timed directly, on every
	// workload; off a workload's verdict path the line says so, and the
	// per-verdict figures read 0.
	offPath := ""
	if !w.durable {
		offPath = "; off this workload's path: volatile engine"
	}
	p50, p99, err := appendLatency(filepath.Join(tmp, "append"), 2000)
	if err != nil {
		return err
	}
	aps, err := appendThroughput(filepath.Join(tmp, "append-n"), nproc(), 500*time.Millisecond)
	if err != nil {
		return err
	}
	save, err := saveLatency(filepath.Join(tmp, "save"), sys.pool, 5)
	if err != nil {
		return err
	}
	appendsPerVerdict, perVerdict := 0.0, "absent: volatile engine"
	switch {
	case sys.fl != nil:
		// Shard engines keep private registries the fleet does not expose.
		perVerdict = "absent: not observable through the fleet"
	case w.durable:
		st := sys.eng.Stats()
		appends := sys.eng.Registry().Snapshot().CounterWith("rhmd_checkpoint_ops_total", "wal_append")
		appendsPerVerdict = ratio(float64(appends), float64(st.ProgramsProcessed+st.ProgramsFailed))
		perVerdict = "engine registry, untraced run"
	}
	r.set("checkpoint.append_us_p50", p50, "n=2000, one caller"+offPath)
	r.set("checkpoint.append_us_p99", p99, "n=2000, one caller"+offPath)
	r.set("checkpoint.appends_per_s", aps, fmt.Sprintf("%d callers%s", nproc(), offPath))
	r.set("checkpoint.save_ms", save, "median of 5 Store.Save"+offPath)
	r.set("checkpoint.appends_per_verdict", appendsPerVerdict, perVerdict)

	if sys.fl != nil {
		var delivered []float64
		var rerouted uint64
		maxD := 0.0
		for _, h := range sys.fl.Stats().Health {
			delivered = append(delivered, float64(h.Delivered))
			maxD = max(maxD, float64(h.Delivered))
			rerouted += h.Rerouted
		}
		r.set("fleet.route_ns", routeNs(sys.fl, sys.corpus.Events), "Fleet.Home over corpus names")
		r.set("fleet.shard_skew", ratio(maxD, mean(delivered)), fmt.Sprintf("per-shard delivered %v", delivered))
		r.set("fleet.rerouted", float64(rerouted), "untraced run")
	} else {
		// An unstarted volatile fleet of the same shard count routes
		// this corpus's names; nothing is served through it.
		fl, err := fleet.New(sys.pool, fleet.Config{Shards: nproc(), Engine: monitor.Config{Workers: 1}})
		if err != nil {
			return err
		}
		r.set("fleet.route_ns", routeNs(fl, sys.corpus.Events), "Fleet.Home over corpus names; off this workload's path: single engine")
		fl.Close()
		r.set("fleet.shard_skew", 1, "single engine")
		r.set("fleet.rerouted", 0, "absent: single engine")
	}

	r.set("obs.spans_overhead_pct", 100*ratio(untraced.vps-traced.vps, untraced.vps),
		fmt.Sprintf("untraced %.1f/s, traced %.1f/s", untraced.vps, traced.vps))
	serialNs := time.Duration(0)
	for _, s := range rp.log.spans {
		if s.Name == "verdict" {
			serialNs += time.Duration(s.Dur)
		}
	}
	r.set("serial.verdicts_per_s", ratio(nv, serialNs.Seconds()), replayed)
	lateFrom := "due time"
	if w.rate == 0 {
		lateFrom = "slot release"
	}
	r.set("bench.gen_late_ms_p99", quantile(untraced.genLateMs, 0.99),
		fmt.Sprintf("n=%d, behind %s, untraced run", len(untraced.genLateMs), lateFrom))
	return nil
}
