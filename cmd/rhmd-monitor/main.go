// Command rhmd-monitor runs the online monitoring engine: it trains an
// RHMD pool, streams a generated corpus through a fleet of
// internal/monitor engine shards under optionally injected faults, and
// prints a survival report — per-shard supervision state, per-detector
// health, quarantine/restore activity, and end-to-end window
// accounting.
//
// Usage:
//
//	rhmd-monitor                                    # healthy pool
//	rhmd-monitor -inject 1:error,4:panic,4:latency  # two faulty detectors
//	rhmd-monitor -inject 4:panic -until 4:30        # detector 4 recovers
//	rhmd-monitor -metrics-addr :9090 -snapshot-every 2s
//	rhmd-monitor -trace-out traces.json -json       # machine-readable
//	rhmd-monitor -slow-ms 20 -exemplars -metrics-addr :9090
//	rhmd-monitor -shards 3 -checkpoint-dir /var/rhmd    # durable 3-shard fleet
//	rhmd-monitor -shards 3 -chaos 0:crash-at-byte:4096  # kill-a-shard drill
//
// The monitor always serves through internal/fleet: -shards N (default
// 1) independent engine shards behind a consistent-hash router keyed on
// program name, each with its own queue, workers, breakers and (with
// -checkpoint-dir) its own snapshot+WAL directory, shard i under
// <dir>/shard-i. A supervisor restarts dead shards from their own
// checkpoints while siblings keep serving; -chaos scripts
// deterministic shard deaths.
//
// With -metrics-addr set, the monitor serves live introspection while it
// runs: Prometheus/OpenMetrics metrics on /metrics (format negotiated
// from the Accept header; every shard engine's series carries a shard
// label), the fleet health JSON on /fleet, kept per-verdict span traces
// on /traces, and net/http/pprof on /debug/pprof/.
//
// Kept span traces are the monitor's one event stream. Whenever
// something reads them (-metrics-addr, -trace-out, -checkpoint-dir's
// crash dump or -incident-dir's bundles), the monitor records a span
// tree per submission (enqueue, queue wait, worker pickup, feature
// extraction, switching draws, per-window classification, vote, WAL
// fsync) and tail-samples which trees to keep: slow (-slow-ms), shed,
// retried, errored or breaker-affected verdicts always, plus a 1-in-N
// baseline (-keep-every). -exemplars additionally stamps trace IDs onto
// the latency histograms as OpenMetrics exemplars.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"rhmd/internal/checkpoint"
	"rhmd/internal/core"
	"rhmd/internal/dataset"
	"rhmd/internal/driftguard"
	"rhmd/internal/features"
	"rhmd/internal/fleet"
	"rhmd/internal/monitor"
	"rhmd/internal/obs"
	"rhmd/internal/obs/incident"
	"rhmd/internal/obs/slo"
	"rhmd/internal/obs/span"
	"rhmd/internal/prog"
)

func main() {
	seed := flag.Uint64("seed", 42, "corpus/training/fault seed")
	benign := flag.Int("benign", 10, "benign programs per family")
	malware := flag.Int("malware", 16, "malware programs per family")
	traceLen := flag.Int("len", 80_000, "trace length per program")
	periods := flag.String("periods", "2000,1000", "comma-separated collection periods (pool = 3 features × periods)")
	workers := flag.Int("workers", 4, "concurrent classification workers")
	queue := flag.Int("queue", 0, "submission queue depth (0 = 2×workers); overflow is shed")
	deadline := flag.Duration("deadline", 25*time.Millisecond, "per-window classification deadline")
	probeAfter := flag.Int("probe-after", 64, "windows of quarantine before a half-open probe")
	inject := flag.String("inject", "", "faults as det:mode pairs, e.g. 1:error,4:panic,4:latency (modes: error, panic, latency, corrupt)")
	until := flag.String("until", "", "recovery points as det:N pairs, e.g. 4:30 (detector heals after N faulted windows)")
	rate := flag.Float64("rate", 1.0, "total fault rate per faulty detector, split across its modes")
	verbose := flag.Bool("v", false, "print one line per monitored program")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /fleet, /traces and /debug/pprof on this address while running, plus /drift with -drift, /slo with -slo and /incidents with -incident-dir (e.g. :9090)")
	traceOut := flag.String("trace-out", "", "write the kept verdict traces (the JSON array /traces serves) to this file after the run (- for stdout)")
	snapshotEvery := flag.Duration("snapshot-every", 0, "log a one-line stats snapshot to stderr at this interval (0 = off)")
	jsonOut := flag.Bool("json", false, "print the survival report as JSON instead of text")
	ckptDir := flag.String("checkpoint-dir", "", "durable checkpoint root: shard i write-ahead-logs its verdicts and snapshots under <dir>/shard-i, withholds any verdict it could not log, and restores a previous run's state on start")
	ckptEvery := flag.Duration("checkpoint-every", 2*time.Second, "periodic snapshot interval (with -checkpoint-dir)")
	shards := flag.Int("shards", 1, "shard the monitor into N independent failure domains behind a consistent-hash router")
	chaosScript := flag.String("chaos", "", "deterministic kill-a-shard script, e.g. '0:crash-at-byte:4096,1:wedge:25,2:panic:10'")
	wedgeTimeout := flag.Duration("wedge-timeout", 2*time.Second, "how long a shard may hold a backlog with zero window progress before the supervisor restarts it")
	slowMs := flag.Int("slow-ms", 50, "verdicts slower than this are always kept by the tail sampler")
	keepEvery := flag.Int("keep-every", 128, "keep every N-th verdict trace as a healthy baseline; 1 keeps all, -1 disables the baseline")
	exemplars := flag.Bool("exemplars", false, "attach kept-trace IDs to latency histograms as OpenMetrics exemplars")
	hold := flag.Duration("hold", 0, "keep the observability endpoint up this long after the run drains (for scrapers and smoke tests)")
	drift := flag.Bool("drift", false, "run the live drift guard: watch agreement/accuracy EWMAs on the verdict stream, retrain in the background when drift fires, hot-swap the pool with canary rollback")
	driftWindow := flag.Int("drift-window", 48, "verdicts required before drift can fire (EWMA warm-up, with -drift)")
	driftAgreement := flag.Float64("drift-agreement", driftguard.DefaultAgreementFloor, "inter-detector agreement floor (vote-margin EWMA) that fires drift (with -drift), in (0, 1]")
	driftAccuracy := flag.Float64("drift-accuracy", driftguard.DefaultAccuracyFloor, "labeled-accuracy EWMA floor that fires drift (with -drift), in (0, 1]")
	driftAlpha := flag.Float64("drift-alpha", 0.05, "EWMA smoothing factor for the drift signals (with -drift)")
	driftCanary := flag.Int("drift-canary", 32, "new-generation verdicts the post-swap canary collects before commit/rollback (with -drift)")
	driftPoolDir := flag.String("drift-pool-dir", "", "archive every pool generation here as pool-<fingerprint>.json and resolve swap WAL entries from it on restore (with -drift)")
	sloOn := flag.Bool("slo", false, "evaluate the standard SLO objectives (verdict latency, shed rate, durability, drift EWMAs, fleet serving) with multi-window burn-rate alerting on /slo")
	incidentDir := flag.String("incident-dir", "", "capture fingerprinted incident bundles (registry diff, kept traces, drift/fleet status, runtime deltas) into this directory on SLO pages/tickets, shard deaths and drift rollbacks; served on /incidents")
	flag.Parse()
	if err := driftFloors(*driftAccuracy, *driftAgreement); err != nil {
		fmt.Fprintf(os.Stderr, "rhmd-monitor: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	// In -json mode stdout carries exactly one JSON document; everything
	// informational moves to stderr.
	info := os.Stdout
	if *jsonOut {
		info = os.Stderr
	}

	ps, err := parsePeriods(*periods)
	check(err)

	cfg := dataset.Config{BenignPerFamily: *benign, MalwarePerFamily: *malware, TraceLen: *traceLen, Seed: *seed}
	corpus, err := dataset.Build(cfg)
	check(err)
	groups, err := corpus.Split([]float64{0.7, 0.3}, *seed+1)
	check(err)
	train, stream := groups[0], groups[1]

	data, err := dataset.ExtractWindows(train, ps, *traceLen)
	check(err)
	specs := core.PoolSpecs(features.AllKinds(), ps, "lr")
	pool, err := core.TrainPool(specs, data, *seed+2)
	check(err)
	r, err := core.New(pool, *seed+3)
	check(err)
	fmt.Fprintf(info, "deployed %s\n", r)

	injector, err := parseInjector(*inject, *until, *rate, *seed, len(pool))
	check(err)

	// The fleet registry is built here so the span recorder's
	// kept/dropped counters land beside the shard engines' instruments
	// on the same /metrics scrape.
	reg := obs.NewRegistry()
	// Build provenance and process start/uptime land on the same scrape
	// as the engine instruments, so a dashboard can pin every latency
	// shift to the exact binary that produced it.
	obs.RegisterBuildInfo(reg)
	// The span recorder runs whenever something reads its kept traces.
	var spans *span.Recorder
	if *metricsAddr != "" || *traceOut != "" || *ckptDir != "" || *incidentDir != "" {
		spans, err = span.NewRecorder(span.Config{
			Seed:      *seed,
			Now:       time.Now,
			Slow:      time.Duration(*slowMs) * time.Millisecond,
			KeepEvery: *keepEvery,
		}, reg)
		check(err)
	}
	// Live drift guard: the evade/retrain loop over the fleet below,
	// swapping every shard's pool. The archive is opened first
	// so checkpoint restore can resolve pool-swap WAL entries, and the
	// base pool is archived up front — every generation that ever
	// serves must be re-materializable after a crash.
	var archive *driftguard.Archive
	var resolvePool func(epoch, fingerprint uint64) (*core.RHMD, error)
	if *driftPoolDir != "" {
		if !*drift {
			check(fmt.Errorf("-drift-pool-dir needs -drift"))
		}
		archive, err = driftguard.OpenArchive(*driftPoolDir)
		check(err)
		check(archive.Put(r))
		resolvePool = archive.Resolve
	}
	driftCfg := driftguard.Config{
		Retrain:        driftguard.NewGameRetrainer(r, *traceLen, *seed+4),
		Archive:        archive,
		AccuracyFloor:  *driftAccuracy,
		AgreementFloor: *driftAgreement,
		Alpha:          *driftAlpha,
		MinSamples:     *driftWindow,
		CanaryWindow:   *driftCanary,
		Metrics:        reg,
		OnEvent: func(kind, detail string) {
			fmt.Fprintf(os.Stderr, "drift-guard: %s: %s\n", kind, detail)
		},
	}

	script, err := fleet.ParseShardScript(*chaosScript)
	check(err)
	if *ckptDir != "" {
		// Black-box recorder: if anything below panics or fails fatally,
		// the kept traces are flushed next to the checkpoints first.
		defer recoverDump(*ckptDir, spans)
		dir := *ckptDir
		onFatal = func() { dumpTrace(dir, spans) }
	}

	// SLO engine + incident recorder first (both flag-gated): the fleet
	// config wants the shard-death hook and the drift config the
	// rollback event, so both reference the recorder before their owners
	// exist. The fleet and guard flow back to the recorder through
	// atomic pointers (captures run on supervisor/alert goroutines).
	var flPtr atomic.Pointer[fleet.Fleet]
	var guardPtr atomic.Pointer[driftguard.Guard]
	sloW, err := buildSLO(sloParams{
		enabled:     *sloOn,
		incidentDir: *incidentDir,
		objectives:  slo.FleetObjectives(time.Duration(*slowMs)*time.Millisecond, *shards, *driftAccuracy, *driftAgreement),
		reg:         reg,
		spans:       spans,
		drift: func() any {
			g := guardPtr.Load()
			if g == nil {
				return nil
			}
			st := g.Status()
			return &st
		},
		fleet: func() any {
			f := flPtr.Load()
			if f == nil {
				return nil
			}
			return f.Stats()
		},
	})
	check(err)

	fcfg := fleet.Config{
		Shards:        *shards,
		CheckpointDir: *ckptDir,
		Engine: monitor.Config{
			Workers:         *workers,
			QueueDepth:      *queue,
			TraceLen:        *traceLen,
			WindowDeadline:  *deadline,
			ProbeAfter:      *probeAfter,
			Injector:        injector,
			Spans:           spans,
			Exemplars:       *exemplars,
			CheckpointEvery: *ckptEvery,
			ResolvePool:     resolvePool,
		},
		Script:       script,
		WedgeTimeout: *wedgeTimeout,
		Metrics:      reg,
	}
	if rec := sloW.rec; rec != nil {
		trigger := func(kind, detail string) {
			if _, err := rec.Trigger(incident.Cause{Kind: kind, Detail: detail}); err != nil && err != incident.ErrSuppressed {
				fmt.Fprintf(os.Stderr, "incident: %v\n", err)
			}
		}
		fcfg.OnShardDeath = func(shard int, reason string) {
			trigger("shard-death", fmt.Sprintf("shard %d: %s", shard, reason))
		}
		logDrift := driftCfg.OnEvent
		driftCfg.OnEvent = func(kind, detail string) {
			logDrift(kind, detail)
			if kind == "rollback" {
				trigger("drift-rollback", detail)
			}
		}
	}
	fl, err := fleet.New(r, fcfg)
	check(err)
	flPtr.Store(fl)
	boot := fl.Stats()
	fmt.Fprintf(info, "fleet: %d shards, durable=%v\n", boot.Shards, *ckptDir != "")
	if *ckptDir != "" {
		for _, sh := range boot.Health {
			fmt.Fprintf(info, "shard %d: restored checkpoint: %d verdicts, %d windows, pool epoch %d\n",
				sh.Shard, sh.RestoredVerdicts, sh.Stats.Windows, sh.Stats.PoolEpoch)
		}
	}
	if sloW.eng != nil {
		fmt.Fprintf(info, "slo: %d objectives (page at %.1fx burn, ticket at %.1fx)\n",
			len(sloW.eng.Objectives()), slo.FastBurn, slo.SlowBurn)
	}

	var guard *driftguard.Guard
	if *drift {
		// The guard starts from the serving generation, which a restore
		// may have advanced past the construction pool.
		driftCfg.Swapper = fl
		guard, err = driftguard.New(fl.Pool(), driftCfg)
		check(err)
		guardPtr.Store(guard)
		fmt.Fprintf(info, "drift-guard: watching (accuracy floor %.2f, agreement floor %.2f, warm-up %d, canary %d)\n",
			*driftAccuracy, *driftAgreement, *driftWindow, *driftCanary)
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops submissions and
	// drains the shards (each durable shard flushes a final checkpoint
	// generation after its drain); a second signal cancels the worker
	// context and aborts in-flight programs.
	ctx, hardStop := context.WithCancel(context.Background())
	defer hardStop()
	stopping := make(chan struct{})
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "shutdown: draining shards (signal again to abort in-flight work)")
		close(stopping)
		<-sigCh
		fmt.Fprintln(os.Stderr, "shutdown: aborting")
		hardStop()
	}()

	if *metricsAddr != "" {
		mounts := []obs.Mount{
			{Path: "/fleet", Handler: obs.JSONHandler(func() any { return fl.Stats() })},
			{Path: "/traces", Handler: spans.Handler()},
		}
		if guard != nil {
			mounts = append(mounts, obs.Mount{Path: "/drift", Handler: obs.JSONHandler(func() any { return guard.Status() })})
		}
		mounts = append(mounts, sloW.mounts...)
		addr, shutdown, err := obs.ListenAndServe(*metricsAddr, fl.Registry(), mounts...)
		check(err)
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			shutdown(sctx)
		}()
		if *hold > 0 {
			// Registered after the shutdown defer, so it runs first: the
			// endpoint stays scrapeable for the hold window (a signal cuts
			// it short), then the server shuts down.
			holdFor := *hold
			defer func() {
				fmt.Fprintf(os.Stderr, "holding observability endpoint for %v\n", holdFor)
				select {
				case <-time.After(holdFor):
				case <-stopping:
				}
			}()
		}
		paths := []string{"/metrics"}
		for _, m := range mounts {
			paths = append(paths, m.Path)
		}
		paths = append(paths, "/debug/pprof")
		fmt.Fprintf(info, "observability endpoint on http://%s (%s)\n", addr, strings.Join(paths, ", "))
	}

	start := time.Now()
	sloW.start()
	fl.Start(ctx)

	if *snapshotEvery > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(*snapshotEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					for _, sh := range fl.Stats().Health {
						st := sh.Stats
						fmt.Fprintf(os.Stderr, "[%s] shard %d %s gen=%d programs=%d windows=%d degraded=%d dropped=%d pool=%d/%d rerouted=%d restarts=%d\n",
							time.Since(start).Round(time.Millisecond), sh.Shard, sh.State, sh.Gen,
							st.ProgramsProcessed, st.Windows, st.Degraded, st.DroppedWindows,
							st.LivePool(), len(st.Detectors), sh.Rerouted, sh.Restarts)
					}
				}
			}
		}()
	}
	go func() {
		defer fl.Close()
		for _, p := range stream {
			for !fl.Submit(p) {
				// Shed: the target shard's queue is full, or its whole key
				// range is mid-restart; a real host would drop or defer,
				// the demo politely retries.
				select {
				case <-stopping:
					return
				case <-time.After(time.Millisecond):
				}
			}
			if guard != nil {
				guard.Ingest(p)
			}
			select {
			case <-stopping:
				return
			default:
			}
		}
	}()

	correct, total := 0, 0
	for rep := range fl.Results() {
		if guard != nil {
			guard.Observe(rep)
		}
		if rep.Err != nil {
			if *jsonOut {
				printVerdictJSON(rep)
			} else {
				fmt.Fprintf(info, "  [s%dg%d] %-18s ERROR: %v%s\n",
					rep.Shard, rep.ShardGen, rep.Program, rep.Err, traceSuffix(rep.TraceID))
			}
			continue
		}
		total++
		if rep.Malware == (rep.Label == prog.Malware) {
			correct++
		}
		if *jsonOut {
			// One JSON verdict line per program on stderr (stdout stays a
			// single report document). trace_id is always present: empty
			// means the tail sampler dropped the trace or tracing is off.
			printVerdictJSON(rep)
		} else if *verbose {
			verdict := "benign "
			if rep.Malware {
				verdict = "MALWARE"
			}
			fmt.Fprintf(info, "  [s%dg%d] %-18s %s  %3d/%3d windows flagged, %d degraded, %d dropped%s\n",
				rep.Shard, rep.ShardGen, rep.Program, verdict, rep.Flagged, rep.Windows,
				rep.Degraded, rep.Dropped, traceSuffix(rep.TraceID))
		}
	}
	elapsed := time.Since(start)
	if guard != nil {
		// The drain is done; let any in-flight background retrain finish
		// before the report so its outcome is counted.
		guard.Wait()
	}
	sloW.finish()

	if *traceOut != "" {
		check(writeTrace(*traceOut, spans))
	}

	st := fl.Stats()
	if *jsonOut {
		report := struct {
			Programs  int                `json:"programs"`
			Correct   int                `json:"correct"`
			Accuracy  float64            `json:"accuracy"`
			ElapsedNs time.Duration      `json:"elapsed_ns"`
			Fleet     fleet.FleetStats   `json:"fleet"`
			Drift     *driftguard.Status `json:"drift,omitempty"`
		}{Programs: total, Correct: correct, ElapsedNs: elapsed, Fleet: st}
		if total > 0 {
			report.Accuracy = float64(correct) / float64(total)
		}
		if guard != nil {
			ds := guard.Status()
			report.Drift = &ds
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(report))
		return
	}

	fmt.Printf("\nsurvival report (%d programs in %v, %d/%d shards serving, %d shed)\n",
		total, elapsed.Round(time.Millisecond), st.Serving, st.Shards, st.Shed)
	for _, sh := range st.Health {
		line := fmt.Sprintf("shard %d: %s gen=%d restarts=%d delivered=%d rerouted=%d",
			sh.Shard, sh.State, sh.Gen, sh.Restarts, sh.Delivered, sh.Rerouted)
		if sh.RestoredVerdicts > 0 {
			line += fmt.Sprintf(" restored=%d", sh.RestoredVerdicts)
		}
		if sh.LastRestart != "" {
			line += fmt.Sprintf(" last-restart=%s", sh.LastRestart)
		}
		fmt.Printf("%s pool-epoch=%d\n%s", line, sh.Stats.PoolEpoch, sh.Stats)
	}
	if guard != nil {
		fmt.Println(guard.Status())
	}
	if total > 0 {
		fmt.Printf("verdict accuracy: %.1f%% (%d/%d)\n", 100*float64(correct)/float64(total), correct, total)
	}
}

// printVerdictJSON emits one machine-readable verdict line to stderr.
// trace_id is deliberately not omitempty: a consumer joining verdicts
// to /traces can rely on the field existing on every line.
func printVerdictJSON(rep monitor.Report) {
	line := struct {
		Program  string `json:"program"`
		Malware  bool   `json:"malware"`
		Windows  int    `json:"windows"`
		Flagged  int    `json:"flagged"`
		Degraded int    `json:"degraded"`
		Dropped  int    `json:"dropped"`
		// PoolEpoch is the detector-pool generation that produced this
		// verdict — how a consumer attributes verdicts across hot swaps.
		PoolEpoch uint64 `json:"pool_epoch"`
		Err       string `json:"err,omitempty"`
		TraceID   string `json:"trace_id"`
	}{rep.Program, rep.Malware, rep.Windows, rep.Flagged, rep.Degraded, rep.Dropped, rep.PoolEpoch, "", rep.TraceID}
	if rep.Err != nil {
		line.Err = rep.Err.Error()
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "encoding verdict line: %v\n", err)
		return
	}
	fmt.Fprintln(os.Stderr, string(b))
}

// traceSuffix renders a kept trace ID for a text verdict line.
func traceSuffix(id string) string {
	if id == "" {
		return ""
	}
	return "  trace=" + id
}

// writeTrace writes the kept traces, the JSON array /traces serves, to
// path ("-" = stdout). A file lands through checkpoint.WriteFileAtomic,
// so a crash mid-write never leaves a torn recording; a nil recorder
// writes [].
func writeTrace(path string, spans *span.Recorder) error {
	if path == "-" {
		return spans.WriteJSON(os.Stdout)
	}
	var buf bytes.Buffer
	if err := spans.WriteJSON(&buf); err != nil {
		return err
	}
	return checkpoint.WriteFileAtomic(checkpoint.OSFS{}, path, buf.Bytes())
}

// blackBoxFile is the crash trace dump inside the checkpoint root.
const blackBoxFile = "trace-crash.json"

// dumpTrace is the black-box recorder: it flushes the kept traces to
// dir/trace-crash.json on the way down from a panic or a fatal error.
// It is best-effort, so its errors are dropped.
func dumpTrace(dir string, spans *span.Recorder) {
	if os.MkdirAll(dir, 0o755) == nil {
		_ = writeTrace(filepath.Join(dir, blackBoxFile), spans)
	}
}

// recoverDump is dumpTrace deferred at the top of main: a panic
// unwinding through it dumps the kept traces, then re-panics with its
// original value. A normal return dumps nothing.
func recoverDump(dir string, spans *span.Recorder) {
	if r := recover(); r != nil {
		dumpTrace(dir, spans)
		panic(r)
	}
}

func parsePeriods(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad period %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseInjector assembles per-detector fault profiles from the -inject,
// -until and -rate flags. Each detector's rate is split evenly across
// its listed modes.
func parseInjector(inject, until string, rate float64, seed uint64, poolSize int) (monitor.FaultInjector, error) {
	if inject == "" {
		return nil, nil
	}
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("-rate %v outside [0,1]", rate)
	}
	modes := map[int][]string{}
	for _, part := range strings.Split(inject, ",") {
		det, mode, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad -inject entry %q (want det:mode)", part)
		}
		idx, err := strconv.Atoi(det)
		if err != nil {
			return nil, fmt.Errorf("bad detector index in %q: %v", part, err)
		}
		if idx < 0 || idx >= poolSize {
			return nil, fmt.Errorf("-inject detector %d out of range (pool has %d detectors)", idx, poolSize)
		}
		modes[idx] = append(modes[idx], mode)
	}
	recover := map[int]uint64{}
	if until != "" {
		for _, part := range strings.Split(until, ",") {
			det, n, ok := strings.Cut(strings.TrimSpace(part), ":")
			if !ok {
				return nil, fmt.Errorf("bad -until entry %q (want det:N)", part)
			}
			idx, err := strconv.Atoi(det)
			if err != nil {
				return nil, fmt.Errorf("bad detector index in %q: %v", part, err)
			}
			if idx < 0 || idx >= poolSize {
				return nil, fmt.Errorf("-until detector %d out of range (pool has %d detectors)", idx, poolSize)
			}
			v, err := strconv.ParseUint(n, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad recovery point in %q: %v", part, err)
			}
			recover[idx] = v
		}
	}
	in := monitor.NewInjector(seed ^ 0xFA17)
	for idx, ms := range modes {
		p := monitor.Profile{Until: recover[idx]}
		share := rate / float64(len(ms))
		for _, m := range ms {
			switch m {
			case "error":
				p.ErrorRate += share
			case "panic":
				p.PanicRate += share
			case "latency":
				p.LatencyRate += share
			case "corrupt":
				p.CorruptRate += share
			default:
				return nil, fmt.Errorf("unknown fault mode %q (want error, panic, latency or corrupt)", m)
			}
		}
		in.SetProfile(idx, p)
	}
	return in, nil
}

// driftFloors refuses a drift floor outside (0, 1]. The drift guard and
// the SLO objectives judge the same EWMAs against these floors, and the
// guard runs a floor ≤ 0 at its default, so such a floor would be
// judged at two values.
func driftFloors(accuracy, agreement float64) error {
	if !(accuracy > 0 && accuracy <= 1) {
		return fmt.Errorf("-drift-accuracy %v outside (0, 1]", accuracy)
	}
	if !(agreement > 0 && agreement <= 1) {
		return fmt.Errorf("-drift-agreement %v outside (0, 1]", agreement)
	}
	return nil
}

// onFatal, when set, flushes the black-box trace dump before a fatal
// exit (deferred handlers don't run through os.Exit).
var onFatal func()

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if onFatal != nil {
			onFatal()
		}
		os.Exit(1)
	}
}
