package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"rhmd/internal/core"
	"rhmd/internal/driftguard"
	"rhmd/internal/fleet"
	"rhmd/internal/monitor"
	"rhmd/internal/obs"
	"rhmd/internal/obs/incident"
	"rhmd/internal/obs/slo"
	"rhmd/internal/obs/span"
	"rhmd/internal/prog"
)

// fleetOptions carries everything runFleet needs out of main's flags.
type fleetOptions struct {
	rhmd    *core.RHMD
	stream  []*prog.Program
	shards  int
	ckptDir string
	script  *monitor.ShardScript
	wedge   time.Duration
	// engine is the per-shard template; Metrics and Checkpoint stay
	// unset (the fleet gives each shard generation its own).
	engine monitor.Config
	// drift enables the live drift guard over the whole fleet; driftCfg
	// is the guard configuration with Swapper left unset (runFleet wires
	// the fleet in as the swapper).
	drift    bool
	driftCfg driftguard.Config
	// SLO/incident flags, mirrored from main (see sloParams).
	sloOn       bool
	sloConfig   string
	burnFast    float64
	burnSlow    float64
	incidentDir string
	// slowVerdict is -slow-ms, the fleet latency objective's threshold.
	slowVerdict   time.Duration
	metrics       *obs.Registry
	spans         *span.Recorder
	metricsAddr   string
	hold          time.Duration
	snapshotEvery time.Duration
	verbose       bool
	jsonOut       bool
	traceOut      string
	info          io.Writer
}

// runFleet is the -shards > 1 serving path: it streams the corpus
// through a sharded fleet, mirrors the single-engine observability
// surface (plus /fleet health), and prints a per-shard survival report.
func runFleet(o fleetOptions) error {
	// SLO engine + incident recorder first: the fleet config wants the
	// shard-death hook and the drift config the rollback hook, so both
	// reference the recorder before their owners exist. The fleet and
	// guard flow back to the recorder through atomic pointers (captures
	// run on supervisor/alert goroutines).
	var flPtr atomic.Pointer[fleet.Fleet]
	var guardPtr atomic.Pointer[driftguard.Guard]
	sloW, err := buildSLO(sloParams{
		enabled:     o.sloOn,
		configPath:  o.sloConfig,
		burnFast:    o.burnFast,
		burnSlow:    o.burnSlow,
		incidentDir: o.incidentDir,
		objectives:  slo.FleetObjectives(o.slowVerdict, o.shards, 0),
		reg:         o.metrics,
		spans:       o.spans,
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
	if err != nil {
		return err
	}
	defer sloW.shutdown()

	fcfg := fleet.Config{
		Shards:        o.shards,
		CheckpointDir: o.ckptDir,
		Engine:        o.engine,
		Script:        o.script,
		WedgeTimeout:  o.wedge,
		Metrics:       o.metrics,
	}
	if sloW.rec != nil {
		rec := sloW.rec
		fcfg.OnShardDeath = func(shard int, reason string) {
			if _, err := rec.Trigger(incident.Cause{Kind: "shard-death",
				Detail: fmt.Sprintf("shard %d: %s", shard, reason)}); err != nil && err != incident.ErrSuppressed {
				fmt.Fprintf(os.Stderr, "incident: %v\n", err)
			}
		}
		o.driftCfg.OnRollback = func(detail string) {
			if _, err := rec.Trigger(incident.Cause{Kind: "drift-rollback", Detail: detail}); err != nil && err != incident.ErrSuppressed {
				fmt.Fprintf(os.Stderr, "incident: %v\n", err)
			}
		}
	}
	fl, err := fleet.New(o.rhmd, fcfg)
	if err != nil {
		return err
	}
	flPtr.Store(fl)
	fmt.Fprintf(o.info, "fleet: %d shards, durable=%v\n", o.shards, o.ckptDir != "")
	if sloW.eng != nil {
		fmt.Fprintf(o.info, "slo: %d objectives (page at %.1fx burn, ticket at %.1fx)\n",
			len(sloW.eng.Objectives()), o.burnFast, o.burnSlow)
	}

	var guard *driftguard.Guard
	if o.drift {
		cfg := o.driftCfg
		cfg.Swapper = fl
		guard, err = driftguard.New(o.rhmd, cfg)
		if err != nil {
			return err
		}
		guardPtr.Store(guard)
		fmt.Fprintf(o.info, "drift-guard: watching the fleet (per-shard swaps, fleet epoch convergence)\n")
	}

	// Same two-stage shutdown as the single engine: first signal drains,
	// second aborts in-flight work.
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

	if o.metricsAddr != "" {
		mounts := []obs.Mount{
			{Path: "/fleet", Handler: fl.HealthHandler()},
			{Path: "/traces", Handler: o.spans.Handler()},
		}
		if guard != nil {
			mounts = append(mounts, obs.Mount{Path: "/drift", Handler: guard.Handler()})
		}
		mounts = append(mounts, sloW.mounts...)
		addr, shutdown, err := obs.ListenAndServe(o.metricsAddr, fl.Registry(), mounts...)
		if err != nil {
			return err
		}
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			shutdown(sctx)
		}()
		if o.hold > 0 {
			holdFor := o.hold
			defer func() {
				fmt.Fprintf(os.Stderr, "holding observability endpoint for %v\n", holdFor)
				select {
				case <-time.After(holdFor):
				case <-stopping:
				}
			}()
		}
		fmt.Fprintf(o.info, "observability endpoint on http://%s (/metrics, /fleet, /traces, /debug/pprof)\n", addr)
	}

	start := time.Now()
	fl.Start(ctx)

	if o.snapshotEvery > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(o.snapshotEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					st := fl.Stats()
					for _, sh := range st.Health {
						fmt.Fprintf(os.Stderr, "[%s] shard %d %s gen=%d programs=%d rerouted=%d restarts=%d\n",
							time.Since(start).Round(time.Millisecond), sh.Shard, sh.State, sh.Gen,
							sh.Stats.ProgramsProcessed, sh.Rerouted, sh.Restarts)
					}
				}
			}
		}()
	}

	go func() {
		defer fl.Close()
		for _, p := range o.stream {
			for !fl.Submit(p) {
				// Shed: the target shard's queue is full, or its whole key
				// range is mid-restart; the demo politely retries.
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
			if o.jsonOut {
				printVerdictJSON(rep)
			} else {
				fmt.Fprintf(o.info, "  [s%dg%d] %-18s ERROR: %v%s\n",
					rep.Shard, rep.ShardGen, rep.Program, rep.Err, traceSuffix(rep.TraceID))
			}
			continue
		}
		total++
		if rep.Malware == (rep.Label == prog.Malware) {
			correct++
		}
		if o.jsonOut {
			printVerdictJSON(rep)
		} else if o.verbose {
			verdict := "benign "
			if rep.Malware {
				verdict = "MALWARE"
			}
			fmt.Fprintf(o.info, "  [s%dg%d] %-18s %s  %3d/%3d windows flagged, %d degraded, %d dropped%s\n",
				rep.Shard, rep.ShardGen, rep.Program, verdict, rep.Flagged, rep.Windows,
				rep.Degraded, rep.Dropped, traceSuffix(rep.TraceID))
		}
	}
	elapsed := time.Since(start)
	if guard != nil {
		guard.Wait()
	}

	if o.traceOut != "" {
		if err := writeTrace(o.traceOut, o.spans); err != nil {
			return err
		}
	}

	st := fl.Stats()
	if o.jsonOut {
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
		return enc.Encode(report)
	}

	fmt.Printf("\nfleet survival report (%d programs in %v, %d/%d shards serving, %d shed)\n",
		total, elapsed.Round(time.Millisecond), st.Serving, st.Shards, st.Shed)
	for _, sh := range st.Health {
		line := fmt.Sprintf("  shard %d: %-10s gen=%d restarts=%d delivered=%d rerouted=%d",
			sh.Shard, sh.State, sh.Gen, sh.Restarts, sh.Delivered, sh.Rerouted)
		if sh.RestoredVerdicts > 0 {
			line += fmt.Sprintf(" restored=%d", sh.RestoredVerdicts)
		}
		if sh.LastRestart != "" {
			line += fmt.Sprintf(" last-restart=%s", sh.LastRestart)
		}
		line += fmt.Sprintf(" pool-epoch=%d", sh.Stats.PoolEpoch)
		fmt.Println(line)
	}
	if guard != nil {
		fmt.Println(guard.Status())
	}
	if total > 0 {
		fmt.Printf("verdict accuracy: %.1f%% (%d/%d)\n", 100*float64(correct)/float64(total), correct, total)
	}
	return nil
}
