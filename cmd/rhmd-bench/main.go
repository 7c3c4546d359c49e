// Command rhmd-bench regenerates the paper's evaluation: one experiment
// per figure (plus the §7 hardware and §8 PAC-bound results), printed as
// tables and optionally exported as CSV.
//
// Usage:
//
//	rhmd-bench [-scale full|smoke] [-seed N] [-run fig8,fig16] [-csv DIR] [-list]
//	rhmd-bench -metrics-addr :9090   # live suite progress + pprof
//
// The full scale is what EXPERIMENTS.md records; the smoke scale runs
// the whole suite in a couple of minutes at reduced corpus size. With
// -metrics-addr set, per-experiment wall-time and sample-count metrics
// are scrapeable on /metrics while the suite runs, and /debug/pprof
// profiles the hot figure drivers in place.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"rhmd/internal/experiments"
	"rhmd/internal/obs"
)

func main() {
	scale := flag.String("scale", "full", "experiment scale: full or smoke")
	seed := flag.Uint64("seed", 42, "corpus and training seed")
	run := flag.String("run", "", "comma-separated experiment ids (default: all)")
	csvDir := flag.String("csv", "", "directory to export per-table CSV files")
	list := flag.Bool("list", false, "list experiment ids and exit")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address while the suite runs (e.g. :9090)")
	flag.Parse()

	// A SIGINT/SIGTERM finishes the in-flight experiment, then stops the
	// suite cleanly (partial results and CSVs already written stay valid).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Per-experiment cost, scrapeable on /metrics while the suite runs.
	reg := obs.NewRegistry()
	wallSeconds := reg.GaugeVec("rhmd_experiment_wall_seconds",
		"Wall-clock time of the most recent run of each experiment.", "id")
	rowsTotal := reg.CounterVec("rhmd_experiment_rows_total",
		"Table rows (samples) produced by each experiment, across runs.", "id")
	runsTotal := reg.CounterVec("rhmd_experiment_runs_total",
		"Completed runs of each experiment.", "id")
	if *metricsAddr != "" {
		addr, shutdown, err := obs.ListenAndServe(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			shutdown(sctx)
		}()
		fmt.Printf("observability endpoint on http://%s (/metrics, /debug/pprof)\n", addr)
	}

	if *list {
		for _, x := range experiments.Registry() {
			fmt.Printf("%-10s %s\n", x.ID, x.Desc)
		}
		return
	}

	var cfg experiments.Config
	switch *scale {
	case "full":
		cfg = experiments.FullConfig(*seed)
	case "smoke":
		cfg = experiments.SmokeConfig(*seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	start := time.Now()
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("corpus: %d programs (%d benign/family x %d families benign, %d malware/family), trace %d, period %d, seed %d\n\n",
		len(env.Corpus.Programs), cfg.BenignPerFamily, 6, cfg.MalwarePerFamily, cfg.TraceLen, cfg.Period, *seed)

	var ids []string
	if *run != "" {
		ids = strings.Split(*run, ",")
	}

	list2 := experiments.Registry()
	if len(ids) > 0 {
		list2 = nil
		for _, id := range ids {
			x, err := experiments.Lookup(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			list2 = append(list2, x)
		}
	}

	for _, x := range list2 {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "interrupted: stopping before", x.ID)
			break
		}
		t0 := time.Now()
		tables, err := x.Run(env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", x.ID, err)
			os.Exit(1)
		}
		rows := 0
		for _, t := range tables {
			rows += len(t.Rows)
			t.Print(os.Stdout)
			if *csvDir != "" {
				if err := writeCSV(*csvDir, t); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
		}
		wall := time.Since(t0)
		wallSeconds.With(x.ID).Set(wall.Seconds())
		rowsTotal.With(x.ID).Add(uint64(rows))
		runsTotal.With(x.ID).Inc()
		fmt.Printf("  [%s in %.1fs]\n\n", x.ID, wall.Seconds())
	}
	fmt.Printf("total: %.1fs\n", time.Since(start).Seconds())
}

func writeCSV(dir string, t *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	t.CSV(f)
	// Close is where a full disk actually surfaces; a truncated CSV must
	// fail the run, not ship as a silently short results file.
	return f.Close()
}
