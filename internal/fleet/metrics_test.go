package fleet

import (
	"context"
	"fmt"
	"testing"
	"time"

	"rhmd/internal/core"
	"rhmd/internal/monitor"
	"rhmd/internal/obs"
	"rhmd/internal/obs/slo"
	"rhmd/internal/prog"
)

// homedPrograms returns n clones of fixture programs whose stream keys
// the ring homes on shard.
func homedPrograms(f *fixture, fl *Fleet, shard, n int, tag string) []*prog.Program {
	var out []*prog.Program
	for i := 0; len(out) < n; i++ {
		p := clone(f.programs[i%len(f.programs)], fmt.Sprintf("%s-%d", tag, i))
		if fl.Home(p.Name) == shard {
			out = append(out, p)
		}
	}
	return out
}

// TestFleetSLOsReadShardSeries: the standard fleet objectives read the
// shard engines' series from the fleet registry. At a 1 µs latency
// threshold every verdict is slow, so verdict-latency pages with bad
// ratio 1, and shed-rate counts the sheds of every shard's queue.
func TestFleetSLOsReadShardSeries(t *testing.T) {
	f := getFixture(t)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			reg := obs.NewRegistry()
			tmpl := engineTemplate(f)
			tmpl.Workers, tmpl.QueueDepth = 1, 2
			fl, err := New(f.rhmd, Config{Shards: shards, Engine: tmpl, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
			eng, err := slo.New(slo.Config{
				Source:     reg,
				Metrics:    obs.NewRegistry(),
				Now:        func() time.Time { return now },
				Objectives: slo.FleetObjectives(time.Microsecond, shards, 0.65, 0.30),
			})
			if err != nil {
				t.Fatal(err)
			}
			eng.Tick()

			// Before Start nothing drains, so each shard's queue takes two
			// of the three programs homed on it and sheds the third.
			accepted := 0
			for s := 0; s < shards; s++ {
				for _, p := range homedPrograms(f, fl, s, 3, "slo") {
					if fl.Submit(p) {
						accepted++
					}
				}
			}
			fl.Start(context.Background())
			fl.Close()
			delivered := 0
			for range fl.Results() {
				delivered++
			}
			if delivered != accepted || accepted != 2*shards {
				t.Fatalf("accepted %d, delivered %d; want %d each", accepted, delivered, 2*shards)
			}
			var shed, total uint64
			for _, h := range fl.Stats().Health {
				if h.Stats.ProgramsShed != 1 {
					t.Fatalf("shard %d shed %d submissions, want 1", h.Shard, h.Stats.ProgramsShed)
				}
				shed += h.Stats.ProgramsShed
				total += h.Stats.ProgramsShed + h.Stats.ProgramsProcessed + h.Stats.ProgramsFailed
			}

			now = now.Add(time.Minute)
			eng.Tick()
			got := map[string]slo.ObjectiveStatus{}
			for _, o := range eng.Status().Objectives {
				got[o.Name] = o
			}
			if o := got["verdict-latency"]; o.BadRatio != 1 || o.State != slo.StatePage.String() {
				t.Errorf("verdict-latency %+v, want bad ratio 1 and page", o)
			}
			if o, want := got["shed-rate"], float64(shed)/float64(total); o.BadRatio != want || o.State != slo.StatePage.String() {
				t.Errorf("shed-rate %+v, want bad ratio %v (%d of %d) and page", o, want, shed, total)
			}
			if o := got["fleet-serving"]; o.State != slo.StateOK.String() {
				t.Errorf("fleet-serving %+v, want ok", o)
			}
		})
	}
}

// TestFleetSeriesContinuousAcrossRestarts: a killed shard's restarted
// generation registers in the same registry view, so no counter and no
// histogram count in the fleet registry goes backwards across the
// restart, on a volatile and on a durable fleet.
func TestFleetSeriesContinuousAcrossRestarts(t *testing.T) {
	f := getFixture(t)
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := Config{Shards: 2, Engine: engineTemplate(f), Metrics: reg}
			if durable {
				cfg.CheckpointDir = t.TempDir()
			}
			fl, err := New(f.rhmd, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fl.Start(context.Background())
			delivered := make(chan monitor.Report, 64)
			go func() {
				defer close(delivered)
				for rep := range fl.Results() {
					delivered <- rep
				}
			}()
			batch := func(tag string) {
				t.Helper()
				const n = 6
				for i, p := range f.programs[:n] {
					c := clone(p, fmt.Sprintf("%s-%d", tag, i))
					for !fl.Submit(c) {
						time.Sleep(time.Millisecond)
					}
				}
				for i := 0; i < n; i++ {
					select {
					case <-delivered:
					case <-time.After(60 * time.Second):
						t.Fatalf("batch %s: %d of %d verdicts delivered", tag, i, n)
					}
				}
			}

			batch("before")
			before := reg.Snapshot()
			fl.Kill(0, "continuity-test")
			waitFor(t, 60*time.Second, "shard 0 restart", func() bool {
				sh := fl.Stats().Health[0]
				return sh.State == Serving && sh.Restarts == 1
			})
			batch("after")
			after := reg.Snapshot()
			fl.Close()
			for range delivered {
			}

			if after.CounterWith("rhmd_monitor_programs_total", "0", "processed") == 0 {
				t.Fatal("the fleet registry carries no shard-0 engine series")
			}
			if durable && after.CounterWith("rhmd_checkpoint_ops_total", "0", "restore") == 0 {
				t.Fatal("the fleet registry carries no shard-0 checkpoint series")
			}
			diff := after.Diff(before)
			for name, fb := range before {
				fa := after[name]
				for key, vb := range fb.Children {
					va, d := fa.Children[key], diff[name].Children[key]
					switch vb.Kind {
					case "counter":
						if va.Counter < vb.Counter || d.Counter > va.Counter {
							t.Errorf("%s{%q}: %d before the restart, %d after (diff %d)", name, key, vb.Counter, va.Counter, d.Counter)
						}
					case "histogram":
						if va.Hist.Count < vb.Hist.Count || d.Hist.Count > va.Hist.Count {
							t.Errorf("%s{%q}: count %d before the restart, %d after (diff %d)", name, key, vb.Hist.Count, va.Hist.Count, d.Hist.Count)
						}
						for i := range d.Hist.Cumulative {
							if d.Hist.Cumulative[i] > va.Hist.Cumulative[i] {
								t.Errorf("%s{%q}: bucket %d wrapped in the diff", name, key, i)
							}
						}
					}
				}
			}
		})
	}
}

// TestFleetPoolAfterReopen: a durable fleet swapped to a second pool,
// closed and reopened over the same directory serves the second pool,
// and Pool reports it, not the construction pool.
func TestFleetPoolAfterReopen(t *testing.T) {
	f := getFixture(t)
	next := fleetVariantPool(t, f.rhmd)
	tmpl := engineTemplate(f)
	tmpl.ResolvePool = func(epoch, fingerprint uint64) (*core.RHMD, error) {
		switch fingerprint {
		case f.rhmd.Fingerprint():
			return f.rhmd, nil
		case next.Fingerprint():
			return next, nil
		}
		return nil, fmt.Errorf("unknown fingerprint %016x", fingerprint)
	}
	dir := t.TempDir()
	open := func() *Fleet {
		t.Helper()
		fl, err := New(f.rhmd, Config{Shards: 2, CheckpointDir: dir, Engine: tmpl})
		if err != nil {
			t.Fatal(err)
		}
		return fl
	}
	drain := func(fl *Fleet) {
		fl.Start(context.Background())
		fl.Close()
		for range fl.Results() {
		}
	}

	fl := open()
	if fl.Pool() != f.rhmd {
		t.Fatal("a fresh fleet's Pool is not its construction pool")
	}
	if _, err := fl.SwapPool(next); err != nil {
		t.Fatal(err)
	}
	drain(fl)

	fl = open()
	defer drain(fl)
	if got := fl.Pool().Fingerprint(); got != next.Fingerprint() || fl.PoolEpoch() != 1 {
		t.Fatalf("reopened fleet Pool %016x at epoch %d, want the swapped-in %016x at 1",
			got, fl.PoolEpoch(), next.Fingerprint())
	}
}
