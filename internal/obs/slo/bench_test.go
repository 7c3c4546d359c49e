package slo_test

import (
	"context"
	"testing"
	"time"

	"rhmd/internal/core"
	"rhmd/internal/dataset"
	"rhmd/internal/features"
	"rhmd/internal/fleet"
	"rhmd/internal/monitor"
	"rhmd/internal/obs"
	"rhmd/internal/obs/slo"
)

// fleetRegistry serves a small corpus through a durable 2-shard fleet
// and returns the fleet's registry, which then carries both shards'
// engine and checkpoint series under a shard label, with traffic in
// them.
func fleetRegistry(b *testing.B) *obs.Registry {
	b.Helper()
	cfg := dataset.Config{BenignPerFamily: 2, MalwarePerFamily: 2, TraceLen: 8_000, Seed: 5}
	c, err := dataset.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	periods := []int{1000, 2000}
	data, err := dataset.ExtractWindows(c.Programs, periods, cfg.TraceLen)
	if err != nil {
		b.Fatal(err)
	}
	pool, err := core.TrainPool(core.PoolSpecs(features.AllKinds(), periods, "lr"), data, 1)
	if err != nil {
		b.Fatal(err)
	}
	r, err := core.New(pool, 7)
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	fl, err := fleet.New(r, fleet.Config{
		Shards: 2, CheckpointDir: b.TempDir(), Metrics: reg,
		Engine: monitor.Config{Workers: 1, QueueDepth: 64, TraceLen: cfg.TraceLen},
	})
	if err != nil {
		b.Fatal(err)
	}
	fl.Start(context.Background())
	for _, p := range c.Programs {
		for !fl.Submit(p) {
			time.Sleep(time.Millisecond)
		}
	}
	for range c.Programs {
		<-fl.Results()
	}
	fl.Close()
	for _, shard := range []string{"0", "1"} {
		if reg.Snapshot().CounterWith("rhmd_monitor_programs_total", shard, "processed") == 0 {
			b.Fatalf("shard %s has no processed verdicts on the fleet registry", shard)
		}
	}
	return reg
}

// BenchmarkTick is the SLO engine's cost per evaluation: one Tick with
// FleetObjectives over a 2-shard fleet's registry, at steady state, with
// a full 6 h slow-long window of 10 s samples behind it. At the default
// 10 s interval the engine's share of one core is ns/op ÷ 10¹⁰.
func BenchmarkTick(b *testing.B) {
	reg := fleetRegistry(b)
	clock, advance := fixedClock(testBase)
	eng, err := slo.New(slo.Config{Source: reg, Metrics: obs.NewRegistry(), Now: clock,
		Objectives: slo.FleetObjectives(0, 2, 0.65, 0.30)})
	if err != nil {
		b.Fatal(err)
	}
	const interval = 10 * time.Second
	for i := 0; i < int(slo.DefaultWindows().SlowLong/interval); i++ {
		eng.Tick()
		advance(interval)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Tick()
		advance(interval)
	}
}
