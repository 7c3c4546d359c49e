package fleet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rhmd/internal/obs"
	"rhmd/internal/obs/incident"
)

// chaosIncidentRecorder builds the flight recorder the chaos scenario
// wires into OnShardDeath. Bundles land in $INCIDENT_OUT (the chaostest
// make target points it at results/incidents, which CI uploads when
// the suite fails) or a per-test temp dir.
func chaosIncidentRecorder(t *testing.T, reg *obs.Registry) (*incident.Recorder, string) {
	t.Helper()
	dir := os.Getenv("INCIDENT_OUT")
	if dir == "" {
		dir = filepath.Join(t.TempDir(), "incidents")
	}
	rec, err := incident.NewRecorder(incident.Config{Dir: dir, Now: time.Now, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	return rec, dir
}

// shardHealth fetches one shard's row from the health endpoint.
func shardHealth(t *testing.T, fl *Fleet, shard int) ShardHealth {
	t.Helper()
	st, _, err := healthSnapshot(fl)
	if err != nil {
		t.Fatalf("decoding fleet health: %v", err)
	}
	return st.Health[shard]
}

// TestChaosParseShardScript: the CLI chaos syntax round-trips into shard
// faults, and malformed scripts fail loudly instead of silently
// running the wrong scenario.
func TestChaosParseShardScript(t *testing.T) {
	s, err := ParseShardScript("1:wedge:25, 0:crash-at-byte:4096,2:panic:10")
	if err != nil {
		t.Fatal(err)
	}
	want := []ShardFault{
		{Shard: 1, Kind: ShardWedgeQueue, Arg: 25},
		{Shard: 0, Kind: ShardCrashAtByte, Arg: 4096},
		{Shard: 2, Kind: ShardPanicWorker, Arg: 10},
	}
	if !reflect.DeepEqual(s.Faults, want) {
		t.Fatalf("parsed %+v, want %+v", s.Faults, want)
	}
	if got := s.forShard(0); len(got) != 1 || got[0].Kind != ShardCrashAtByte {
		t.Fatalf("forShard(0) = %+v", got)
	}
	if got := s.forShard(9); got != nil {
		t.Fatalf("forShard(9) = %+v, want nil", got)
	}

	if s, err := ParseShardScript(""); s != nil || err != nil {
		t.Fatalf("empty script parsed to %+v, %v", s, err)
	}
	for _, bad := range []string{"1:wedge", "x:wedge:1", "-1:wedge:1", "1:meteor:1", "1:wedge:many"} {
		if _, err := ParseShardScript(bad); err == nil {
			t.Errorf("script %q parsed without error", bad)
		}
	}
}

// TestChaosScriptRefusesMissingShard: a fault aimed at a shard the
// fleet does not have is a configuration error, not a scenario that
// silently never fires.
func TestChaosScriptRefusesMissingShard(t *testing.T) {
	f := getFixture(t)
	for _, shard := range []int{-1, 2, 7} {
		script := &ShardScript{Faults: []ShardFault{{Shard: shard, Kind: ShardWedgeQueue, Arg: 1}}}
		_, err := New(f.rhmd, Config{Shards: 2, Engine: engineTemplate(f), Script: script})
		if err == nil || !strings.Contains(err.Error(), "chaos script targets shard") {
			t.Fatalf("fault on shard %d of 2: New error = %v, want a refusal", shard, err)
		}
	}
}

// TestChaosKillShardCrashAtByte is the kill-a-shard acceptance
// scenario: shard 0's checkpoint disk dies mid-run (FailingFS byte
// budget), the supervisor declares it dead on checkpoint failures,
// and the shard restarts from its own snapshot+WAL while the siblings
// keep serving. The test learns of the outage from the fleet itself,
// in OnShardDeath, which runs while the shard is out of rotation and
// before its teardown. Proven through the health endpoint and the
// consumed result stream:
//
//   - inside the outage the endpoint does not report the shard
//     serving, and submissions homed on it are rerouted and counted;
//   - the shard returns to serving after exactly one restart;
//   - every gen-0 verdict the consumer acked is covered by the restored
//     verdict count (zero acked-verdict loss, via strict durability);
//   - probe submissions homed on surviving shards complete during/
//     despite the outage, within a bounded latency budget;
//   - no verdict is ever delivered twice.
//
// When FLEET_HEALTH_OUT is set, the final health JSON is written there
// (the CI chaos job uploads it as a build artifact).
func TestChaosKillShardCrashAtByte(t *testing.T) {
	f := getFixture(t)
	target := 0
	// 4 KiB of WAL budget ≈ a few dozen durable verdicts before the
	// disk dies — enough for a non-trivial acked baseline, small enough
	// that the death lands quickly even under the race detector.
	script := &ShardScript{Faults: []ShardFault{
		{Shard: target, Kind: ShardCrashAtByte, Arg: 4096},
	}}
	reg := obs.NewRegistry()
	rec, incDir := chaosIncidentRecorder(t, reg)
	var deaths atomic.Int64
	// What the first death hook saw of the outage, published to the
	// test goroutine by closing outage.
	outage := make(chan struct{})
	var inOutage ShardState
	var reroutedInOutage uint64
	var fl *Fleet
	fl, err := New(f.rhmd, Config{
		Shards: 3, CheckpointDir: t.TempDir(), Script: script,
		SupervisorEvery: 5 * time.Millisecond, WedgeTimeout: 5 * time.Second,
		Engine: engineTemplate(f), Metrics: reg,
		OnShardDeath: func(shard int, reason string) {
			if deaths.Add(1) == 1 {
				defer close(outage)
				st, _, err := healthSnapshot(fl)
				if err != nil {
					t.Errorf("decoding fleet health inside the outage: %v", err)
					return
				}
				inOutage = st.Health[shard].State
				for _, p := range homedPrograms(f, fl, shard, 3, "outage") {
					fl.Submit(p) // a sibling may shed it; the reroute counts either way
				}
				reroutedInOutage = fl.Stats().Health[shard].Rerouted - st.Health[shard].Rerouted
			}
			_, err := rec.Trigger(incident.Cause{Kind: "shard-death",
				Detail: fmt.Sprintf("shard %d: %s", shard, reason)})
			if err != nil && !errors.Is(err, incident.ErrSuppressed) {
				t.Errorf("incident capture on shard death: %v", err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fl.Start(context.Background())
	h := startHarness(f, fl)

	// Wait for the scripted disk death to surface as an outage.
	select {
	case <-outage:
	case <-time.After(60 * time.Second):
		t.Fatal("shard never left serving: scripted disk death not detected")
	}
	if inOutage == Serving {
		t.Fatal("health endpoint reported the dead shard serving during its outage")
	}
	if reroutedInOutage < 3 {
		t.Errorf("3 submissions homed on the dead shard during its outage, %d rerouted", reroutedInOutage)
	}

	// Surviving shards must keep serving during the kill: submissions
	// homed away from the dead shard complete within the latency
	// budget. (Submit can shed under the flood; retry until accepted.)
	var probes []string
	for i := 0; len(probes) < 10; i++ {
		name := fmt.Sprintf("probe-%d", i)
		p := clone(f.programs[i%len(f.programs)], name)
		if fl.Home(p.Name) == target {
			continue
		}
		accepted := false
		for try := 0; try < 2000 && !accepted; try++ {
			accepted = fl.Submit(p)
			if !accepted {
				time.Sleep(time.Millisecond)
			}
		}
		if !accepted {
			t.Fatalf("probe %q never accepted: surviving shards not taking traffic", p.Name)
		}
		probes = append(probes, p.Name)
	}
	waitFor(t, 30*time.Second, "probe verdicts from surviving shards", func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		for _, name := range probes {
			if h.counts[name] == 0 {
				return false
			}
		}
		return true
	})

	// The dead shard must come back: restarted exactly once, serving,
	// on a fresh generation, for the scripted reason.
	waitFor(t, 60*time.Second, "shard restart to complete", func() bool {
		sh := shardHealth(t, fl, target)
		return sh.Restarts >= 1 && sh.State == Serving
	})
	counts, shardGen := h.finish()

	final := shardHealth(t, fl, target)
	if final.Restarts != 1 {
		t.Fatalf("dead shard restarted %d times, want 1 (its failure limit counts from each generation's start)", final.Restarts)
	}
	if final.LastRestart != "checkpoint-failures" {
		t.Fatalf("restart reason %q, want checkpoint-failures", final.LastRestart)
	}
	if final.Gen == 0 {
		t.Fatal("restarted shard still on generation 0")
	}

	// Zero acked-verdict loss: every gen-0 report the consumer received
	// was WAL-durable before delivery (strict durability), so the
	// restart's recovered verdict count must cover all of them.
	ackedGen0 := shardGen[[2]uint64{uint64(target), 0}]
	if final.RestoredVerdicts == 0 {
		t.Fatal("restart recovered nothing: the shard died before any verdict was durable")
	}
	if final.RestoredVerdicts < uint64(ackedGen0) {
		t.Fatalf("acked-verdict loss: %d gen-0 verdicts acked, restart recovered %d",
			ackedGen0, final.RestoredVerdicts)
	}
	requireUnique(t, counts)

	for i := 0; i < 3; i++ {
		if i != target {
			if sh := shardHealth(t, fl, i); sh.Restarts != 0 {
				t.Errorf("sibling shard %d restarted %d times during the chaos run", i, sh.Restarts)
			}
		}
	}

	// The shard death tripped the flight recorder: at least one bundle
	// with the shard-death cause exists and round-trips.
	if deaths.Load() == 0 {
		t.Error("OnShardDeath never fired for the scripted disk death")
	}
	ids, err := rec.List()
	if err != nil || len(ids) == 0 {
		t.Fatalf("shard death captured no incident bundle: %d (%v)", len(ids), err)
	}
	b, err := incident.Load(nil, filepath.Join(incDir, ids[len(ids)-1]+".json"))
	if err != nil {
		t.Fatalf("shard-death bundle does not round-trip: %v", err)
	}
	if b.Cause.Kind != "shard-death" {
		t.Errorf("bundle cause %q, want shard-death", b.Cause.Kind)
	}

	if out := os.Getenv("FLEET_HEALTH_OUT"); out != "" {
		_, body, err := healthSnapshot(fl)
		if err != nil {
			t.Fatalf("final health snapshot: %v", err)
		}
		if err := os.WriteFile(out, body, 0o644); err != nil {
			t.Fatalf("writing %s: %v", out, err)
		}
	}
}

// TestChaosWedgedShardRestarts: a scripted wedge freezes shard 1's
// workers mid-queue; the supervisor detects the stalled backlog,
// restarts the shard, and the new generation serves again — without
// the siblings ever restarting.
func TestChaosWedgedShardRestarts(t *testing.T) {
	f := getFixture(t)
	target := 1
	script := &ShardScript{Faults: []ShardFault{
		{Shard: target, Kind: ShardWedgeQueue, Arg: 5},
	}}
	fl, err := New(f.rhmd, Config{
		Shards: 3, Script: script,
		SupervisorEvery: 10 * time.Millisecond, WedgeTimeout: 300 * time.Millisecond,
		Engine: engineTemplate(f),
	})
	if err != nil {
		t.Fatal(err)
	}
	fl.Start(context.Background())
	h := startHarness(f, fl)

	waitFor(t, 60*time.Second, "wedged shard to be detected and restarted", func() bool {
		sh := shardHealth(t, fl, target)
		return sh.Restarts >= 1 && sh.State == Serving && sh.LastRestart == "wedged-queue"
	})
	// The restarted generation must actually serve its key range.
	waitFor(t, 30*time.Second, "deliveries from the restarted generation", func() bool {
		return h.delivered(target, shardHealth(t, fl, target).Gen) > 0
	})
	counts, _ := h.finish()
	requireUnique(t, counts)
	for i := 0; i < 3; i++ {
		if i != target {
			if sh := shardHealth(t, fl, i); sh.Restarts != 0 {
				t.Errorf("sibling shard %d restarted during the wedge", i)
			}
		}
	}
}

// TestChaosPanicWorkerRestarts: a scripted worker crash panics through
// per-program recovery on shard 2; the crash signal reaches the
// supervisor, which restarts the shard onto a clean generation.
func TestChaosPanicWorkerRestarts(t *testing.T) {
	f := getFixture(t)
	target := 2
	script := &ShardScript{Faults: []ShardFault{
		{Shard: target, Kind: ShardPanicWorker, Arg: 3},
	}}
	fl, err := New(f.rhmd, Config{
		Shards: 3, Script: script,
		SupervisorEvery: 10 * time.Millisecond,
		Engine:          engineTemplate(f),
	})
	if err != nil {
		t.Fatal(err)
	}
	fl.Start(context.Background())
	h := startHarness(f, fl)

	waitFor(t, 60*time.Second, "crashed shard to be restarted", func() bool {
		sh := shardHealth(t, fl, target)
		return sh.Restarts >= 1 && sh.State == Serving && sh.LastRestart == "worker-crash"
	})
	waitFor(t, 30*time.Second, "deliveries from the restarted generation", func() bool {
		return h.delivered(target, shardHealth(t, fl, target).Gen) > 0
	})
	counts, _ := h.finish()
	requireUnique(t, counts)
}
