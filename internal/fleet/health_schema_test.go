package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"testing"
)

// The /fleet health endpoint is a reporting surface: make trace-smoke,
// the chaos harness artifact and any operator tooling decode it. This
// golden-schema test pins the exact key set at every level of the
// document, so a renamed or dropped field fails here instead of in a
// downstream reporter.

// keysOf returns the sorted key set of one JSON object.
func keysOf(t *testing.T, obj map[string]json.RawMessage) []string {
	t.Helper()
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// requireKeys asserts the object's key set equals want, modulo the
// listed optional keys (fields marked omitempty).
func requireKeys(t *testing.T, where string, obj map[string]json.RawMessage, want []string, optional ...string) {
	t.Helper()
	got := keysOf(t, obj)
	opt := map[string]bool{}
	for _, k := range optional {
		opt[k] = true
	}
	filtered := got[:0]
	for _, k := range got {
		if !opt[k] {
			filtered = append(filtered, k)
		}
	}
	wantSorted := append([]string(nil), want...)
	sort.Strings(wantSorted)
	if fmt.Sprint(filtered) != fmt.Sprint(wantSorted) {
		t.Fatalf("%s schema drift:\n got:  %v\n want: %v (optional: %v)", where, filtered, wantSorted, optional)
	}
}

func TestFleetHealthJSONSchema(t *testing.T) {
	f := getFixture(t)
	tmpl := engineTemplate(f)
	tmpl.QueueDepth = len(f.programs)
	fl, err := New(f.rhmd, Config{Shards: 2, Engine: tmpl})
	if err != nil {
		t.Fatal(err)
	}
	fl.Start(context.Background())
	go func() {
		for _, p := range f.programs[:4] {
			fl.Submit(clone(p, "schema"))
		}
		fl.Close()
	}()
	for range fl.Results() {
	}

	_, raw, err := healthSnapshot(fl)
	if err != nil {
		t.Fatal(err)
	}

	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	requireKeys(t, "top level", top, []string{"shards", "serving", "shed", "pool_epoch", "shard_health"})

	var rows []map[string]json.RawMessage
	if err := json.Unmarshal(top["shard_health"], &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d shard rows, want 2", len(rows))
	}
	for i, row := range rows {
		where := fmt.Sprintf("shard_health[%d]", i)
		requireKeys(t, where, row, []string{
			"shard", "state", "gen", "restarts", "delivered",
			"rerouted", "restored_verdicts", "stats",
		}, "last_restart") // omitempty: present only after a restart

		// The counters reporters depend on: per-shard state plus the
		// rerouted/shed accounting split between shard rows and the top
		// level.
		var state string
		if err := json.Unmarshal(row["state"], &state); err != nil {
			t.Fatal(err)
		}
		if state != "serving" && state != "degraded" && state != "restarting" {
			t.Fatalf("%s.state = %q, want a shard-state name", where, state)
		}

		var stats map[string]json.RawMessage
		if err := json.Unmarshal(row["stats"], &stats); err != nil {
			t.Fatal(err)
		}
		requireKeys(t, where+".stats", stats, []string{
			"programs_processed", "programs_shed", "programs_failed",
			"windows", "flagged", "degraded", "dropped_windows",
			"programs_undurable",
			"retries", "timeouts", "panics", "worker_crashes",
			"checkpoint_failures",
			"queue_depth", "inflight", "workers_live",
			"pool_epoch", "pool_swaps",
			"quarantines", "restores", "detectors",
			"live_pool", "half_open_pool", "pool_size",
		})

		var detectors []map[string]json.RawMessage
		if err := json.Unmarshal(stats["detectors"], &detectors); err != nil {
			t.Fatal(err)
		}
		if len(detectors) == 0 {
			t.Fatalf("%s.stats.detectors empty", where)
		}
		requireKeys(t, where+".stats.detectors[0]", detectors[0], []string{
			"spec", "state", "calls", "failures", "weight", "avg_latency_ns",
		})
	}

	// Decoding back through the typed structs must round-trip the same
	// document (no unexported or unmapped fields in the wire shape).
	var st FleetStats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 || len(st.Health) != 2 {
		t.Fatalf("typed decode: %+v", st)
	}
	if got := st.Health[0].Stats.ProgramsProcessed + st.Health[1].Stats.ProgramsProcessed; got != 4 {
		t.Fatalf("processed across shards = %d, want 4", got)
	}
}

// TestStreamKeyRouting: programs named "<stream>#<suffix>" ride the
// stream's shard — many unique names, one routing key.
func TestStreamKeyRouting(t *testing.T) {
	if StreamKey("tenant-7#prog-001") != "tenant-7" {
		t.Fatalf("StreamKey prefix extraction broken")
	}
	if StreamKey("plain-name") != "plain-name" {
		t.Fatalf("StreamKey without separator should be identity")
	}
	r := newRing(4)
	home := r.home("tenant-7")
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("tenant-7#prog-%03d", i)
		if got := r.home(StreamKey(name)); got != home {
			t.Fatalf("event %d routed to shard %d, want the stream home %d", i, got, home)
		}
	}
}
