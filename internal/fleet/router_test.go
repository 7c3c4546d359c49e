package fleet

import (
	"fmt"
	"testing"
)

// TestRingRoutesDeterministicallyAndCovers: the same key always lands
// on the same shard, and a reasonable key population touches every
// shard (virtual nodes interleave the ranges).
func TestRingRoutesDeterministicallyAndCovers(t *testing.T) {
	r := newRing(3)
	hits := map[int]int{}
	all := func(int) bool { return true }
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("stream-%d", i)
		home := r.home(key)
		if again := r.home(key); again != home {
			t.Fatalf("home(%q) unstable: %d then %d", key, home, again)
		}
		if got := r.route(key, all); got != home {
			t.Fatalf("route(%q) with everything serving = %d, want home %d", key, got, home)
		}
		hits[home]++
	}
	for s := 0; s < 3; s++ {
		if hits[s] == 0 {
			t.Fatalf("shard %d got no keys out of 300: %v", s, hits)
		}
	}
}

// TestRingFailsOverAndSpreads: with one shard down its keys reroute to
// live siblings — spread across more than one of them — and keys homed
// on live shards do not move. All shards down routes nowhere.
func TestRingFailsOverAndSpreads(t *testing.T) {
	r := newRing(4)
	down := 2
	serving := func(s int) bool { return s != down }
	fallback := map[int]int{}
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("tenant-%d", i)
		home := r.home(key)
		got := r.route(key, serving)
		if home != down {
			if got != home {
				t.Fatalf("key %q homed on live shard %d moved to %d", key, home, got)
			}
			continue
		}
		if got == down || got < 0 {
			t.Fatalf("key %q homed on dead shard routed to %d", key, got)
		}
		fallback[got]++
	}
	if len(fallback) < 2 {
		t.Fatalf("dead shard's keys all dumped on one sibling: %v (want spread)", fallback)
	}
	if got := r.route("any", func(int) bool { return false }); got != -1 {
		t.Fatalf("route with no serving shard = %d, want -1", got)
	}
}
