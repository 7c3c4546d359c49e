// Package fleet shards the monitor engine into independent failure
// domains. A Fleet owns N monitor.Engine shards behind a
// consistent-hash router keyed on the submitted program's stream name:
// each shard has its own queue, worker pool, breakers, and checkpoint
// directory, so one poisoned queue, dead disk, or crashed worker
// degrades one key range — never the whole monitor. A supervisor
// watches shard health, restarts a dead shard from its own
// snapshot+WAL, and reroutes its keys to live siblings while it is
// down, with every reroute and degraded interval accounted explicitly.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// StreamKey extracts the routing key from a program name: everything up
// to the first '#', or the whole name when there is none. Producers
// that want many distinct programs to ride one stream (one tenant, one
// host, one load-generator key) name them "<stream>#<unique suffix>";
// the ring hashes only the stream part, so the whole stream lives on —
// and fails over with — one shard, while every program keeps a unique
// identity in reports. scenario.Compile names its events this way,
// each on its own stream, so a benchmark corpus of repeated programs
// still spreads over every shard.
func StreamKey(name string) string {
	if i := strings.IndexByte(name, '#'); i >= 0 {
		return name[:i]
	}
	return name
}

// vnodes is the virtual-node count per shard: enough that key
// ranges interleave finely (a dead shard's load spreads over every
// sibling instead of dumping onto one neighbor), small enough that the
// ring stays a cache-resident array.
const vnodes = 64

// vnode is one virtual point on the hash ring.
type vnode struct {
	hash  uint64
	shard int
}

// ring is a consistent-hash ring over shard indices. It is built once
// at fleet construction and never mutated, so routing is lock-free;
// liveness is supplied per-lookup by the caller.
type ring struct {
	shards int
	vnodes []vnode // sorted by hash
}

// newRing builds a ring of `shards` shards with vnodes virtual nodes
// each.
func newRing(shards int) *ring {
	r := &ring{shards: shards, vnodes: make([]vnode, 0, shards*vnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			r.vnodes = append(r.vnodes, vnode{hash: hashKey(fmt.Sprintf("shard-%d/vnode-%d", s, v)), shard: s})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool {
		if r.vnodes[i].hash != r.vnodes[j].hash {
			return r.vnodes[i].hash < r.vnodes[j].hash
		}
		// Hash ties (vanishingly rare with 64-bit FNV) break by shard so
		// the ring order is still deterministic.
		return r.vnodes[i].shard < r.vnodes[j].shard
	})
	return r
}

// hashKey maps a routing key onto the ring: FNV-64a finished with a
// SplitMix64 finalizer. Bare FNV does not avalanche on the short,
// prefix-sharing strings real keys are ("stream-1", "stream-2", …):
// related keys hash to near-adjacent ring positions, leaving whole
// shards without a key range. The finalizer scatters them.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	v := h.Sum64()
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return v ^ (v >> 31)
}

// home returns the key's home shard: the owner of the first vnode at or
// clockwise of the key's hash, ignoring liveness.
func (r *ring) home(key string) int {
	if r.shards == 1 {
		return 0
	}
	return r.vnodes[r.at(hashKey(key))].shard
}

// route returns the shard that should serve the key right now: the home
// shard when serving reports it live, otherwise the next distinct shard
// clockwise that is — consistent hashing's failover order, so a dead
// shard's keys spread across every sibling. Returns -1 when no shard is
// serving.
func (r *ring) route(key string, serving func(int) bool) int {
	if r.shards == 1 {
		if serving(0) {
			return 0
		}
		return -1
	}
	start := r.at(hashKey(key))
	tried := 0
	seen := make([]bool, r.shards)
	for i := 0; i < len(r.vnodes) && tried < r.shards; i++ {
		s := r.vnodes[(start+i)%len(r.vnodes)].shard
		if seen[s] {
			continue
		}
		seen[s] = true
		tried++
		if serving(s) {
			return s
		}
	}
	return -1
}

// at returns the index of the first vnode at or clockwise of h.
func (r *ring) at(h uint64) int {
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	if i == len(r.vnodes) {
		return 0
	}
	return i
}
