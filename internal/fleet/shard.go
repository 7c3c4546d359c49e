package fleet

import (
	"context"
	"fmt"
	"sync/atomic"

	"rhmd/internal/checkpoint"
	"rhmd/internal/monitor"
	"rhmd/internal/obs"
)

// ShardState is one shard's position in the supervisor state machine:
//
//	serving ──(death detected)──▶ degraded ──(teardown done)──▶ restarting
//	   ▲                              │                             │
//	   └────────(recovery)────────────┼──────────(recovery)─────────┘
//	                                  ▼
//	                        (restarts exhausted: parked degraded)
//
// While a shard is degraded or restarting, the router sends its key
// range to live siblings and the fleet counts every rerouted
// submission against the home shard.
type ShardState int32

// Shard states.
const (
	// Serving: the shard accepts its key range.
	Serving ShardState = iota
	// Degraded: shard death was detected; teardown is in progress (or
	// recovery has been given up) and the key range is rerouted.
	Degraded
	// Restarting: the old generation is torn down and a new engine is
	// being rebuilt from the shard's snapshot+WAL.
	Restarting
)

var shardStateNames = [...]string{"serving", "degraded", "restarting"}

// String returns the state name.
func (s ShardState) String() string {
	if int(s) < len(shardStateNames) {
		return shardStateNames[s]
	}
	return "state(?)"
}

// MarshalText renders the state name, which is also how it appears in
// the fleet health JSON.
func (s ShardState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a state name (the MarshalText inverse, used by
// tests decoding fleet health snapshots).
func (s *ShardState) UnmarshalText(text []byte) error {
	for i, name := range shardStateNames {
		if string(text) == name {
			*s = ShardState(i)
			return nil
		}
	}
	return fmt.Errorf("fleet: unknown shard state %q", text)
}

// shard is one failure domain: the current engine generation plus the
// durable identity (index, checkpoint directory) that survives
// restarts. Mutable fields are atomics or guarded by Fleet.mu; the
// supervisor, router, pumps and health handler all read them
// concurrently.
type shard struct {
	idx int
	dir string        // checkpoint directory ("" = volatile shard)
	reg *obs.Registry // the fleet registry's shard="idx" view, every generation's

	state atomic.Int32  // ShardState
	gen   atomic.Uint64 // engine generation (0 = first life)
	eng   atomic.Pointer[monitor.Engine]

	// delivered counts reports pumped out of this shard across all
	// generations; the supervisor reads it as the progress signal for
	// wedge detection (backlog + no delivery progress = wedged).
	delivered atomic.Uint64
	// restarts counts completed recoveries; restored is the verdict
	// count the current generation's checkpoint held (the
	// zero-acked-loss baseline).
	restarts atomic.Uint64
	restored atomic.Uint64
	// ckptBase is the shard's cumulative checkpoint-failure count when
	// the current generation was built: the supervisor's failure limit
	// counts from it.
	ckptBase atomic.Uint64
	// restartPending dedups death signals: the supervisor may see the
	// same dying shard via crash callback, checkpoint failures and wedge
	// detection at once, but only one restart runs.
	restartPending atomic.Bool

	// Guarded by Fleet.mu.
	cancel     context.CancelFunc // cancels the current generation's ctx
	store      *checkpoint.Store  // open store of the current generation
	pumpDone   chan struct{}      // closed when the current pump exits
	lastReason string             // why the last restart happened

	// chaos is the scripted injector of generation 0 (nil without a
	// wedge/panic script); the pump arms it at its delivery threshold.
	chaos *chaosInjector
}

// shardState reads the state atomically.
func (sh *shard) shardState() ShardState { return ShardState(sh.state.Load()) }

// setState publishes a state transition and mirrors it to the fleet
// gauges.
func (f *Fleet) setState(sh *shard, s ShardState) {
	sh.state.Store(int32(s))
	f.ins.state[sh.idx].Set(float64(s))
	serving := 0
	for _, s2 := range f.shards {
		if s2.shardState() == Serving {
			serving++
		}
	}
	f.ins.serving.Set(float64(serving))
}
