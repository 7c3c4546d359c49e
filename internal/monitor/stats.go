package monitor

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// DetectorStats is one base detector's health row in a Stats snapshot.
type DetectorStats struct {
	Spec     string       `json:"spec"`
	State    BreakerState `json:"state"`
	Calls    uint64       `json:"calls"`
	Failures uint64       `json:"failures"`
	// Weight is the detector's current renormalized switching weight
	// (zero while quarantined).
	Weight     float64       `json:"weight"`
	AvgLatency time.Duration `json:"avg_latency_ns"`
}

// Stats is a point-in-time snapshot of engine activity. The numbers are
// read back from the observability registry (internal/obs), so a Stats
// call and a /metrics scrape always agree; this struct is the
// programmatic view, the registry is the wire view. Every submitted
// program and every extracted window lands in exactly one of these
// buckets; nothing is dropped silently.
type Stats struct {
	// ProgramsProcessed counts programs fully classified (possibly with
	// degraded windows). ProgramsShed counts submissions rejected by
	// queue backpressure; ProgramsFailed counts trace/extraction errors.
	ProgramsProcessed uint64 `json:"programs_processed"`
	ProgramsShed      uint64 `json:"programs_shed"`
	ProgramsFailed    uint64 `json:"programs_failed"`
	// Windows counts classified windows; Flagged the subset flagged as
	// malware; Degraded the subset classified by a fallback detector
	// after the scheduled one failed; DroppedWindows the windows no live
	// detector could classify.
	Windows        uint64 `json:"windows"`
	Flagged        uint64 `json:"flagged"`
	Degraded       uint64 `json:"degraded"`
	DroppedWindows uint64 `json:"dropped_windows"`
	// ProgramsUndurable counts verdicts withheld because their WAL
	// append failed: classified, never acked.
	ProgramsUndurable uint64 `json:"programs_undurable"`
	// Retries, Timeouts and Panics count fault-handling events.
	// WorkerCrashes counts worker goroutines lost to escaped panics;
	// CheckpointFailures counts failed WAL appends and snapshot saves.
	Retries            uint64 `json:"retries"`
	Timeouts           uint64 `json:"timeouts"`
	Panics             uint64 `json:"panics"`
	WorkerCrashes      uint64 `json:"worker_crashes"`
	CheckpointFailures uint64 `json:"checkpoint_failures"`
	// QueueDepth, Inflight and WorkersLive are point-in-time liveness
	// gauges: a fleet supervisor reads them to tell a wedged shard
	// (backlog with no progress) from an idle one.
	QueueDepth  uint64 `json:"queue_depth"`
	Inflight    uint64 `json:"inflight"`
	WorkersLive uint64 `json:"workers_live"`
	// PoolEpoch is the serving detector-pool generation (increments per
	// SwapPool, rollbacks included); PoolSwaps counts swaps this engine
	// process published (not restored across restarts — the epoch is).
	PoolEpoch uint64 `json:"pool_epoch"`
	PoolSwaps uint64 `json:"pool_swaps"`
	// Quarantines and Restores count breaker transitions; Detectors
	// holds the per-detector health rows.
	Quarantines uint64          `json:"quarantines"`
	Restores    uint64          `json:"restores"`
	Detectors   []DetectorStats `json:"detectors"`
}

// MarshalText renders the breaker state name, which is also how it
// appears in JSON output.
func (s BreakerState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a breaker state name (the MarshalText inverse,
// used when decoding checkpointed breaker snapshots).
func (s *BreakerState) UnmarshalText(text []byte) error {
	for i, name := range breakerNames {
		if string(text) == name {
			*s = BreakerState(i)
			return nil
		}
	}
	return fmt.Errorf("monitor: unknown breaker state %q", text)
}

// LivePool returns how many detectors are currently serving traffic.
// Half-open detectors count: they are receiving probe windows, so they
// are serving (at reduced volume), not dead.
func (s Stats) LivePool() int {
	n := 0
	for _, d := range s.Detectors {
		if d.State == Closed || d.State == HalfOpen {
			n++
		}
	}
	return n
}

// HalfOpen returns how many detectors are mid-probe.
func (s Stats) HalfOpen() int {
	n := 0
	for _, d := range s.Detectors {
		if d.State == HalfOpen {
			n++
		}
	}
	return n
}

// MarshalJSON emits the snapshot plus the derived pool summary
// (live/half-open/size), so machine consumers get the same rollup the
// String report prints.
func (s Stats) MarshalJSON() ([]byte, error) {
	type alias Stats // shed methods to avoid recursion
	return json.Marshal(struct {
		alias
		LivePool     int `json:"live_pool"`
		HalfOpenPool int `json:"half_open_pool"`
		PoolSize     int `json:"pool_size"`
	}{alias(s), s.LivePool(), s.HalfOpen(), len(s.Detectors)})
}

// String renders the snapshot as a small survival report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "programs: %d processed, %d failed; %d shed submissions (callers may retry)\n",
		s.ProgramsProcessed, s.ProgramsFailed, s.ProgramsShed)
	fmt.Fprintf(&b, "windows:  %d classified (%d flagged, %d degraded), %d dropped\n",
		s.Windows, s.Flagged, s.Degraded, s.DroppedWindows)
	fmt.Fprintf(&b, "faults:   %d retries, %d timeouts, %d panics, %d quarantines, %d restores\n",
		s.Retries, s.Timeouts, s.Panics, s.Quarantines, s.Restores)
	if s.WorkerCrashes > 0 || s.CheckpointFailures > 0 || s.ProgramsUndurable > 0 {
		fmt.Fprintf(&b, "damage:   %d worker crashes, %d checkpoint failures, %d undurable verdicts withheld\n",
			s.WorkerCrashes, s.CheckpointFailures, s.ProgramsUndurable)
	}
	fmt.Fprintf(&b, "pool:     %d/%d detectors live (%d half-open)\n",
		s.LivePool(), len(s.Detectors), s.HalfOpen())
	for i, d := range s.Detectors {
		fmt.Fprintf(&b, "  [%d] %-26s %-9s w=%.3f calls=%-6d fails=%-5d avg=%s\n",
			i, d.Spec, d.State, d.Weight, d.Calls, d.Failures, d.AvgLatency)
	}
	return b.String()
}
