package fleet

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"rhmd/internal/checkpoint"
	"rhmd/internal/monitor"
)

// ShardFaultKind enumerates the shard-scoped failure modes of the
// kill-a-shard chaos harness. Where monitor.FaultKind models one
// misbehaving detector, these model one dying failure domain: a whole
// engine shard losing its disk, its queue, or a worker.
type ShardFaultKind uint8

// Shard fault kinds.
const (
	// ShardCrashAtByte kills the shard's checkpoint disk after a byte
	// budget: every write past the budget fails (possibly tearing
	// mid-record), exactly like checkpoint.FailingFS — because it is
	// one. The shard keeps classifying but can no longer make verdicts
	// durable; a supervisor restarts it once checkpoint failures cross
	// its limit, and recovery must replay the surviving snapshot+WAL.
	ShardCrashAtByte ShardFaultKind = iota
	// ShardWedgeQueue arms monitor.FaultWedge on every classification
	// once the shard has delivered Arg verdicts: all workers block,
	// in-flight programs never finish, and the submission queue backs
	// up behind them until the supervisor declares the shard wedged.
	ShardWedgeQueue
	// ShardPanicWorker arms monitor.FaultWorkerCrash once the shard has
	// delivered Arg verdicts: the next classifications panic through
	// worker recovery, killing worker goroutines one by one.
	ShardPanicWorker
)

// ShardFault is one scripted failure of one shard.
type ShardFault struct {
	// Shard is the target shard index.
	Shard int
	// Kind is the failure mode.
	Kind ShardFaultKind
	// Arg parameterizes the fault: for ShardCrashAtByte it is the
	// checkpoint-store byte budget before the disk dies; for
	// ShardWedgeQueue and ShardPanicWorker it is how many verdicts the
	// shard delivers before the fault arms.
	Arg uint64
}

// ShardScript is a deterministic kill-a-shard scenario: a set of
// scripted shard faults the fleet applies to the first life
// (generation 0) of each targeted shard. Restarted generations run
// clean, so every script converges to a healthy fleet — the chaos
// harness proves the road back, not just the outage.
type ShardScript struct {
	Faults []ShardFault
}

// forShard returns the scripted faults targeting shard idx.
func (s *ShardScript) forShard(idx int) []ShardFault {
	if s == nil {
		return nil
	}
	var out []ShardFault
	for _, f := range s.Faults {
		if f.Shard == idx {
			out = append(out, f)
		}
	}
	return out
}

// ParseShardScript parses the CLI chaos syntax: comma-separated
// shard:mode:arg triples, e.g. "1:wedge:25,0:crash:4096,2:panic:10".
// Modes: crash (arg = checkpoint byte budget), wedge and panic (arg =
// verdicts delivered before the fault arms). An empty string is a nil
// script.
func ParseShardScript(s string) (*ShardScript, error) {
	if s == "" {
		return nil, nil
	}
	script := &ShardScript{}
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("fleet: bad shard fault %q (want shard:mode:arg)", part)
		}
		shard, err := strconv.Atoi(fields[0])
		if err != nil || shard < 0 {
			return nil, fmt.Errorf("fleet: bad shard index in %q", part)
		}
		var kind ShardFaultKind
		switch fields[1] {
		case "crash", "crash-at-byte":
			kind = ShardCrashAtByte
		case "wedge", "wedge-queue":
			kind = ShardWedgeQueue
		case "panic", "panic-worker":
			kind = ShardPanicWorker
		default:
			return nil, fmt.Errorf("fleet: unknown shard fault mode %q (want crash, wedge or panic)", fields[1])
		}
		arg, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fleet: bad shard fault arg in %q: %v", part, err)
		}
		script.Faults = append(script.Faults, ShardFault{Shard: shard, Kind: kind, Arg: arg})
	}
	return script, nil
}

// Chaos wiring for the kill-a-shard harness. A ShardScript targets
// generation 0 of each scripted shard:
//
//   - crash-at-byte swaps the shard's gen-0 filesystem for a
//     checkpoint.FailingFS with the scripted byte budget — the disk
//     dies mid-run, WAL appends start failing, and the supervisor
//     restarts the shard once failures cross its limit. Restarted
//     generations get a healthy filesystem: chaos proves the road
//     back, not a permanent outage.
//   - wedge-queue and panic-worker install a chaosInjector that stays
//     dormant (delegating to the configured base injector) until the
//     shard has delivered the scripted number of verdicts, then forces
//     monitor.FaultWedge / FaultWorkerCrash on every classification.
//
// Arming on delivered verdicts — not wall clock — keeps the scenario
// deterministic: the shard always dies at the same point in its
// output stream.

// chaosInjector wraps the configured fault injector with a scripted
// shard-killing mode that arms after a delivery threshold.
type chaosInjector struct {
	inner monitor.FaultInjector
	mode  monitor.FaultKind
	after uint64
	armed atomic.Bool
}

// newChaosInjector builds the injector for one scripted fault; with
// after == 0 it is armed from the first classification.
func newChaosInjector(inner monitor.FaultInjector, mode monitor.FaultKind, after uint64) *chaosInjector {
	c := &chaosInjector{inner: inner, mode: mode, after: after}
	if after == 0 {
		c.armed.Store(true)
	}
	return c
}

// Fault implements monitor.FaultInjector.
func (c *chaosInjector) Fault(fc monitor.FaultContext) monitor.FaultKind {
	if c.armed.Load() {
		return c.mode
	}
	if c.inner != nil {
		return c.inner.Fault(fc)
	}
	return monitor.FaultNone
}

// observe is called by the shard's pump after each delivered verdict;
// crossing the threshold arms the scripted fault.
func (c *chaosInjector) observe(delivered uint64) {
	if c != nil && delivered >= c.after {
		c.armed.Store(true)
	}
}

// chaosFS returns the filesystem for one shard generation under the
// fleet's script: a FailingFS with the scripted byte budget for a
// crash-at-byte target's first life, nil (the real filesystem)
// otherwise.
func (f *Fleet) chaosFS(idx int, gen uint64) checkpoint.FS {
	if gen != 0 {
		return nil
	}
	for _, fault := range f.cfg.Script.forShard(idx) {
		if fault.Kind == ShardCrashAtByte {
			return checkpoint.NewFailingFS(checkpoint.OSFS{}, int(fault.Arg))
		}
	}
	return nil
}

// chaosFor returns the scripted injector for one shard generation (nil
// when the script has no wedge/panic fault for it, or past gen 0).
func (f *Fleet) chaosFor(idx int, gen uint64, base monitor.FaultInjector) *chaosInjector {
	if gen != 0 {
		return nil
	}
	for _, fault := range f.cfg.Script.forShard(idx) {
		switch fault.Kind {
		case ShardWedgeQueue:
			return newChaosInjector(base, monitor.FaultWedge, fault.Arg)
		case ShardPanicWorker:
			return newChaosInjector(base, monitor.FaultWorkerCrash, fault.Arg)
		}
	}
	return nil
}
