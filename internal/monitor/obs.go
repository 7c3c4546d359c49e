package monitor

import (
	"strconv"

	"rhmd/internal/core"
	"rhmd/internal/obs"
)

// instruments is the engine's registry-backed accounting. Every child is
// resolved once here, at engine construction, so the hot path touches
// only pre-bound atomics — no label lookups, no locks. It replaces the
// old private counters struct; Stats() reads back through it, keeping
// the public Stats shape unchanged.
type instruments struct {
	programs  *obs.Counter // fully classified programs
	shed      *obs.Counter // submissions rejected by backpressure
	failed    *obs.Counter // trace/extraction failures
	undurable *obs.Counter // verdicts withheld because their WAL append failed

	windows  *obs.Counter // classified windows
	flagged  *obs.Counter // subset flagged malware
	degraded *obs.Counter // subset classified by a fallback detector
	dropped  *obs.Counter // windows no live detector could classify

	retries       *obs.Counter
	timeouts      *obs.Counter
	panics        *obs.Counter
	workerCrashes *obs.Counter // worker goroutines lost to escaped panics
	ckptFailures  *obs.Counter // failed WAL appends / snapshot saves

	quarantines *obs.Counter
	restores    *obs.Counter

	poolSwaps      *obs.Counter // pool generations published by SwapPool (rollbacks included)
	poolGeneration *obs.Gauge   // serving pool epoch

	// verdictLatency is the end-to-end submit→durable-commit latency per
	// program — the histogram the verdict-latency SLO objective reads.
	verdictLatency *obs.Histogram

	queueDepth  *obs.Gauge // current submission-queue occupancy
	inflight    *obs.Gauge // programs picked up by workers, not yet reported
	workersLive *obs.Gauge // worker goroutines still alive
	poolLive    *obs.Gauge // detectors currently serving (closed + half-open)

	// Per-detector children, indexed by pool position.
	draws   []*obs.Counter   // switching draws from the live sampler
	latency []*obs.Histogram // per-call classification latency (seconds)
	weight  []*obs.Gauge     // renormalized switching weight (0 while quarantined)
	state   []*obs.Gauge     // breaker state as 0=closed 1=open 2=half-open
}

// newInstruments registers the engine's metric families in reg and
// resolves every per-detector child up front.
func newInstruments(reg *obs.Registry, r *core.RHMD) *instruments {
	progs := reg.CounterVec("rhmd_monitor_programs_total", "Programs by terminal outcome.", "outcome")
	wins := reg.CounterVec("rhmd_monitor_windows_total", "Windows by outcome; flagged and degraded are subsets of classified.", "outcome")
	faults := reg.CounterVec("rhmd_monitor_faults_total", "Fault-handling events.", "kind")
	breaker := reg.CounterVec("rhmd_monitor_breaker_transitions_total", "Circuit-breaker transitions.", "kind")
	ins := &instruments{
		programs:      progs.With("processed"),
		shed:          progs.With("shed"),
		failed:        progs.With("failed"),
		undurable:     progs.With("undurable"),
		windows:       wins.With("classified"),
		flagged:       wins.With("flagged"),
		degraded:      wins.With("degraded"),
		dropped:       wins.With("dropped"),
		retries:       faults.With("retry"),
		timeouts:      faults.With("timeout"),
		panics:        faults.With("panic"),
		workerCrashes: faults.With("worker-crash"),
		ckptFailures: reg.Counter("rhmd_monitor_checkpoint_failures_total",
			"Failed WAL appends and snapshot saves; a fleet supervisor restarts the shard past its limit."),
		verdictLatency: reg.Histogram("rhmd_monitor_verdict_latency_seconds",
			"End-to-end per-program verdict latency, submit to durable commit.", nil),
		quarantines: breaker.With("quarantine"),
		restores:    breaker.With("restore"),
		poolSwaps: reg.Counter("rhmd_pool_swaps_total",
			"Detector-pool generations published by SwapPool, rollbacks included."),
		poolGeneration: reg.Gauge("rhmd_pool_generation",
			"Serving detector-pool epoch; increments per swap, rollbacks included."),
		queueDepth:  reg.Gauge("rhmd_monitor_queue_depth", "Programs waiting in the submission queue."),
		inflight:    reg.Gauge("rhmd_monitor_inflight", "Programs picked up by workers and not yet reported."),
		workersLive: reg.Gauge("rhmd_monitor_workers_live", "Worker goroutines still alive (crashed workers are not replaced)."),
		poolLive:    reg.Gauge("rhmd_monitor_pool_live", "Detectors currently serving traffic (closed or half-open)."),
	}
	draws := reg.CounterVec("rhmd_monitor_switch_draws_total", "Switching draws routed to each detector by the live sampler.", "detector", "spec")
	lat := reg.HistogramVec("rhmd_monitor_detector_latency_seconds", "Per-detector classification latency, including retries.", nil, "detector", "spec")
	weight := reg.GaugeVec("rhmd_monitor_detector_weight", "Renormalized switching weight (0 while quarantined).", "detector", "spec")
	state := reg.GaugeVec("rhmd_monitor_detector_state", "Breaker state: 0 closed, 1 open, 2 half-open.", "detector", "spec")
	for i, d := range r.Detectors {
		idx, spec := strconv.Itoa(i), d.Spec.String()
		ins.draws = append(ins.draws, draws.With(idx, spec))
		ins.latency = append(ins.latency, lat.With(idx, spec))
		ins.weight = append(ins.weight, weight.With(idx, spec))
		ins.state = append(ins.state, state.With(idx, spec))
	}
	return ins
}
