package monitor

import (
	"errors"
	"sync"

	"rhmd/internal/rng"
)

// FaultKind enumerates the failure modes the harness can inject into a
// base detector, mirroring how deployed HMD hardware actually misbehaves:
// transient errors (bus/ECC glitches), hard faults that crash the
// inference block (panics), stalls (latency beyond the window deadline),
// and silent data corruption of the feature vector.
type FaultKind uint8

// Fault kinds.
const (
	FaultNone FaultKind = iota
	// FaultError makes the classification call return ErrInjected.
	FaultError
	// FaultPanic makes the classification call panic.
	FaultPanic
	// FaultLatency stalls the classification attempt for the engine's
	// whole window deadline, waited out on the worker through
	// Config.Sleep, and then fails it with ErrDeadline.
	FaultLatency
	// FaultCorrupt replaces the feature vector with NaNs before scoring,
	// modelling silent corruption of the counter bus. The engine detects
	// the resulting non-finite score and treats it as a failure.
	FaultCorrupt
	// FaultWedge blocks the worker itself — not the scored detector call
	// — until the engine's context is cancelled. Unlike FaultLatency it
	// cannot be rescued by the window deadline, so a wedged worker holds
	// its in-flight program forever: the signature of a poisoned queue
	// that only shard teardown clears. Fleet chaos scripts use it to
	// prove supervisor wedge detection.
	FaultWedge
	// FaultWorkerCrash panics through the worker's panic recovery (the
	// engine rethrows it past the per-program recover), killing the
	// worker goroutine itself. The engine absorbs the crash at the
	// worker loop, counts it, and notifies Config.OnWorkerCrash — the
	// shard-death signal a fleet supervisor restarts on.
	FaultWorkerCrash
)

var faultNames = [...]string{"none", "error", "panic", "latency", "corrupt", "wedge", "worker-crash"}

// String returns the fault mnemonic.
func (k FaultKind) String() string {
	if int(k) < len(faultNames) {
		return faultNames[k]
	}
	return "fault(?)"
}

// ErrInjected is the error returned by a classification call hit by
// FaultError.
var ErrInjected = errors.New("monitor: injected detector fault")

// FaultContext identifies one classification attempt, so injectors can
// make deterministic decisions that do not depend on goroutine
// interleaving: the same (detector, program, window, attempt) tuple
// always sees the same fault.
type FaultContext struct {
	// Detector is the pool index of the base detector being called.
	Detector int
	// ProgSeed and ProgName identify the program under classification.
	ProgSeed uint64
	ProgName string
	// Window is the window index within the program's trace.
	Window int
	// Attempt is the retry attempt number (0 = first try).
	Attempt int
}

// FaultInjector decides, per classification attempt, which fault (if
// any) to inject. Implementations must be safe for concurrent use.
type FaultInjector interface {
	Fault(fc FaultContext) FaultKind
}

// Profile configures the fault behaviour of one detector under an
// Injector. Rates are probabilities in [0, 1], evaluated cumulatively in
// the order error, panic, latency, corrupt; a rate of 1 forces that mode
// on every call.
type Profile struct {
	ErrorRate   float64
	PanicRate   float64
	LatencyRate float64
	CorruptRate float64
	// Until, when positive, limits the profile to the first Until calls
	// the injector observes for this detector — the detector "recovers"
	// afterwards, which is how tests exercise half-open probing.
	Until uint64
}

// Injector is the standard FaultInjector: per-detector profiles with
// seeded, interleaving-independent decisions. The fault for a given
// FaultContext is a pure function of the seed and the context, so runs
// with the same corpus and engine schedule reproduce the same faults
// regardless of worker count.
type Injector struct {
	seed     uint64
	fallback Profile

	mu       sync.Mutex
	profiles map[int]Profile
	calls    map[int]uint64
}

// NewInjector builds an Injector with no faults configured.
func NewInjector(seed uint64) *Injector {
	return &Injector{
		seed:     seed,
		profiles: map[int]Profile{},
		calls:    map[int]uint64{},
	}
}

// SetProfile installs the fault profile for one detector index.
func (in *Injector) SetProfile(det int, p Profile) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.profiles[det] = p
}

// SetDefault installs the profile applied to detectors without an
// explicit one.
func (in *Injector) SetDefault(p Profile) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.fallback = p
}

// Fault implements FaultInjector.
func (in *Injector) Fault(fc FaultContext) FaultKind {
	in.mu.Lock()
	p, ok := in.profiles[fc.Detector]
	if !ok {
		p = in.fallback
	}
	calls := in.calls[fc.Detector]
	if fc.Attempt == 0 {
		// Count distinct windows, not retries, so Until measures how much
		// work a detector failed, not how hard the engine retried.
		in.calls[fc.Detector] = calls + 1
	} else if calls > 0 {
		// A retry belongs to the window whose first attempt already
		// advanced the counter; judge it by that window's count.
		calls--
	}
	in.mu.Unlock()

	if p.Until > 0 && calls >= p.Until {
		return FaultNone
	}
	r := rng.NewKeyed(in.seed^mixFault(fc), "monitor-fault")
	u := r.Float64()
	switch {
	case u < p.ErrorRate:
		return FaultError
	case u < p.ErrorRate+p.PanicRate:
		return FaultPanic
	case u < p.ErrorRate+p.PanicRate+p.LatencyRate:
		return FaultLatency
	case u < p.ErrorRate+p.PanicRate+p.LatencyRate+p.CorruptRate:
		return FaultCorrupt
	}
	return FaultNone
}

// mixFault folds a fault context into one well-mixed 64-bit value
// (SplitMix64 finalizer over the tuple components).
func mixFault(fc FaultContext) uint64 {
	h := fc.ProgSeed
	for _, v := range [...]uint64{uint64(fc.Detector), uint64(fc.Window), uint64(fc.Attempt)} {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
