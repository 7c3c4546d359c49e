package monitor

import (
	"testing"
	"time"
)

func TestInjectorDeterministicPerContext(t *testing.T) {
	a := NewInjector(7)
	b := NewInjector(7)
	p := Profile{ErrorRate: 0.25, PanicRate: 0.25, LatencyRate: 0.25, CorruptRate: 0.1, Latency: time.Millisecond}
	a.SetDefault(p)
	b.SetDefault(p)
	for w := 0; w < 200; w++ {
		fc := FaultContext{Detector: w % 4, ProgSeed: uint64(w) * 13, Window: w, Attempt: w % 3}
		fa, fb := a.Fault(fc), b.Fault(fc)
		if fa != fb {
			t.Fatalf("window %d: same seed and context gave %v vs %v", w, fa, fb)
		}
	}
	c := NewInjector(8)
	c.SetDefault(p)
	diff := false
	for w := 0; w < 200; w++ {
		fc := FaultContext{Detector: w % 4, ProgSeed: uint64(w) * 13, Window: w}
		if a.Fault(fc) != c.Fault(fc) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different injector seeds produced identical fault streams")
	}
}

func TestInjectorRates(t *testing.T) {
	in := NewInjector(99)
	in.SetProfile(2, Profile{ErrorRate: 0.5, LatencyRate: 0.2, Latency: time.Millisecond})
	var errs, lats, none int
	const n = 4000
	for w := 0; w < n; w++ {
		switch f := in.Fault(FaultContext{Detector: 2, ProgSeed: 1234, Window: w}); f.Kind {
		case FaultError:
			errs++
		case FaultLatency:
			lats++
			if f.Latency != time.Millisecond {
				t.Fatalf("latency fault lost its duration: %v", f.Latency)
			}
		case FaultNone:
			none++
		default:
			t.Fatalf("unconfigured fault kind %v", f.Kind)
		}
	}
	if got := float64(errs) / n; got < 0.45 || got > 0.55 {
		t.Fatalf("error rate %.3f, want ~0.5", got)
	}
	if got := float64(lats) / n; got < 0.15 || got > 0.25 {
		t.Fatalf("latency rate %.3f, want ~0.2", got)
	}
	// Unconfigured detectors see no faults.
	for w := 0; w < 50; w++ {
		if f := in.Fault(FaultContext{Detector: 0, Window: w}); f.Kind != FaultNone {
			t.Fatalf("detector without profile got fault %v", f.Kind)
		}
	}
}

func TestInjectorUntilRecovers(t *testing.T) {
	in := NewInjector(5)
	in.SetProfile(1, Profile{ErrorRate: 1, Until: 3})
	for w := 0; w < 3; w++ {
		if f := in.Fault(FaultContext{Detector: 1, Window: w}); f.Kind != FaultError {
			t.Fatalf("call %d: want forced error, got %v", w, f.Kind)
		}
	}
	// Retries of the last faulted window do not advance the counter.
	if f := in.Fault(FaultContext{Detector: 1, Window: 2, Attempt: 1}); f.Kind != FaultError {
		t.Fatalf("retry after cutoff boundary got %v", f.Kind)
	}
	for w := 3; w < 6; w++ {
		if f := in.Fault(FaultContext{Detector: 1, Window: w}); f.Kind != FaultNone {
			t.Fatalf("call %d: detector should have recovered, got %v", w, f.Kind)
		}
	}
}
