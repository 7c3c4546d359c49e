package monitor

import (
	"math"
	"testing"
	"time"

	"rhmd/internal/core"
	"rhmd/internal/features"
	"rhmd/internal/hmd"
	"rhmd/internal/rng"
)

// shellPool builds an RHMD over untrained detector shells — the health
// board only reads specs and switching weights, so no training is
// needed for breaker unit tests.
func shellPool(t *testing.T, n int) *core.RHMD {
	t.Helper()
	dets := make([]*hmd.Detector, n)
	for i := range dets {
		dets[i] = &hmd.Detector{Spec: hmd.Spec{Kind: features.Memory, Period: 1000, Algo: "lr"}}
	}
	r, err := core.New(dets, 1)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBreakerQuarantineAndRenormalize(t *testing.T) {
	b := newHealthBoard(shellPool(t, 4), 3, 10)
	// Two failures keep the breaker closed; the third opens it.
	for i := 0; i < 2; i++ {
		if q, _ := b.report(1, false, time.Millisecond, ""); q {
			t.Fatalf("quarantined after %d failures", i+1)
		}
	}
	q, _ := b.report(1, false, time.Millisecond, "")
	if !q {
		t.Fatal("threshold failure did not quarantine")
	}
	det := b.snapshot()
	if det[1].State != Open {
		t.Fatalf("state %v, want open", det[1].State)
	}
	// Survivors renormalize to 1/3 each, quarantined weight drops to 0.
	for i, d := range det {
		want := 1.0 / 3
		if i == 1 {
			want = 0
		}
		if math.Abs(d.Weight-want) > 1e-12 {
			t.Fatalf("detector %d weight %.4f, want %.4f", i, d.Weight, want)
		}
	}
	// The quarantined detector is never sampled.
	src := rng.New(9)
	for i := 0; i < 500; i++ {
		idx, probe, w := b.pick(src)
		if probe {
			t.Fatal("probe before cooldown")
		}
		if idx == 1 {
			t.Fatal("sampled a quarantined detector")
		}
		// Every live draw reports its renormalized switching weight.
		if math.Abs(w-1.0/3) > 1e-12 {
			t.Fatalf("draw weight %.4f, want 1/3", w)
		}
		b.windowDone()
		if i == 8 {
			break // stop just before the probe window
		}
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b := newHealthBoard(shellPool(t, 2), 3, 10)
	b.report(0, false, 0, "")
	b.report(0, false, 0, "")
	b.report(0, true, 0, "")
	b.report(0, false, 0, "")
	b.report(0, false, 0, "")
	if det := b.snapshot(); det[0].State != Closed {
		t.Fatal("interleaved success did not reset the failure streak")
	}
}

func TestBreakerProbeRestoreAndRequarantine(t *testing.T) {
	b := newHealthBoard(shellPool(t, 3), 1, 5)
	b.report(2, false, 0, "") // threshold 1: quarantine immediately
	src := rng.New(3)
	for i := 0; i < 5; i++ {
		if _, probe, _ := b.pick(src); probe {
			t.Fatalf("probe fired after %d windows, cooldown is 5", i)
		}
		b.windowDone()
	}
	idx, probe, w := b.pick(src)
	if !probe || idx != 2 {
		t.Fatalf("want probe of detector 2 after cooldown, got idx=%d probe=%v", idx, probe)
	}
	if w != 0 {
		t.Fatalf("probe pick carries weight %.4f, want 0", w)
	}
	// Failed probe: straight back to quarantine, no transition counted.
	quarantined, restored := b.report(2, false, 0, "")
	if det := b.snapshot(); det[2].State != Open || quarantined || restored {
		t.Fatalf("failed probe: state %v quarantined %v restored %v", det[2].State, quarantined, restored)
	}
	for i := 0; i < 5; i++ {
		b.windowDone()
	}
	idx, probe, _ = b.pick(src)
	if !probe || idx != 2 {
		t.Fatalf("second probe not offered: idx=%d probe=%v", idx, probe)
	}
	// Successful probe restores the detector and its weight.
	_, restored = b.report(2, true, 0, "")
	det := b.snapshot()
	if det[2].State != Closed || !restored {
		t.Fatalf("restore failed: state %v restored %v", det[2].State, restored)
	}
	if math.Abs(det[2].Weight-1.0/3) > 1e-12 {
		t.Fatalf("restored weight %.4f, want 1/3", det[2].Weight)
	}
}

func TestCancelProbeReopens(t *testing.T) {
	b := newHealthBoard(shellPool(t, 2), 1, 2)
	b.report(0, false, 0, "")
	b.windowDone()
	b.windowDone()
	idx, probe, _ := b.pick(rng.New(1))
	if !probe || idx != 0 {
		t.Fatalf("no probe offered: idx=%d probe=%v", idx, probe)
	}
	b.cancelProbe(0)
	det := b.snapshot()
	if det[0].State != Open {
		t.Fatalf("cancelled probe left state %v", det[0].State)
	}
	// Still probe-eligible on the next pick.
	if idx, probe, _ = b.pick(rng.New(1)); !probe || idx != 0 {
		t.Fatal("cancelled probe lost eligibility")
	}
}

func TestAllQuarantinedPickDrops(t *testing.T) {
	b := newHealthBoard(shellPool(t, 2), 1, 1000)
	b.report(0, false, 0, "")
	b.report(1, false, 0, "")
	idx, probe, _ := b.pick(rng.New(1))
	if idx != -1 || probe {
		t.Fatalf("all-dead pool picked idx=%d probe=%v", idx, probe)
	}
}
