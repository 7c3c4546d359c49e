package driftguard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"rhmd/internal/core"
	"rhmd/internal/dataset"
	"rhmd/internal/features"
	"rhmd/internal/hmd"
	"rhmd/internal/monitor"
	"rhmd/internal/prog"
)

// fixture: a compact corpus and trained pool shared by every test in
// the package (training is the expensive part).
type fixture struct {
	programs []*prog.Program // held-out test split, true labels
	traceLen int
	pool     []*hmd.Detector
	rhmd     *core.RHMD
}

var (
	fx     *fixture
	fxOnce sync.Once
	fxErr  error
)

func getFixture(t testing.TB) *fixture {
	t.Helper()
	fxOnce.Do(func() {
		cfg := dataset.Config{BenignPerFamily: 8, MalwarePerFamily: 12, TraceLen: 30_000, Seed: 17}
		c, err := dataset.Build(cfg)
		if err != nil {
			fxErr = err
			return
		}
		groups, err := c.Split([]float64{0.7, 0.3}, 5)
		if err != nil {
			fxErr = err
			return
		}
		periods := []int{1000, 2000}
		data, err := dataset.ExtractWindows(groups[0], periods, cfg.TraceLen)
		if err != nil {
			fxErr = err
			return
		}
		specs := core.PoolSpecs(features.AllKinds(), periods, "lr")
		pool, err := core.TrainPool(specs, data, 1)
		if err != nil {
			fxErr = err
			return
		}
		r, err := core.New(pool, 0xD21F)
		if err != nil {
			fxErr = err
			return
		}
		fx = &fixture{programs: groups[1], traceLen: cfg.TraceLen, pool: pool, rhmd: r}
	})
	if fxErr != nil {
		t.Fatal(fxErr)
	}
	return fx
}

// clonePool deep-copies a pool via its JSON persistence round trip.
func clonePool(t testing.TB, base *core.RHMD) *core.RHMD {
	t.Helper()
	var buf bytes.Buffer
	if err := core.SaveRHMD(&buf, base); err != nil {
		t.Fatal(err)
	}
	v, err := core.LoadRHMD(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// fakeSwapper records every committed pool and hands out epochs, the
// test double for an engine/fleet.
type fakeSwapper struct {
	mu    sync.Mutex
	epoch uint64
	swaps []*core.RHMD
	err   error
}

func (s *fakeSwapper) SwapPool(r *core.RHMD) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return 0, s.err
	}
	s.epoch++
	s.swaps = append(s.swaps, r)
	return s.epoch, nil
}

func (s *fakeSwapper) swapped() []*core.RHMD {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*core.RHMD(nil), s.swaps...)
}

// rep builds a synthetic verdict: correct controls whether the verdict
// matches its label, flagged/windows set the vote margin, epoch stamps
// the generation.
func rep(correct bool, flagged, windows int, epoch uint64) monitor.Report {
	return monitor.Report{Program: "p", Label: prog.Malware, Malware: correct,
		Flagged: flagged, Windows: windows, PoolEpoch: epoch}
}

// TestAgreementCollapseFiresAndCommits drives the full state machine
// without an engine: split votes collapse the agreement EWMA (labels
// stay perfect — the label-free signal fires alone), the retrained pool
// is swapped, stragglers from the old epoch are excluded from the
// canary, and a healthy canary commits the new generation as the next
// rollback target.
func TestAgreementCollapseFiresAndCommits(t *testing.T) {
	f := getFixture(t)
	next := clonePool(t, f.rhmd)
	sw := &fakeSwapper{}
	g, err := New(f.rhmd, Config{
		Swapper:        sw,
		Retrain:        func(context.Context, []*prog.Program) (*core.RHMD, error) { return next, nil },
		AccuracyFloor:  0.01, // effectively off: accuracy stays 1.0
		AgreementFloor: 0.5,
		Alpha:          0.6,
		MinSamples:     4,
		CanaryWindow:   3,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Unanimous windows first (margin 1), then split votes: the margin
	// EWMA collapses below 0.5 while accuracy never moves.
	for i := 0; i < 4; i++ {
		g.Observe(rep(true, 10, 10, 0))
	}
	for i := 0; i < 8 && g.Status().DriftEvents == 0; i++ {
		g.Observe(rep(true, 5, 10, 0))
	}
	g.Wait()
	st := g.Status()
	if st.DriftEvents != 1 || st.Retrains != 1 {
		t.Fatalf("agreement collapse: drift=%d retrains=%d, want 1/1: %+v", st.DriftEvents, st.Retrains, st)
	}
	if got := sw.swapped(); len(got) != 1 || got[0] != next {
		t.Fatalf("swapper received %d pools, want the retrained one", len(got))
	}
	if st.State != "canary" || st.PoolEpoch != 1 {
		t.Fatalf("after swap: state %s epoch %d, want canary/1", st.State, st.PoolEpoch)
	}

	// Old-epoch stragglers must not count toward the canary window.
	for i := 0; i < 5; i++ {
		g.Observe(rep(true, 10, 10, 0))
	}
	if got := g.Status().CanarySeen; got != 0 {
		t.Fatalf("old-epoch stragglers counted: canary_seen=%d", got)
	}

	// Healthy new-generation verdicts: unanimous and correct → commit.
	for i := 0; i < 3; i++ {
		g.Observe(rep(true, 10, 10, 1))
	}
	st = g.Status()
	if st.Commits != 1 || st.Rollbacks != 0 || st.State != "watching" {
		t.Fatalf("canary did not commit: %+v", st)
	}

	// The committed pool is the new rollback target: run a second round,
	// fail its canary, and check the swapper receives the committed
	// generation as the rollback — not the original pool.
	g.ForceDrift("second round")
	g.Wait()
	if st := g.Status(); st.State != "canary" || st.PoolEpoch != 2 {
		t.Fatalf("second round: %+v", st)
	}
	for i := 0; i < 3; i++ {
		g.Observe(rep(false, 5, 10, 2)) // wrong and split: regression
	}
	st = g.Status()
	if st.Rollbacks != 1 {
		t.Fatalf("regressed canary did not roll back: %+v", st)
	}
	got := sw.swapped()
	if len(got) != 3 || got[2] != next {
		t.Fatalf("rollback target is not the committed generation (got %d swaps)", len(got))
	}
	if st.PoolEpoch != 3 || st.State != "watching" {
		t.Fatalf("after rollback: %+v", st)
	}
}

// TestCanaryToleranceEdge pins the rollback gate at 0.15 below the
// pre-swap baseline: a canary 0.12 below its baseline commits, one 0.18
// below rolls back.
func TestCanaryToleranceEdge(t *testing.T) {
	f := getFixture(t)
	for _, c := range []struct {
		correct int // of 50 canary verdicts, against a baseline of 1
		commit  bool
	}{
		{44, true},  // accuracy 0.88
		{41, false}, // accuracy 0.82
	} {
		next := clonePool(t, f.rhmd)
		g, err := New(f.rhmd, Config{
			Swapper:      &fakeSwapper{},
			Retrain:      func(context.Context, []*prog.Program) (*core.RHMD, error) { return next, nil },
			CanaryWindow: 50,
		})
		if err != nil {
			t.Fatal(err)
		}
		// One correct, unanimous verdict: the baseline is accuracy 1 and
		// agreement 1.
		g.Observe(rep(true, 10, 10, 0))
		g.ForceDrift("tolerance edge")
		g.Wait()
		if st := g.Status(); st.State != "canary" {
			t.Fatalf("no canary after the forced drift: %+v", st)
		}
		// Every canary verdict is unanimous, so only accuracy can fail.
		for i := 0; i < 50; i++ {
			g.Observe(rep(i < c.correct, 10, 10, 1))
		}
		st := g.Status()
		if c.commit && (st.Commits != 1 || st.Rollbacks != 0) {
			t.Errorf("canary accuracy %d/50 against baseline 1 did not commit: %+v", c.correct, st)
		}
		if !c.commit && (st.Rollbacks != 1 || st.Commits != 0) {
			t.Errorf("canary accuracy %d/50 against baseline 1 did not roll back: %+v", c.correct, st)
		}
	}
}

// TestRetrainFailureKeepsServing: a failing retrainer returns the guard
// to Watching under cooldown and never touches the swapper. The
// cooldown suppresses a re-fire for exactly 2×MinSamples verdicts: the
// next verdict fires again.
func TestRetrainFailureKeepsServing(t *testing.T) {
	f := getFixture(t)
	sw := &fakeSwapper{}
	const minSamples = 2
	g, err := New(f.rhmd, Config{
		Swapper:       sw,
		Retrain:       func(context.Context, []*prog.Program) (*core.RHMD, error) { return nil, fmt.Errorf("no corpus") },
		AccuracyFloor: 0.9,
		Alpha:         1,
		MinSamples:    minSamples,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Accuracy 0 with alpha 1: the MinSamples-th verdict fires.
	for i := 0; i < minSamples; i++ {
		g.Observe(rep(false, 10, 10, 0))
	}
	g.Wait()
	st := g.Status()
	if st.DriftEvents != 1 || st.RetrainFailures != 1 || st.State != "watching" {
		t.Fatalf("retrain failure handling: %+v", st)
	}
	if st.Cooldown != 2*minSamples {
		t.Fatalf("cooldown %d after a failed retrain, want 2×MinSamples = %d", st.Cooldown, 2*minSamples)
	}
	if len(sw.swapped()) != 0 {
		t.Fatal("failed retrain reached the swapper")
	}
	// Every verdict inside the cooldown is as bad as the ones that
	// fired, and none of them may re-fire.
	for i := 0; i < 2*minSamples; i++ {
		g.Observe(rep(false, 10, 10, 0))
		if st := g.Status(); st.DriftEvents != 1 {
			t.Fatalf("drift re-fired at verdict %d inside the cooldown: %+v", i+1, st)
		}
	}
	// The next one fires (and fails) again.
	g.Observe(rep(false, 10, 10, 0))
	g.Wait()
	if st := g.Status(); st.DriftEvents != 2 || st.RetrainFailures != 2 {
		t.Fatalf("drift did not re-fire after the cooldown: %+v", st)
	}
	if len(sw.swapped()) != 0 {
		t.Fatal("failed retrain reached the swapper")
	}
}

// TestIngestRingBounded: the replay buffer keeps only the most recent
// 256 programs.
func TestIngestRingBounded(t *testing.T) {
	f := getFixture(t)
	g, err := New(f.rhmd, Config{
		Swapper: &fakeSwapper{},
		Retrain: func(_ context.Context, c []*prog.Program) (*core.RHMD, error) { return nil, fmt.Errorf("x") },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		g.Ingest(&prog.Program{Name: fmt.Sprintf("p%d", i)})
	}
	g.Ingest(nil)
	if got := g.Status().ReplaySize; got != 256 {
		t.Fatalf("replay size %d, want 256", got)
	}
	kept := map[string]bool{}
	for _, p := range g.replay {
		kept[p.Name] = true
	}
	for i := 300 - 256; i < 300; i++ {
		if name := fmt.Sprintf("p%d", i); !kept[name] {
			t.Fatalf("replay buffer lost %s, one of the 256 most recent", name)
		}
	}
}

// TestArchiveRoundTrip: Put is idempotent, Resolve re-materializes a
// pool by fingerprint and rejects corrupt or mismatched files.
func TestArchiveRoundTrip(t *testing.T) {
	f := getFixture(t)
	dir := t.TempDir()
	a, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(f.rhmd); err != nil {
		t.Fatal(err)
	}
	if err := a.Put(f.rhmd); err != nil {
		t.Fatalf("idempotent Put: %v", err)
	}
	fps, err := a.Fingerprints()
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != 1 || fps[0] != f.rhmd.Fingerprint() {
		t.Fatalf("archive lists %v, want [%016x]", fps, f.rhmd.Fingerprint())
	}

	// A cold archive over the same directory resolves the pool.
	b, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Resolve(1, f.rhmd.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != f.rhmd.Fingerprint() {
		t.Fatalf("resolved fingerprint %016x, want %016x", got.Fingerprint(), f.rhmd.Fingerprint())
	}
	if _, err := b.Resolve(1, 0xDEAD); err == nil {
		t.Fatal("Resolve invented a pool for an unknown fingerprint")
	}

	// A file whose content does not hash to its name is rejected: the
	// fingerprint check catches renames and corruption.
	evil := clonePool(t, f.rhmd)
	evil.Detectors[0].Threshold += 42
	if err := b.Put(evil); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(b.path(evil.Fingerprint()), b.path(0xBEEF)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Resolve(1, 0xBEEF); err == nil {
		t.Fatal("Resolve accepted a pool whose fingerprint does not match its filename")
	}
}

// TestStatusJSONAndString: the /drift payload round-trips and the report
// line renders.
func TestStatusJSONAndString(t *testing.T) {
	f := getFixture(t)
	g, err := New(f.rhmd, Config{
		Swapper: &fakeSwapper{},
		Retrain: func(_ context.Context, c []*prog.Program) (*core.RHMD, error) { return nil, fmt.Errorf("x") },
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Observe(rep(true, 10, 10, 0))
	body, err := json.Marshal(g.Status())
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"state", "pool_epoch", "accuracy_ewma", "agreement_ewma",
		"samples", "drift_events", "retrains", "rollbacks", "commits"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("status JSON missing %q: %s", key, body)
		}
	}
	if s := g.Status().String(); s == "" {
		t.Fatal("empty status line")
	}
}

// TestGuardConfigValidation: a guard without a swapper or retrainer, or
// without a serving pool, is refused.
func TestGuardConfigValidation(t *testing.T) {
	f := getFixture(t)
	if _, err := New(f.rhmd, Config{}); err == nil {
		t.Fatal("New accepted a config without Swapper/Retrain")
	}
	ok := Config{Swapper: &fakeSwapper{},
		Retrain: func(_ context.Context, c []*prog.Program) (*core.RHMD, error) { return nil, nil }}
	if _, err := New(nil, ok); err == nil {
		t.Fatal("New accepted a nil serving pool")
	}
	if _, err := New(f.rhmd, ok); err != nil {
		t.Fatal(err)
	}
}

// writeDriftReport mirrors the fleet chaos harness's FLEET_HEALTH_OUT:
// when DRIFT_REPORT_OUT is set, the e2e test drops its machine-readable
// outcome there for CI to upload as an artifact.
func writeDriftReport(t *testing.T, v any) {
	out := os.Getenv("DRIFT_REPORT_OUT")
	if out == "" {
		return
	}
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, body, 0o644); err != nil {
		t.Fatalf("writing %s: %v", out, err)
	}
}
