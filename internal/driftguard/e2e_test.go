package driftguard

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"rhmd/internal/core"
	"rhmd/internal/monitor"
	"rhmd/internal/obs/incident"
	"rhmd/internal/prog"
)

// rollbackIncidentRecorder builds the flight recorder the rollback
// scenario triggers from OnEvent. Bundles land in $INCIDENT_OUT (the
// drifttest make target points it at results/incidents, which CI
// uploads when the suite fails) or a per-test temp dir.
func rollbackIncidentRecorder(t *testing.T, e *monitor.Engine) (*incident.Recorder, string) {
	t.Helper()
	dir := os.Getenv("INCIDENT_OUT")
	if dir == "" {
		dir = filepath.Join(t.TempDir(), "incidents")
	}
	rec, err := incident.NewRecorder(incident.Config{Dir: dir, Now: time.Now, Registry: e.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	return rec, dir
}

// flip returns a shallow clone of p with the opposite label — the test
// stand-in for a fully evasive campaign: the trace is unchanged, but
// ground-truth feedback stops matching the verdicts, exactly the signal
// evasion produces on a labeled stream.
func flip(p *prog.Program) *prog.Program {
	q := *p
	if q.Label == prog.Malware {
		q.Label = prog.Benign
	} else {
		q.Label = prog.Malware
	}
	return &q
}

// relabel returns a shallow clone of p carrying the given label.
func relabel(p *prog.Program, label prog.Label) *prog.Program {
	q := *p
	q.Label = label
	return &q
}

// waitFor polls the guard until cond holds. Neither end-to-end arc
// expects a failed retrain, so one fails the test at once.
func waitFor(t *testing.T, g *Guard, deadline time.Time, what string, cond func(Status) bool) {
	t.Helper()
	for {
		st := g.Status()
		if cond(st) {
			return
		}
		if st.RetrainFailures > 0 {
			t.Fatalf("retrain failed while waiting for %s: %+v", what, st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// canaryPrograms returns the programs pool classifies correctly in
// every window. A canary over them sees accuracy 1 and agreement 1, so
// it commits whatever the pre-swap baseline was.
func canaryPrograms(t *testing.T, pool *core.RHMD, programs []*prog.Program, traceLen int) []*prog.Program {
	t.Helper()
	var out []*prog.Program
	for _, p := range programs {
		dec, err := pool.DecideTrace(p, traceLen)
		if err != nil {
			t.Fatal(err)
		}
		flagged, want := 0, 0
		for _, d := range dec {
			flagged += d.Decision
		}
		if p.Label == prog.Malware {
			want = len(dec)
		}
		if flagged == want {
			out = append(out, p)
		}
	}
	return out
}

// TestDriftLoopEndToEnd is the tentpole acceptance run: a live engine
// under sustained load sees its labeled accuracy collapse (an evasion
// campaign), the guard fires drift, retrains in the background through
// the real game retrainer while the old pool keeps serving, archives
// and hot-swaps the new generation, and the canary commits it — with
// zero acked-verdict loss across the whole arc.
//
// The guard runs at its production canary tolerance and cooldown, so
// the arc is made deterministic through its inputs: the test holds the
// retrained pool until the engine has drained, then sends exactly one
// canary window of programs the new generation classifies correctly in
// every window. Nothing is in flight when the canary decides, and no
// verdict arrives after the commit. Whether a retrained pool beats the
// one it replaces is the evade/retrain experiments' question; the
// rollback arc has its own test.
func TestDriftLoopEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("drift e2e skipped in -short mode")
	}
	f := getFixture(t)
	e, err := monitor.New(f.rhmd, monitor.Config{Workers: 4, QueueDepth: 256,
		TraceLen: f.traceLen, WindowDeadline: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	archive, err := OpenArchive(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gameRetrain := NewGameRetrainer(f.rhmd, f.traceLen, 901)
	trained := make(chan *core.RHMD, 1)
	release := make(chan struct{})
	const canaryWindow = 5
	g, err := New(f.rhmd, Config{
		Swapper: e,
		Retrain: func(ctx context.Context, corpus []*prog.Program) (*core.RHMD, error) {
			pool, err := gameRetrain(ctx, corpus)
			if err != nil {
				return nil, err
			}
			trained <- pool
			select {
			case <-release:
				return pool, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
		Archive:        archive,
		AccuracyFloor:  0.5,
		AgreementFloor: 0.001, // label-free signal effectively off: this run drives the labeled one
		Alpha:          0.4,
		MinSamples:     6,
		CanaryWindow:   canaryWindow,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// The replay buffer gets the true-labeled corpus — the retrainer
	// needs both classes.
	for _, p := range f.programs {
		g.Ingest(p)
	}

	var submitted, received, errored atomic.Int64
	e.Start(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		// A report counts as received once the guard has observed it, so
		// received == submitted means the guard has seen every verdict.
		for rep := range e.Results() {
			g.Observe(rep)
			if rep.Err != nil {
				errored.Add(1)
			}
			received.Add(1)
		}
	}()
	submit := func(p *prog.Program) {
		for !e.Submit(p) {
			time.Sleep(time.Millisecond)
		}
		submitted.Add(1)
	}

	deadline := time.Now().Add(120 * time.Second)
	// Phase 1 — evasion campaign: flipped labels sink the accuracy EWMA
	// until drift fires.
	i := 0
	for g.Status().DriftEvents == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("drift never fired: %+v", g.Status())
		}
		submit(flip(f.programs[i%len(f.programs)]))
		i++
		time.Sleep(2 * time.Millisecond)
	}
	// Phase 2 — sustained clean load while the background retrain runs;
	// the hot path must never stall.
	var next *core.RHMD
	for next == nil {
		select {
		case next = <-trained:
			continue
		default:
		}
		if st := g.Status(); st.RetrainFailures > 0 {
			t.Fatalf("retrain failed: %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("retrain never finished: %+v", g.Status())
		}
		submit(f.programs[i%len(f.programs)])
		i++
		time.Sleep(2 * time.Millisecond)
	}
	canary := canaryPrograms(t, next, f.programs, f.traceLen)
	if len(canary) == 0 {
		t.Fatal("the retrained pool classifies no program correctly in every window")
	}
	// Phase 3 — swap and canary. The engine drains, the guard archives
	// and swaps the new generation in, and one canary window of
	// programs it classifies correctly commits it.
	for received.Load() != submitted.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("engine never drained: submitted %d, received %d", submitted.Load(), received.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)
	waitFor(t, g, deadline, "canary entry", func(st Status) bool { return st.State == "canary" })
	for j := 0; j < canaryWindow; j++ {
		submit(canary[j%len(canary)])
	}
	waitFor(t, g, deadline, "the canary decision", func(st Status) bool { return st.Commits+st.Rollbacks > 0 })
	e.Close()
	<-done
	g.Wait()

	if submitted.Load() != received.Load() {
		t.Fatalf("acked-verdict loss across the swap: submitted %d, received %d", submitted.Load(), received.Load())
	}
	if errored.Load() != 0 {
		t.Fatalf("%d verdicts errored during the drift loop", errored.Load())
	}
	st := g.Status()
	if st.DriftEvents != 1 || st.Retrains != 1 || st.Commits != 1 || st.Rollbacks != 0 {
		t.Fatalf("lifecycle counters off: %+v", st)
	}
	if e.PoolEpoch() != 1 || st.PoolEpoch != 1 {
		t.Fatalf("pool epoch engine=%d guard=%d, want 1", e.PoolEpoch(), st.PoolEpoch)
	}
	if es := e.Stats(); es.PoolSwaps != 1 {
		t.Fatalf("engine counted %d swaps, want 1", es.PoolSwaps)
	}
	// Archive-before-swap: the generation now serving must be
	// re-materializable by fingerprint, or a crash right now would be
	// unrecoverable.
	if _, err := archive.Resolve(1, e.PoolFingerprint()); err != nil {
		t.Fatalf("serving generation not in the archive: %v", err)
	}

	writeDriftReport(t, struct {
		Scenario      string `json:"scenario"`
		Submitted     int64  `json:"submitted"`
		Received      int64  `json:"received"`
		PoolEpoch     uint64 `json:"pool_epoch"`
		PoolSwaps     uint64 `json:"pool_swaps"`
		Status        Status `json:"drift"`
		ArchiveDirPop int    `json:"archived_generations"`
	}{"drift-commit", submitted.Load(), received.Load(), e.PoolEpoch(), e.Stats().PoolSwaps,
		st, archivedCount(t, archive)})
}

func archivedCount(t *testing.T, a *Archive) int {
	t.Helper()
	fps, err := a.Fingerprints()
	if err != nil {
		t.Fatal(err)
	}
	return len(fps)
}

// TestCanaryRegressionRollsBackE2E injects a genuinely worse "retrained"
// pool (thresholds pushed to +inf: it never flags anything) into a live
// engine and proves the canary catches the regression and automatically
// rolls the fleet back to the previous generation — which keeps serving.
func TestCanaryRegressionRollsBackE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("drift e2e skipped in -short mode")
	}
	f := getFixture(t)
	e, err := monitor.New(f.rhmd, monitor.Config{Workers: 4, QueueDepth: 256,
		TraceLen: f.traceLen, WindowDeadline: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-pass without the guard: learn the base pool's verdict for each
	// program so phase-2 labels can be aligned with the verdicts (clean
	// baseline accuracy 1.0, independent of raw detector quality).
	e.Start(context.Background())
	verdicts := map[string]bool{}
	go func() {
		for _, p := range f.programs {
			for !e.Submit(p) {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	for len(verdicts) < len(f.programs) {
		rep := <-e.Results()
		if rep.Err != nil {
			t.Fatalf("pre-pass %s: %v", rep.Program, rep.Err)
		}
		verdicts[rep.Program] = rep.Malware
	}

	archive, err := OpenArchive(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	evil := clonePool(t, f.rhmd)
	for _, d := range evil.Detectors {
		d.Threshold = 1e300 // flags nothing, ever
	}
	rec, incDir := rollbackIncidentRecorder(t, e)
	// The guard counts a rollback under its lock and runs OnEvent after
	// unlocking, so Status can report the rollback before its bundle is
	// written. The test learns of the rollback in the hook, once the
	// capture has returned, by closing rolledBack.
	rolledBack := make(chan struct{})
	var rollbackHooks atomic.Int64
	g, err := New(f.rhmd, Config{
		Swapper:        e,
		Retrain:        func(context.Context, []*prog.Program) (*core.RHMD, error) { return evil, nil },
		Archive:        archive,
		AccuracyFloor:  0.05, // the run fires via ForceDrift, not the floors
		AgreementFloor: 0.001,
		Alpha:          0.5,
		MinSamples:     4,
		CanaryWindow:   4,
		OnEvent: func(kind, detail string) {
			if kind != "rollback" {
				return
			}
			_, err := rec.Trigger(incident.Cause{Kind: "drift-rollback", Detail: detail})
			if err != nil && !errors.Is(err, incident.ErrSuppressed) {
				t.Errorf("incident capture on rollback: %v", err)
			}
			if rollbackHooks.Add(1) == 1 {
				close(rolledBack)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var submitted, received atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for rep := range e.Results() {
			received.Add(1)
			if rep.Err == nil {
				g.Observe(rep)
			}
		}
	}()
	submit := func(p *prog.Program) {
		for !e.Submit(p) {
			time.Sleep(time.Millisecond)
		}
		submitted.Add(1)
	}
	aligned := func(p *prog.Program) *prog.Program {
		label := prog.Benign
		if verdicts[p.Name] {
			label = prog.Malware
		}
		return relabel(p, label)
	}

	deadline := time.Now().Add(120 * time.Second)

	// Healthy baseline: labels aligned with the base pool's verdicts.
	for i := 0; i < 8; i++ {
		submit(aligned(f.programs[i%len(f.programs)]))
	}
	waitFor(t, g, deadline, "baseline samples", func(st Status) bool { return st.Samples >= 8 })

	g.ForceDrift("injected regression drill")
	waitFor(t, g, deadline, "canary entry", func(st Status) bool { return st.State == "canary" })
	if e.PoolEpoch() != 1 || e.PoolFingerprint() != evil.Fingerprint() {
		t.Fatalf("evil pool not serving: epoch %d fingerprint %016x", e.PoolEpoch(), e.PoolFingerprint())
	}

	// Canary traffic labeled Malware: the evil pool calls everything
	// benign, so its canary accuracy is 0 against a baseline of 1.
	for i := 0; i < 8; i++ {
		submit(relabel(f.programs[i%len(f.programs)], prog.Malware))
	}
	select {
	case <-rolledBack:
	case <-time.After(time.Until(deadline)):
		t.Fatalf("timed out waiting for rollback: %+v", g.Status())
	}
	st := g.Status()
	if st.Rollbacks != 1 || st.Commits != 0 || st.State != "watching" {
		t.Fatalf("rollback accounting off: %+v", st)
	}
	if e.PoolEpoch() != 2 || e.PoolFingerprint() != f.rhmd.Fingerprint() {
		t.Fatalf("rollback did not restore the previous generation: epoch %d fingerprint %016x, want 2/%016x",
			e.PoolEpoch(), e.PoolFingerprint(), f.rhmd.Fingerprint())
	}

	// The rollback tripped the flight recorder: a bundle with the
	// drift-rollback cause exists and round-trips.
	ids, err := rec.List()
	if err != nil || len(ids) == 0 {
		t.Fatalf("rollback captured no incident bundle: %d (%v)", len(ids), err)
	}
	b, err := incident.Load(nil, filepath.Join(incDir, ids[len(ids)-1]+".json"))
	if err != nil {
		t.Fatalf("rollback bundle does not round-trip: %v", err)
	}
	if b.Cause.Kind != "drift-rollback" || b.Cause.Detail == "" {
		t.Errorf("bundle cause = %+v, want drift-rollback with detail", b.Cause)
	}

	// The restored pool still serves: the stream keeps flowing after the
	// rollback.
	submit(aligned(f.programs[0]))
	e.Close()
	<-done
	g.Wait()
	// The pre-pass drained its own reports before the counting consumer
	// started, so the tallies cover only the guard-era traffic.
	if submitted.Load() != received.Load() {
		t.Fatalf("verdict loss: %d submitted, %d received", submitted.Load(), received.Load())
	}
	// Both generations that ever served are archived.
	for _, fp := range []uint64{f.rhmd.Fingerprint(), evil.Fingerprint()} {
		if _, err := archive.Resolve(0, fp); err != nil {
			t.Fatalf("generation %016x missing from archive: %v", fp, err)
		}
	}
}
