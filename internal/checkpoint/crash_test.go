package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// crashScript drives a fixed store workload against fsys, recording
// which operations completed successfully before the injected crash.
// The sequence mirrors the engine's life: initial snapshot, incremental
// events, periodic snapshot, more events. Each generation's events go
// out in the given batches, a one-record batch through Append and a
// longer one through AppendBatch. It stops at the first error, exactly
// like a process that just died.
type crashScript struct {
	saved1, saved2 bool
	// appended1/appended2 are the payloads of every batch whose append
	// returned success in generation 1 / 2.
	appended1, appended2 []string
}

func runCrashScript(dir string, fsys FS, gen1, gen2 [][]string) *crashScript {
	out := &crashScript{}
	s, err := Open(dir, Options{FS: fsys})
	if err != nil {
		return out
	}
	if _, err := s.Save([]byte("state-1")); err != nil {
		return out
	}
	out.saved1 = true
	if !appendBatches(s, gen1, &out.appended1) {
		return out
	}
	if _, err := s.Save([]byte("state-2")); err != nil {
		return out
	}
	out.saved2 = true
	appendBatches(s, gen2, &out.appended2)
	return out
}

// appendBatches appends each batch in turn and collects the payloads of
// the ones that succeed into done; false means an append failed.
func appendBatches(s *Store, batches [][]string, done *[]string) bool {
	for _, b := range batches {
		var err error
		if len(b) == 1 {
			err = s.Append(KindVerdict, []byte(b[0]))
		} else {
			entries := make([]Entry, len(b))
			for i, p := range b {
				entries[i] = Entry{Kind: KindVerdict, Payload: []byte(p)}
			}
			err = s.AppendBatch(entries)
		}
		if err != nil {
			return false
		}
		*done = append(*done, b...)
	}
	return true
}

// isPrefix reports whether got is a prefix of want.
func isPrefix(got, want []string) bool {
	if len(got) > len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// isSuperPrefix reports whether got is a prefix of want that covers at
// least the first n elements.
func isSuperPrefix(got, want []string, n int) bool {
	return isPrefix(got, want) && len(got) >= n
}

// TestCrashInjectionEveryByteBoundary is the crash-injection harness
// over single-record appends (see sweepCrashPoints).
func TestCrashInjectionEveryByteBoundary(t *testing.T) {
	sweepCrashPoints(t, [][]string{{"g1-e1"}, {"g1-e2"}}, [][]string{{"g2-e1"}, {"g2-e2"}})
}

// TestCrashInjectionBatchedAppends sweeps every crash point of a run
// that group-commits: multi-record batches between the snapshots. A
// crash inside a batch's write must restore to a prefix of whole
// records, and every record of a batch whose AppendBatch returned nil
// must be replayed.
func TestCrashInjectionBatchedAppends(t *testing.T) {
	sweepCrashPoints(t,
		[][]string{{"g1-e1", "g1-e2", "g1-e3"}, {"g1-e4"}, {"g1-e5", "g1-e6"}},
		[][]string{{"g2-e1", "g2-e2"}, {"g2-e3", "g2-e4", "g2-e5"}})
}

// sweepCrashPoints learns the total write cost of the scripted
// workload, then re-runs it once per possible crash point — every
// written byte and every metadata operation — and after each simulated
// death recovers from the surviving files with a clean filesystem. The
// invariant is the checkpoint contract:
//
//   - Restore yields the pre-checkpoint or post-checkpoint state, never
//     a partial one: the snapshot is exactly "state-1" or "state-2" (or
//     nothing, if the crash predates the first durable snapshot);
//   - every append that reported success before the crash is replayed
//     (durability), and replayed entries are a clean prefix of the
//     attempted ones (no invented, torn or reordered history);
//   - a successful second Save is never rolled back by the crash.
func sweepCrashPoints(t *testing.T, gen1, gen2 [][]string) {
	t.Helper()
	run := func(dir string, fsys FS) *crashScript { return runCrashScript(dir, fsys, gen1, gen2) }
	probe := NewFailingFS(OSFS{}, 1<<30)
	run(t.TempDir(), probe)
	total := probe.Spent()
	if total < 100 {
		t.Fatalf("implausibly cheap workload: %d units", total)
	}

	attempted1 := slices.Concat(gen1...)
	attempted2 := slices.Concat(gen2...)
	root := t.TempDir()
	for budget := 0; budget < total; budget++ {
		dir := fmt.Sprintf("%s/b%04d", root, budget)
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		fsys := NewFailingFS(OSFS{}, budget)
		script := run(dir, fsys)
		if !fsys.Crashed() {
			t.Fatalf("budget %d: script finished without hitting the crash point", budget)
		}

		rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("budget %d: reopening after crash: %v", budget, err)
		}
		res, rerr := rec.Restore()
		if rerr != nil {
			if errors.Is(rerr, ErrNoCheckpoint) && !script.saved1 && len(script.appended1) == 0 {
				continue // crash before anything was durable
			}
			t.Fatalf("budget %d: restore failed: %v (script %+v)", budget, rerr, script)
		}

		switch snap := string(res.Snapshot); snap {
		case "":
			if res.Snapshot != nil {
				t.Fatalf("budget %d: empty but non-nil snapshot", budget)
			}
			// Generation-0 WAL only: legal before the first Save lands.
			if script.saved1 {
				t.Fatalf("budget %d: save 1 succeeded but restore found no snapshot", budget)
			}
		case "state-1":
			if script.saved2 {
				t.Fatalf("budget %d: save 2 succeeded but restore fell back to state-1", budget)
			}
			got := entryStrings(res.Entries)
			if !isSuperPrefix(got, attempted1, len(script.appended1)) {
				t.Fatalf("budget %d: state-1 entries %v, successful %v", budget, got, script.appended1)
			}
		case "state-2":
			got := entryStrings(res.Entries)
			if !isSuperPrefix(got, attempted2, len(script.appended2)) {
				t.Fatalf("budget %d: state-2 entries %v, successful %v", budget, got, script.appended2)
			}
		default:
			t.Fatalf("budget %d: partial snapshot state %q — torn write leaked through", budget, snap)
		}

		// Recovery must itself be crash-consistent: a second restore
		// sees the identical state (the WAL-tail rewrite is atomic).
		rec2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res2, err := rec2.Restore()
		if err != nil {
			t.Fatalf("budget %d: second restore failed: %v", budget, err)
		}
		if string(res2.Snapshot) != string(res.Snapshot) ||
			strings.Join(entryStrings(res2.Entries), ",") != strings.Join(entryStrings(res.Entries), ",") {
			t.Fatalf("budget %d: restore not idempotent: %v vs %v", budget, res2, res)
		}
	}
}
