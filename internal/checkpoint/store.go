// Package checkpoint is the durability layer of the reproduction: a
// crash-safe snapshot + write-ahead-log store the monitoring engine
// persists its state through, so a deployed detector survives power
// events the way the paper's hardware implementation would.
//
// The design is the classic small-database recipe, specialized for a
// state that fits in one record:
//
//   - Snapshots are versioned, length-prefixed, CRC32-checksummed
//     records written with the write-temp → fsync → rename → fsync-dir
//     protocol, so a crash at any byte leaves either the previous
//     generation or the complete new one on disk — never a torn mix.
//   - Between snapshots, incremental events (verdicts, breaker
//     transitions) are appended to a per-generation WAL and fsynced, so
//     recovery replays work done since the last snapshot. AppendBatch
//     group-commits: every record of a batch goes out in one write and
//     one fsync.
//   - Restore walks snapshot generations newest-first, falls back past
//     any generation that fails validation (counting each fallback),
//     and replays the valid prefix of the chosen generation's WAL; a
//     torn WAL tail — the signature of a crash mid-append — is cut, not
//     fatal.
//   - The last two good generations are retained, so one corrupt
//     newest snapshot never strands the store.
//
// Every write goes through the FS abstraction, which is how the
// crash-injection harness proves the above: a FailingFS aborts the
// sequence at every byte boundary and recovery must still land on a
// valid pre- or post-checkpoint state.
package checkpoint

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rhmd/internal/obs"
)

// ErrNoCheckpoint is returned by Restore when the directory holds no
// usable state at all — a fresh deployment, not a failure.
var ErrNoCheckpoint = errors.New("checkpoint: no checkpoint to restore")

// Options tunes a Store. The zero value selects the real filesystem.
type Options struct {
	// FS is the filesystem the store writes through (nil = the real OS
	// filesystem). Tests substitute a FailingFS here.
	FS FS
}

// keep is how many snapshot generations a store retains: the newest
// plus one fallback.
const keep = 2

// Store is a snapshot+WAL checkpoint directory. All methods are safe
// for concurrent use; appends from the engine may interleave with a
// periodic Save.
type Store struct {
	dir string
	fs  FS

	mu     sync.Mutex
	gen    uint64 // generation of the current snapshot + open WAL
	maxGen uint64 // highest generation ever seen on disk (valid or not)
	wal    File   // open WAL for gen; nil until first Append/Save
	// walSynced is the WAL's length at its last successful sync;
	// walTorn marks a write or sync that failed after it, leaving a
	// tail the next append must cut before it writes.
	walSynced int
	walTorn   bool
	ins       *instruments
}

// instruments is the store's registry-backed accounting, attached via
// Instrument (nil until then — a store is usable without metrics).
type instruments struct {
	saves       *obs.Counter
	appends     *obs.Counter // WAL records
	syncs       *obs.Counter // WAL fsyncs, one per AppendBatch
	restores    *obs.Counter
	fallbacks   *obs.Counter
	saveLatency *obs.Histogram
	snapBytes   *obs.Gauge
	generation  *obs.Gauge
	walEntries  *obs.Gauge
}

// Open prepares dir as a checkpoint directory, creating it if needed
// and scanning existing generations. It does not load anything; call
// Restore for that.
func Open(dir string, opts Options) (*Store, error) {
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("checkpoint: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir, fs: opts.FS}
	gens, err := s.snapshotGens()
	if err != nil {
		return nil, err
	}
	if len(gens) > 0 {
		s.maxGen = gens[len(gens)-1]
	}
	if walGens, err := s.walGens(); err == nil && len(walGens) > 0 {
		if g := walGens[len(walGens)-1]; g > s.maxGen {
			s.maxGen = g
		}
	}
	return s, nil
}

// Instrument registers the store's metrics in reg. Call once, before
// traffic.
func (s *Store) Instrument(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops := reg.CounterVec("rhmd_checkpoint_ops_total", "Checkpoint operations by kind.", "op")
	s.ins = &instruments{
		saves:     ops.With("save"),
		appends:   ops.With("wal_append"),
		syncs:     ops.With("wal_sync"),
		restores:  ops.With("restore"),
		fallbacks: ops.With("corruption_fallback"),
		saveLatency: reg.Histogram("rhmd_checkpoint_save_seconds",
			"Latency of one full snapshot save (encode excluded): write, fsync, rename, prune.", nil),
		snapBytes:  reg.Gauge("rhmd_checkpoint_snapshot_bytes", "Payload size of the newest snapshot."),
		generation: reg.Gauge("rhmd_checkpoint_generation", "Current snapshot generation."),
		walEntries: reg.Gauge("rhmd_checkpoint_wal_entries", "Entries appended to the current generation's WAL."),
	}
}

func snapName(gen uint64) string { return fmt.Sprintf("snap-%016d.ckpt", gen) }
func walName(gen uint64) string  { return fmt.Sprintf("wal-%016d.log", gen) }

// parseGen extracts the generation from a snapshot or WAL filename.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	gen, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// snapshotGens lists snapshot generations present on disk, ascending.
func (s *Store) snapshotGens() ([]uint64, error) {
	return s.listGens("snap-", ".ckpt")
}

// walGens lists WAL generations present on disk, ascending.
func (s *Store) walGens() ([]uint64, error) {
	return s.listGens("wal-", ".log")
}

func (s *Store) listGens(prefix, suffix string) ([]uint64, error) {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: listing %s: %w", s.dir, err)
	}
	var gens []uint64
	for _, n := range names {
		if g, ok := parseGen(n, prefix, suffix); ok {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// Save atomically writes payload as the next snapshot generation,
// rotates the WAL to that generation, and prunes generations beyond the
// retention window. On success the new generation is durable; on error
// the previous generation (and its WAL) is untouched and remains the
// restore target.
func (s *Store) Save(payload []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	next := s.maxGen + 1

	if err := WriteFileAtomic(s.fs, filepath.Join(s.dir, snapName(next)), encodeSnapshot(next, payload)); err != nil {
		return 0, err
	}

	// The snapshot is durable; everything after this point is cleanup
	// and rotation, and a crash in it only costs WAL rotation (restore
	// reads the new snapshot and finds an empty-or-missing WAL).
	if s.wal != nil {
		s.wal.Close() //rhmd:ignore errclose WAL is superseded by the durable snapshot; nothing left to lose
		s.wal = nil
	}
	s.walTorn = false // the torn tail belongs to the superseded WAL
	s.gen = next
	s.maxGen = next
	if err := s.openWALLocked(); err != nil {
		// The snapshot itself landed; surface the WAL error but leave
		// the store consistent (wal nil → next Append retries).
		return next, err
	}
	s.pruneLocked()

	if s.ins != nil {
		s.ins.saves.Inc()
		s.ins.saveLatency.ObserveSince(start)
		s.ins.snapBytes.Set(float64(len(payload)))
		s.ins.generation.Set(float64(next))
		s.ins.walEntries.Set(0)
	}
	return next, nil
}

// openWALLocked creates the WAL for the current generation and makes
// its header durable. Callers hold mu.
func (s *Store) openWALLocked() error {
	path := filepath.Join(s.dir, walName(s.gen))
	f, err := s.fs.Create(path)
	if err != nil {
		return fmt.Errorf("checkpoint: creating WAL %s: %w", path, err)
	}
	if err := writeHeader(f, walMagic, s.gen); err != nil {
		f.Close() //rhmd:ignore errclose best-effort cleanup; the header error is already being returned
		return fmt.Errorf("checkpoint: writing WAL header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close() //rhmd:ignore errclose best-effort cleanup; the sync error is already being returned
		return fmt.Errorf("checkpoint: syncing WAL header: %w", err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		f.Close() //rhmd:ignore errclose best-effort cleanup; the dir-sync error is already being returned
		return fmt.Errorf("checkpoint: syncing dir after WAL create: %w", err)
	}
	s.wal, s.walSynced, s.walTorn = f, headerSize, false
	return nil
}

// pruneLocked removes snapshot+WAL files outside the retention window.
// Removal failures are ignored: stale files cost disk, not correctness,
// and the next Save retries.
func (s *Store) pruneLocked() {
	gens, err := s.snapshotGens()
	if err != nil {
		return
	}
	// Keep the newest keep snapshot generations; everything older
	// goes, along with any WAL not belonging to a kept generation.
	kept := map[uint64]bool{s.gen: true}
	for i := len(gens) - 1; i >= 0 && len(kept) < keep; i-- {
		kept[gens[i]] = true
	}
	for _, g := range gens {
		if !kept[g] {
			_ = s.fs.Remove(filepath.Join(s.dir, snapName(g)))
		}
	}
	if walGens, err := s.walGens(); err == nil {
		for _, g := range walGens {
			if !kept[g] {
				_ = s.fs.Remove(filepath.Join(s.dir, walName(g)))
			}
		}
	}
}

// Append durably logs one incremental event against the current
// generation: AppendBatch with a single record.
func (s *Store) Append(kind byte, payload []byte) error {
	return s.AppendBatch([]Entry{{Kind: kind, Payload: payload}})
}

// AppendBatch durably logs entries, in order, against the current
// generation with one write and one fsync (group commit). When it
// returns nil every record of the batch is durable: an event the caller
// acts on is an event recovery will replay. On error none of the batch
// may be acted on, though a crash before the next append can leave a
// prefix of whole records that recovery replays. The next append first
// cuts whatever a failed one left behind: a torn record must never sit
// in front of records that were acknowledged, because replay stops at
// the first torn record.
func (s *Store) AppendBatch(entries []Entry) error {
	var buf []byte
	for _, e := range entries {
		buf = appendRecord(buf, e.Kind, e.Payload)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.walTorn:
		// Checked first: a cut that failed leaves no handle, and
		// openWALLocked would truncate the synced records too.
		if err := s.cutWALLocked(); err != nil {
			return err
		}
	case s.wal == nil:
		if err := s.openWALLocked(); err != nil {
			return err
		}
	}
	if _, err := s.wal.Write(buf); err != nil {
		s.walTorn = true
		return fmt.Errorf("checkpoint: appending WAL records: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		s.walTorn = true
		return fmt.Errorf("checkpoint: syncing WAL: %w", err)
	}
	s.walSynced += len(buf)
	if s.ins != nil {
		s.ins.appends.Add(uint64(len(entries)))
		s.ins.syncs.Inc()
		s.ins.walEntries.Add(float64(len(entries)))
	}
	return nil
}

// RestoreResult is what recovery found.
type RestoreResult struct {
	// Gen is the generation restored from (0 with a nil Snapshot when
	// only a generation-0 WAL existed).
	Gen uint64
	// Snapshot is the restored snapshot payload; nil when no snapshot
	// was written before the crash (recovery starts from zero state and
	// replays Entries).
	Snapshot []byte
	// Entries is the valid prefix of the generation's WAL.
	Entries []Entry
	// Fallbacks counts newer snapshot generations that were skipped
	// because they failed validation.
	Fallbacks int
	// TornWAL reports that the WAL had a torn tail (crash mid-append);
	// the tail was discarded.
	TornWAL bool
}

// Restore loads the newest valid snapshot (falling back across corrupt
// generations), replays its WAL prefix, and positions the store to
// continue from that state: subsequent Appends extend the restored
// history and the next Save opens a fresh generation. It returns
// ErrNoCheckpoint when the directory holds no state at all.
func (s *Store) Restore() (*RestoreResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	gens, err := s.snapshotGens()
	if err != nil {
		return nil, err
	}
	res := &RestoreResult{}
	found := false
	for i := len(gens) - 1; i >= 0; i-- {
		g := gens[i]
		data, err := s.fs.ReadFile(filepath.Join(s.dir, snapName(g)))
		if err == nil {
			if payload, derr := decodeSnapshot(data, g); derr == nil {
				res.Gen, res.Snapshot, found = g, payload, true
				break
			}
		}
		res.Fallbacks++
		if s.ins != nil {
			s.ins.fallbacks.Inc()
		}
	}
	if !found {
		// No valid snapshot. A generation-0 WAL (crash before the first
		// Save) still counts as restorable state.
		res.Gen = 0
		if walData, err := s.fs.ReadFile(filepath.Join(s.dir, walName(0))); err == nil {
			entries, torn, derr := decodeWAL(walData, 0)
			if derr == nil {
				res.Entries, res.TornWAL = entries, torn
				found = true
			}
		}
		if !found {
			if res.Fallbacks > 0 {
				return nil, fmt.Errorf("checkpoint: all %d snapshot generations failed validation", res.Fallbacks)
			}
			return nil, ErrNoCheckpoint
		}
	} else if walData, err := s.fs.ReadFile(filepath.Join(s.dir, walName(res.Gen))); err == nil {
		// A missing WAL is fine (crash between snapshot rename and WAL
		// create); a present one contributes its valid prefix. A WAL
		// that fails header validation is treated as absent: the
		// snapshot alone is still a consistent state.
		if entries, torn, derr := decodeWAL(walData, res.Gen); derr == nil {
			res.Entries, res.TornWAL = entries, torn
		}
	}

	// Re-seat the store on the restored generation: rewrite its WAL to
	// exactly the replayed prefix (atomically — the torn tail must not
	// survive) and reopen it for append.
	s.gen = res.Gen
	buf := appendHeader(make([]byte, 0, headerSize+len(res.Entries)*32), walMagic, s.gen)
	for _, e := range res.Entries {
		buf = appendRecord(buf, e.Kind, e.Payload)
	}
	if err := s.rewriteWALLocked(buf); err != nil {
		return nil, err
	}
	if s.ins != nil {
		s.ins.restores.Inc()
		s.ins.generation.Set(float64(s.gen))
		s.ins.walEntries.Set(float64(len(res.Entries)))
		if res.Snapshot != nil {
			s.ins.snapBytes.Set(float64(len(res.Snapshot)))
		}
	}
	return res, nil
}

// cutWALLocked puts the current generation's WAL back to its length at
// the last successful sync, after a failed write or sync left an
// unknown tail behind it.
func (s *Store) cutWALLocked() error {
	path := filepath.Join(s.dir, walName(s.gen))
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return fmt.Errorf("checkpoint: reading WAL %s to cut a failed append: %w", path, err)
	}
	if len(data) < s.walSynced {
		return fmt.Errorf("checkpoint: WAL %s holds %d bytes, %d were synced", path, len(data), s.walSynced)
	}
	return s.rewriteWALLocked(data[:s.walSynced])
}

// rewriteWALLocked replaces the current generation's WAL with exactly
// data (header included) via an atomic rename, then reopens it for
// append. WAL files are small (one generation's worth of events), so
// the rewrite is cheap and sidesteps truncate-in-place torn states.
func (s *Store) rewriteWALLocked(data []byte) error {
	if s.wal != nil {
		s.wal.Close() //rhmd:ignore errclose stale handle; the rewrite below replaces its file
		s.wal = nil
	}
	path := filepath.Join(s.dir, walName(s.gen))
	if err := WriteFileAtomic(s.fs, path, data); err != nil {
		return err
	}
	f, err := s.fs.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("checkpoint: reopening WAL %s: %w", path, err)
	}
	s.wal, s.walSynced, s.walTorn = f, len(data), false
	return nil
}

// Close releases the open WAL handle. The store must not be used after
// Close; a final Save should precede it.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}
