package driftguard

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"rhmd/internal/core"
)

// Archive is a content-addressed pool store: one crash-safe JSON file
// per pool generation, named pool-<fingerprint>.json. The drift guard
// Puts every retrained pool here before swapping it in, and the
// monitoring engine's Restore resolves swap WAL entries back into pools
// through Resolve — wire it as monitor.Config.ResolvePool. Because
// files are keyed by fingerprint (not epoch), re-promoting an old
// generation after a rollback needs no extra writes, and two epochs
// serving the same bytes share one file.
type Archive struct {
	dir string

	mu sync.Mutex
	// loaded caches pools already materialized this process, by
	// fingerprint.
	loaded map[uint64]*core.RHMD
}

const poolFilePrefix, poolFileSuffix = "pool-", ".json"

// OpenArchive creates dir if needed and returns an archive over it.
func OpenArchive(dir string) (*Archive, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("driftguard: opening pool archive: %w", err)
	}
	return &Archive{dir: dir, loaded: map[uint64]*core.RHMD{}}, nil
}

func (a *Archive) path(fp uint64) string {
	return filepath.Join(a.dir, fmt.Sprintf("%s%016x%s", poolFilePrefix, fp, poolFileSuffix))
}

// Put persists the pool under its fingerprint (atomic write + checksum
// trailer via core.SaveRHMDFile). Idempotent: an already-archived
// fingerprint is a no-op, so callers can Put unconditionally.
func (a *Archive) Put(r *core.RHMD) error {
	fp := r.Fingerprint()
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.loaded[fp]; ok {
		return nil
	}
	path := a.path(fp)
	if _, err := os.Stat(path); err == nil {
		a.loaded[fp] = r
		return nil
	}
	if err := core.SaveRHMDFile(path, r); err != nil {
		return fmt.Errorf("driftguard: archiving pool %016x: %w", fp, err)
	}
	a.loaded[fp] = r
	return nil
}

// Resolve materializes the pool with the given fingerprint, verifying
// that the loaded bytes actually hash to it. The epoch is advisory
// (archives are content-addressed); the signature matches
// monitor.Config.ResolvePool so an archive plugs straight into engine
// restore.
func (a *Archive) Resolve(epoch, fingerprint uint64) (*core.RHMD, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if r, ok := a.loaded[fingerprint]; ok {
		return r, nil
	}
	r, err := core.LoadRHMDFile(a.path(fingerprint))
	if err != nil {
		return nil, fmt.Errorf("driftguard: resolving pool epoch %d fingerprint %016x: %w",
			epoch, fingerprint, err)
	}
	if got := r.Fingerprint(); got != fingerprint {
		return nil, fmt.Errorf("driftguard: archive file for %016x hashes to %016x (corrupt or renamed)",
			fingerprint, got)
	}
	a.loaded[fingerprint] = r
	return r, nil
}

// Fingerprints lists the archived pool fingerprints (on-disk scan, not
// just the in-process cache).
func (a *Archive) Fingerprints() ([]uint64, error) {
	entries, err := os.ReadDir(a.dir)
	if err != nil {
		return nil, err
	}
	var fps []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, poolFilePrefix) || !strings.HasSuffix(name, poolFileSuffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, poolFilePrefix), poolFileSuffix)
		fp, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			continue
		}
		fps = append(fps, fp)
	}
	return fps, nil
}
