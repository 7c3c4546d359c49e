package checkpoint

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FS is the filesystem surface the checkpoint store writes through. It
// exists so crash behaviour is provable: tests swap in a FailingFS that
// aborts the write sequence at every byte boundary and verify that
// recovery from the surviving bytes never observes a partial state.
//
// The durability contract the store relies on:
//
//   - Create/Write/Sync/Close on a File persist data once Sync returns;
//   - Rename is atomic (POSIX rename(2) semantics): readers see either
//     the old file or the complete new one, never a mixture;
//   - SyncDir persists the directory entry created by Rename or Create,
//     so a renamed file survives a crash of the whole machine.
type FS interface {
	Create(name string) (File, error)
	OpenAppend(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(dir string) error
	ReadDir(dir string) ([]string, error)
	SyncDir(dir string) error
}

// File is a writable file handle with explicit durability.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// OSFS is the real filesystem.
type OSFS struct{}

// Create implements FS.
func (OSFS) Create(name string) (File, error) { return os.Create(name) }

// OpenAppend implements FS.
func (OSFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0o644)
}

// ReadFile implements FS.
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// ReadDir implements FS, returning sorted base names.
func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir implements FS: fsync on the directory itself, which is how
// POSIX makes a rename durable.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ErrInjectedCrash marks an operation aborted by a FailingFS whose
// budget ran out — the simulated machine died at that exact point.
var ErrInjectedCrash = errors.New("checkpoint: injected crash")

// FailingFS wraps a real FS with a deterministic crash point: every
// written byte and every metadata operation (create, rename, remove,
// sync) consumes one unit of budget, and the operation during which the
// budget reaches zero fails — writes tear mid-buffer, renames never
// happen. Once crashed, every subsequent mutation fails too, exactly
// like a dead machine. Reads are never failed: recovery runs on the
// surviving bytes.
//
// Sweeping the budget from 0 to the cost of a full run enumerates every
// crash point of a write sequence, which is the core of the
// crash-injection harness.
type FailingFS struct {
	inner FS

	mu      sync.Mutex
	budget  int
	spent   int
	crashed bool
}

// NewFailingFS wraps inner with the given operation budget.
func NewFailingFS(inner FS, budget int) *FailingFS {
	return &FailingFS{inner: inner, budget: budget}
}

// Spent returns the units consumed so far; run a sequence with a huge
// budget first to learn its total cost.
func (f *FailingFS) Spent() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.spent
}

// Crashed reports whether the crash point has been hit.
func (f *FailingFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// spend consumes up to n units and returns how many were granted before
// the crash point. After the crash everything is refused.
func (f *FailingFS) spend(n int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return 0
	}
	granted := n
	if remaining := f.budget - f.spent; granted >= remaining {
		granted = remaining
		f.crashed = true
	}
	f.spent += granted
	return granted
}

// meta charges one unit for a metadata operation.
func (f *FailingFS) meta() error {
	if f.spend(1) < 1 {
		return ErrInjectedCrash
	}
	return nil
}

// Create implements FS.
func (f *FailingFS) Create(name string) (File, error) {
	if err := f.meta(); err != nil {
		return nil, err
	}
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &failingFile{fs: f, inner: file}, nil
}

// OpenAppend implements FS.
func (f *FailingFS) OpenAppend(name string) (File, error) {
	if err := f.meta(); err != nil {
		return nil, err
	}
	file, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &failingFile{fs: f, inner: file}, nil
}

// ReadFile implements FS (reads never crash).
func (f *FailingFS) ReadFile(name string) ([]byte, error) { return f.inner.ReadFile(name) }

// Rename implements FS.
func (f *FailingFS) Rename(oldpath, newpath string) error {
	if err := f.meta(); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements FS.
func (f *FailingFS) Remove(name string) error {
	if err := f.meta(); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// MkdirAll implements FS.
func (f *FailingFS) MkdirAll(dir string) error {
	if err := f.meta(); err != nil {
		return err
	}
	return f.inner.MkdirAll(dir)
}

// ReadDir implements FS (reads never crash).
func (f *FailingFS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }

// SyncDir implements FS.
func (f *FailingFS) SyncDir(dir string) error {
	if err := f.meta(); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// failingFile tears writes at the crash point: the bytes granted before
// the budget ran out reach the underlying file, the rest never exist.
type failingFile struct {
	fs    *FailingFS
	inner File
}

func (w *failingFile) Write(p []byte) (int, error) {
	granted := w.fs.spend(len(p))
	n := 0
	if granted > 0 {
		var err error
		n, err = w.inner.Write(p[:granted])
		if err != nil {
			return n, err
		}
	}
	if granted < len(p) {
		return n, fmt.Errorf("%w (torn write after %d/%d bytes)", ErrInjectedCrash, n, len(p))
	}
	return n, nil
}

func (w *failingFile) Sync() error {
	if err := w.fs.meta(); err != nil {
		return err
	}
	return w.inner.Sync()
}

// Close never consumes budget: closing a handle is not a durability
// point, and recovery must be able to release handles after a crash.
func (w *failingFile) Close() error { return w.inner.Close() }

// WriteFileAtomic writes data to path with the write-temp → fsync →
// rename → fsync-dir protocol: a crash at any point leaves either the
// previous file (or no file) or the complete new one, never a torn mix.
// The temp file lives in path's directory so the rename stays within
// one filesystem.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	if fsys == nil {
		fsys = OSFS{}
	}
	dir := filepath.Dir(path)
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: creating %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close() //rhmd:ignore errclose best-effort cleanup; the write error is already being returned
		return fmt.Errorf("checkpoint: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close() //rhmd:ignore errclose best-effort cleanup; the sync error is already being returned
		return fmt.Errorf("checkpoint: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("checkpoint: closing %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("checkpoint: publishing %s: %w", path, err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("checkpoint: syncing dir %s: %w", dir, err)
	}
	return nil
}
