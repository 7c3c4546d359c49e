// Package walorder is a fixture for the walorder analyzer: in a
// function that appends to the checkpoint WAL, every atomic state
// publication must be dominated by the append (or by proof that no
// store is attached).
package walorder

import "sync/atomic"

type Store struct{}

func (s *Store) Append(kind byte, payload []byte) error { return nil }

type Entry struct {
	Kind    byte
	Payload []byte
}

func (s *Store) AppendBatch(entries []Entry) error { return nil }

type gen struct{ epoch uint64 }

type engine struct {
	pool atomic.Pointer[gen]
	ckpt *Store
}

// publishFirst is the PR 8 bug shape: readers see the new generation
// before the WAL records it, so a crash in between serves unlogged
// state after restore.
func publishFirst(e *engine, g *gen) error {
	e.pool.Store(g) // want "before the WAL append"
	if err := e.ckpt.Append(1, nil); err != nil {
		return err
	}
	return nil
}

// publishAfter is the correct protocol: append (or prove no store is
// attached), then publish.
func publishAfter(e *engine, g *gen, payload []byte) error {
	if e.ckpt != nil {
		if err := e.ckpt.Append(1, payload); err != nil {
			return err
		}
	}
	e.pool.Store(g)
	return nil
}

// racyConditional skips the append on a branch with no nil-evidence,
// so one path publishes unlogged state.
func racyConditional(e *engine, g *gen, fast bool) {
	if !fast {
		_ = e.ckpt.Append(1, nil)
	}
	e.pool.Store(g) // want "before the WAL append"
}

// earlyReturn proves absence with == nil before the unlogged publish.
func earlyReturn(e *engine, g *gen) {
	if e.ckpt == nil {
		e.pool.Store(g)
		return
	}
	_ = e.ckpt.Append(1, nil)
	e.pool.Store(g)
}

// installOnly has no Append at all: restore-time installs and fleet
// epoch bumps delegate WAL writes elsewhere, so the obligation is not
// theirs.
func installOnly(e *engine, g *gen) {
	e.pool.Store(g)
}

// logWAL is a shared WAL-logging helper: a call to it is the append.
func (e *engine) logWAL(payload []byte) error { return e.ckpt.Append(1, payload) }

// publishAfterHelper appends through the helper, then publishes.
func publishAfterHelper(e *engine, g *gen) error {
	if e.ckpt != nil {
		if err := e.logWAL(nil); err != nil {
			return err
		}
	}
	e.pool.Store(g)
	return nil
}

// publishBeforeHelper publishes before the helper logs the change.
func publishBeforeHelper(e *engine, g *gen) error {
	e.pool.Store(g) // want "before the WAL append"
	return e.logWAL(nil)
}

// publishAfterBatch group-commits the change, then publishes.
func publishAfterBatch(e *engine, g *gen) error {
	if err := e.ckpt.AppendBatch([]Entry{{Kind: 1}}); err != nil {
		return err
	}
	e.pool.Store(g)
	return nil
}

// publishBeforeBatch publishes before the group commit logs the change.
func publishBeforeBatch(e *engine, g *gen) error {
	e.pool.Store(g) // want "before the WAL append"
	return e.ckpt.AppendBatch([]Entry{{Kind: 1}})
}
