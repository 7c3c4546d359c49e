package checkpoint

import (
	"bytes"
	"fmt"
	"path/filepath"

	"rhmd/internal/obs/span"
)

// BlackBoxFile is the name of the crash trace dump inside a checkpoint
// directory.
const BlackBoxFile = "trace-crash.json"

// DumpTrace flushes the recorder's kept traces into dir as the JSON
// array /traces serves — the black-box recorder for a panicking or
// fatally exiting process. It is best-effort by design (it runs on the
// way down), but the write itself is atomic so a crash during the dump
// cannot leave a half-written recording over a previous good one. A
// nil recorder dumps an empty array. It returns the path written.
func DumpTrace(dir string, rec *span.Recorder) (string, error) {
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		return "", fmt.Errorf("checkpoint: encoding trace dump: %w", err)
	}
	path := filepath.Join(dir, BlackBoxFile)
	if err := (OSFS{}).MkdirAll(dir); err != nil {
		return "", fmt.Errorf("checkpoint: creating %s: %w", dir, err)
	}
	if err := WriteFileAtomic(OSFS{}, path, buf.Bytes()); err != nil {
		return "", err
	}
	return path, nil
}

// RecoverDump is the deferred form of DumpTrace: install it at the top
// of a goroutine or main with
//
//	defer checkpoint.RecoverDump(dir, rec)
//
// and a panic unwinding through it flushes the kept traces to dir
// before re-panicking with the original value. A normal return dumps
// nothing.
func RecoverDump(dir string, rec *span.Recorder) {
	if r := recover(); r != nil {
		_, _ = DumpTrace(dir, rec)
		panic(r)
	}
}
