package checkpoint

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
)

// Sealed files: text-format artifacts (persisted detectors and pools).
// The snapshot/WAL record framing above is binary; model files stay
// human-readable JSON, so their integrity check is a comment-style final
// line — "#rhmd-crc32:xxxxxxxx" — over everything before it. Every
// writer seals its files, so a file without the line is refused like a
// torn one.

const trailerPrefix = "#rhmd-crc32:"

// WriteSealed writes data to path crash-safely: it appends the crc32
// trailer and lands the file via write-temp → fsync → rename, so a
// crash mid-save leaves either the old file or the new one, never a
// torn hybrid.
func WriteSealed(path string, data []byte) error {
	return WriteFileAtomic(OSFS{}, path, sealTrailer(data))
}

// ReadSealed reads a file written by WriteSealed and returns its
// payload with the trailer verified and stripped; a file without a
// trailer, or whose payload does not match it, is refused.
func ReadSealed(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	body, err := verifyTrailer(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return body, nil
}

// sealTrailer returns data with a crc32 trailer line appended.
func sealTrailer(data []byte) []byte {
	out := make([]byte, 0, len(data)+len(trailerPrefix)+9)
	out = append(out, data...)
	return append(out, fmt.Sprintf("%s%08x\n", trailerPrefix, crc32.ChecksumIEEE(data))...)
}

// verifyTrailer checks a trailer written by sealTrailer and returns the
// payload with the trailer stripped. Data whose last line is not a
// well-formed trailer is an error, and so is a trailer whose checksum
// does not match (the payload was torn or bit-flipped).
func verifyTrailer(data []byte) ([]byte, error) {
	idx := bytes.LastIndex(data, []byte(trailerPrefix))
	if idx < 0 || (idx > 0 && data[idx-1] != '\n') {
		return nil, fmt.Errorf("missing crc32 trailer")
	}
	line := bytes.TrimSuffix(data[idx:], []byte("\n"))
	hexPart := line[len(trailerPrefix):]
	want, err := strconv.ParseUint(string(hexPart), 16, 32)
	if len(hexPart) != 8 || err != nil {
		return nil, fmt.Errorf("malformed crc32 trailer %q", line)
	}
	body := data[:idx]
	if got := crc32.ChecksumIEEE(body); got != uint32(want) {
		return nil, fmt.Errorf("crc32 trailer mismatch (file has %08x, payload sums to %08x)", uint32(want), got)
	}
	return body, nil
}
