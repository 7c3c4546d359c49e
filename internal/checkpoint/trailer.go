package checkpoint

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strconv"
)

// Checksum trailer for text-format artifacts (persisted models). The
// snapshot/WAL record framing above is binary; model files stay
// human-readable JSON, so their integrity check is a comment-style final
// line — "#rhmd-crc32:xxxxxxxx" — over everything before it. Every
// writer seals its files, so a file without the line is refused like a
// torn one.

const trailerPrefix = "#rhmd-crc32:"

// SealTrailer returns data with a crc32 trailer line appended.
func SealTrailer(data []byte) []byte {
	out := make([]byte, 0, len(data)+len(trailerPrefix)+9)
	out = append(out, data...)
	return append(out, fmt.Sprintf("%s%08x\n", trailerPrefix, crc32.ChecksumIEEE(data))...)
}

// VerifyTrailer checks a trailer written by SealTrailer and returns the
// payload with the trailer stripped. Data whose last line is not a
// well-formed trailer is an error, and so is a trailer whose checksum
// does not match (the payload was torn or bit-flipped).
func VerifyTrailer(data []byte) ([]byte, error) {
	idx := bytes.LastIndex(data, []byte(trailerPrefix))
	if idx < 0 || (idx > 0 && data[idx-1] != '\n') {
		return nil, fmt.Errorf("checkpoint: missing crc32 trailer")
	}
	line := bytes.TrimSuffix(data[idx:], []byte("\n"))
	hexPart := line[len(trailerPrefix):]
	want, err := strconv.ParseUint(string(hexPart), 16, 32)
	if len(hexPart) != 8 || err != nil {
		return nil, fmt.Errorf("checkpoint: malformed crc32 trailer %q", line)
	}
	body := data[:idx]
	if got := crc32.ChecksumIEEE(body); got != uint32(want) {
		return nil, fmt.Errorf("checkpoint: crc32 trailer mismatch (file has %08x, payload sums to %08x)", uint32(want), got)
	}
	return body, nil
}
