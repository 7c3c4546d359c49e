package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSealedFileTrailer: a file written by WriteSealed reads back as
// its payload, and ReadSealed refuses it once a byte is flipped, the
// trailer is missing, or a torn write lost the tail.
func TestSealedFileTrailer(t *testing.T) {
	payload := []byte("{\"weights\": [0.25, -1.5, 3]}\n")
	path := filepath.Join(t.TempDir(), "model.json")
	if err := WriteSealed(path, payload); err != nil {
		t.Fatal(err)
	}
	body, err := ReadSealed(path)
	if err != nil || !bytes.Equal(body, payload) {
		t.Fatalf("ReadSealed = %q, %v; want the payload back", body, err)
	}
	sealed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte{}, sealed...)
	flipped[len(payload)/2] ^= 0x01
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"flipped byte", "crc32 trailer mismatch", flipped},
		{"unsealed", "missing crc32 trailer", payload},
		{"truncated", "missing crc32 trailer", sealed[:len(sealed)/2]},
	} {
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSealed(path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ReadSealed error = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestTrailerRoundTrip(t *testing.T) {
	payload := []byte("{\"a\": 1}\n")
	sealed := sealTrailer(payload)
	if !bytes.HasPrefix(sealed, payload) {
		t.Fatal("sealing must not modify the payload")
	}
	body, err := verifyTrailer(sealed)
	if err != nil {
		t.Fatalf("verify sealed: %v", err)
	}
	if !bytes.Equal(body, payload) {
		t.Fatalf("body %q != payload %q", body, payload)
	}
}

func TestTrailerMissingIsRefused(t *testing.T) {
	unsealed := []byte("{\"a\": 1}\n")
	if _, err := verifyTrailer(unsealed); err == nil || !strings.Contains(err.Error(), "missing crc32 trailer") {
		t.Fatalf("unsealed data: err=%v, want missing trailer", err)
	}
}

func TestTrailerDetectsCorruption(t *testing.T) {
	sealed := sealTrailer([]byte("{\"weights\": [1, 2, 3]}\n"))
	for i := range sealed { // payload, trailer prefix, hex and newline
		mut := append([]byte{}, sealed...)
		mut[i] ^= 0x01
		if _, err := verifyTrailer(mut); err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
}

func TestTrailerBadHexIsRefused(t *testing.T) {
	data := []byte("x\n" + "#rhmd-crc32:zzzzzzzz\n")
	if _, err := verifyTrailer(data); err == nil || !strings.Contains(err.Error(), "malformed crc32 trailer") {
		t.Fatalf("unparseable trailer hex: err=%v, want malformed trailer", err)
	}
}

func TestTrailerPrefixInsidePayloadIgnored(t *testing.T) {
	// The marker appearing mid-payload (e.g. inside a JSON string) must
	// not be mistaken for a trailer once a real one is appended.
	payload := []byte("{\"note\": \"#rhmd-crc32:deadbeef\"}\n")
	sealed := sealTrailer(payload)
	body, err := verifyTrailer(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "deadbeef") {
		t.Fatal("payload truncated at the embedded marker")
	}
}
