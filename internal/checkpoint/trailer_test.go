package checkpoint

import (
	"bytes"
	"strings"
	"testing"
)

func TestTrailerRoundTrip(t *testing.T) {
	payload := []byte("{\"a\": 1}\n")
	sealed := SealTrailer(payload)
	if !bytes.HasPrefix(sealed, payload) {
		t.Fatal("sealing must not modify the payload")
	}
	body, err := VerifyTrailer(sealed)
	if err != nil {
		t.Fatalf("verify sealed: %v", err)
	}
	if !bytes.Equal(body, payload) {
		t.Fatalf("body %q != payload %q", body, payload)
	}
}

func TestTrailerMissingIsRefused(t *testing.T) {
	unsealed := []byte("{\"a\": 1}\n")
	if _, err := VerifyTrailer(unsealed); err == nil || !strings.Contains(err.Error(), "missing crc32 trailer") {
		t.Fatalf("unsealed data: err=%v, want missing trailer", err)
	}
}

func TestTrailerDetectsCorruption(t *testing.T) {
	sealed := SealTrailer([]byte("{\"weights\": [1, 2, 3]}\n"))
	for i := range sealed { // payload, trailer prefix, hex and newline
		mut := append([]byte{}, sealed...)
		mut[i] ^= 0x01
		if _, err := VerifyTrailer(mut); err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
}

func TestTrailerBadHexIsRefused(t *testing.T) {
	data := []byte("x\n" + "#rhmd-crc32:zzzzzzzz\n")
	if _, err := VerifyTrailer(data); err == nil || !strings.Contains(err.Error(), "malformed crc32 trailer") {
		t.Fatalf("unparseable trailer hex: err=%v, want malformed trailer", err)
	}
}

func TestTrailerPrefixInsidePayloadIgnored(t *testing.T) {
	// The marker appearing mid-payload (e.g. inside a JSON string) must
	// not be mistaken for a trailer once a real one is appended.
	payload := []byte("{\"note\": \"#rhmd-crc32:deadbeef\"}\n")
	sealed := SealTrailer(payload)
	body, err := VerifyTrailer(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "deadbeef") {
		t.Fatal("payload truncated at the embedded marker")
	}
}
