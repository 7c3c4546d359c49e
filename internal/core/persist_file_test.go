package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRHMDFileRoundTrip(t *testing.T) {
	f := getFixture(t)
	orig, err := New(f.pool, 77)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rhmd.json")
	if err := SaveRHMDFile(path, orig); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRHMDFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != orig.Key || got.Size() != orig.Size() {
		t.Fatalf("round trip changed pool: key %d→%d, size %d→%d", orig.Key, got.Key, orig.Size(), got.Size())
	}
	// The fingerprint is the pool's identity across crash recovery
	// (pool-swap WAL entries, the drift-guard archive): a persistence
	// round trip must preserve it bit-for-bit, including the probability
	// vector NewWeighted would otherwise re-normalize.
	if got.Fingerprint() != orig.Fingerprint() {
		t.Fatalf("round trip changed fingerprint %016x → %016x", orig.Fingerprint(), got.Fingerprint())
	}
	// The switching schedule is keyed and deterministic: identical pools
	// must produce identical decisions.
	p := f.atkTest[0]
	a, err := orig.DetectTraced(p, f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.DetectTraced(p, f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("restored RHMD decides differently")
	}
}

func TestLoadRHMDFileDetectsFlippedByte(t *testing.T) {
	f := getFixture(t)
	orig, err := New(f.pool, 77)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rhmd.json")
	if err := SaveRHMDFile(path, orig); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRHMDFile(path); err == nil || !strings.Contains(err.Error(), "crc32") {
		t.Fatalf("flipped byte load error = %v, want crc32 mismatch", err)
	}
}

func TestLoadRHMDFileRefusesUnsealed(t *testing.T) {
	f := getFixture(t)
	orig, err := New(f.pool, 77)
	if err != nil {
		t.Fatal(err)
	}
	// Plain SaveRHMD output without the trailer SaveRHMDFile appends.
	var buf bytes.Buffer
	if err := SaveRHMD(&buf, orig); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rhmd.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRHMDFile(path); err == nil || !strings.Contains(err.Error(), "missing crc32 trailer") {
		t.Fatalf("unsealed file load error = %v, want missing crc32 trailer", err)
	}
}
