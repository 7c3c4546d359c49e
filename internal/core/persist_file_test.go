package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rhmd/internal/checkpoint"
)

// Pool files are SaveRHMD output sealed by checkpoint.WriteSealed and
// read back through checkpoint.ReadSealed before LoadRHMD, the way
// rhmd-train -rhmd -save and the drift-guard archive persist them.

func saveRHMDFile(t *testing.T, path string, r *RHMD) {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveRHMD(&buf, r); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.WriteSealed(path, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func loadRHMDFile(path string) (*RHMD, error) {
	data, err := checkpoint.ReadSealed(path)
	if err != nil {
		return nil, err
	}
	return LoadRHMD(bytes.NewReader(data))
}

func TestRHMDFileRoundTrip(t *testing.T) {
	f := getFixture(t)
	orig, err := New(f.pool, 77)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rhmd.json")
	saveRHMDFile(t, path, orig)
	got, err := loadRHMDFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != orig.Key || got.Size() != orig.Size() {
		t.Fatalf("round trip changed pool: key %d→%d, size %d→%d", orig.Key, got.Key, orig.Size(), got.Size())
	}
	// The drift-guard archive names pool files by fingerprint and
	// refuses one that hashes differently, so the sealed file must
	// carry the fingerprint through unchanged.
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
	saveRHMDFile(t, path, orig)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadRHMDFile(path); err == nil || !strings.Contains(err.Error(), "crc32") {
		t.Fatalf("flipped byte load error = %v, want crc32 mismatch", err)
	}
}

func TestLoadRHMDFileRefusesUnsealed(t *testing.T) {
	f := getFixture(t)
	orig, err := New(f.pool, 77)
	if err != nil {
		t.Fatal(err)
	}
	// Plain SaveRHMD output without the trailer WriteSealed appends.
	var buf bytes.Buffer
	if err := SaveRHMD(&buf, orig); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rhmd.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadRHMDFile(path); err == nil || !strings.Contains(err.Error(), "missing crc32 trailer") {
		t.Fatalf("unsealed file load error = %v, want missing crc32 trailer", err)
	}
}
