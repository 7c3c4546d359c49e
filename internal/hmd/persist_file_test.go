package hmd

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rhmd/internal/checkpoint"
	"rhmd/internal/features"
)

// Detector files are Save output sealed by checkpoint.WriteSealed and
// read back through checkpoint.ReadSealed before Load, the way
// rhmd-train -save/-load persists them. These tests pin that a real
// detector survives the round trip and that a damaged file is refused.

func trainOne(t *testing.T) (*Detector, [][]float64) {
	t.Helper()
	_, mw := env(t)
	d, err := Train(Spec{Kind: features.Instructions, Period: 2000, Algo: "lr"}, mw.Get(features.Instructions), 1)
	if err != nil {
		t.Fatal(err)
	}
	return d, mw.Get(features.Instructions).X
}

func saveFile(t *testing.T, path string, d *Detector) {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, d); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.WriteSealed(path, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func loadFile(path string) (*Detector, error) {
	data, err := checkpoint.ReadSealed(path)
	if err != nil {
		return nil, err
	}
	return Load(bytes.NewReader(data))
}

func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	d, X := trainOne(t)
	path := filepath.Join(t.TempDir(), "det.json")
	saveFile(t, path, d)
	got, err := loadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if got.ScoreWindow(X[i]) != d.ScoreWindow(X[i]) {
			t.Fatal("scores diverge after file round trip")
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "#rhmd-crc32:") {
		t.Fatal("detector file is not sealed with a checksum trailer")
	}
}

func TestLoadFileDetectsFlippedByte(t *testing.T) {
	d, _ := trainOne(t)
	path := filepath.Join(t.TempDir(), "det.json")
	saveFile(t, path, d)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digit deep inside a weight: undetectable by JSON parsing or
	// dimension checks, caught only by the checksum.
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadFile(path); err == nil || !strings.Contains(err.Error(), "crc32") {
		t.Fatalf("flipped byte load error = %v, want crc32 mismatch", err)
	}
}

func TestLoadFileRefusesUnsealed(t *testing.T) {
	d, _ := trainOne(t)
	path := filepath.Join(t.TempDir(), "det.json")
	// Plain Save output without the trailer WriteSealed appends: a valid
	// detector whose integrity cannot be checked.
	var buf bytes.Buffer
	if err := Save(&buf, d); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadFile(path); err == nil || !strings.Contains(err.Error(), "missing crc32 trailer") {
		t.Fatalf("unsealed file load error = %v, want missing crc32 trailer", err)
	}
}

func TestLoadFileDetectsTruncation(t *testing.T) {
	d, _ := trainOne(t)
	path := filepath.Join(t.TempDir(), "det.json")
	saveFile(t, path, d)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A torn write that lost the tail also loses the trailer, so the
	// truncated JSON must fail to parse rather than half-load.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadFile(path); err == nil {
		t.Fatal("truncated file loaded without error")
	}
}
