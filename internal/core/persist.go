package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"

	"rhmd/internal/checkpoint"
	"rhmd/internal/hmd"
)

// rhmdJSON is the RHMD wire format: the trained pool, the switching
// policy, and the switching key. Shipping the key with the model mirrors
// provisioning the hardware's secret entropy seed; deployments that derive
// the key on-device should zero it before export.
type rhmdJSON struct {
	Detectors []*hmd.Detector `json:"detectors"`
	Probs     []float64       `json:"probs"`
	Key       uint64          `json:"key"`
}

// MarshalJSON implements json.Marshaler.
func (r *RHMD) MarshalJSON() ([]byte, error) {
	return json.Marshal(rhmdJSON{Detectors: r.Detectors, Probs: r.Probs, Key: r.Key})
}

// UnmarshalJSON implements json.Unmarshaler, re-validating the pool and
// rebuilding the sampler.
func (r *RHMD) UnmarshalJSON(data []byte) error {
	var in rhmdJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	rebuilt, err := NewWeighted(in.Detectors, in.Probs, in.Key)
	if err != nil {
		return fmt.Errorf("core: persisted RHMD invalid: %w", err)
	}
	// Keep the persisted probability bits verbatim: NewWeighted
	// re-normalizes, and the resulting 1-ulp drift would change
	// Fingerprint() — the identity crash recovery matches pool-swap WAL
	// entries against. The sampler still uses the normalized weights.
	rebuilt.Probs = in.Probs
	*r = *rebuilt
	return nil
}

// Fingerprint returns a stable identity hash of the pool: FNV-64a over
// the switching key, pool size, and — per detector — the spec, the
// switching probability bits, and the detector's full JSON encoding
// (scaler, model parameters, threshold). Covering the trained
// parameters matters: a retrained pool keeps the same specs, probs and
// key but must hash differently, because serving layers use the
// fingerprint to tell pool generations apart across crash recovery.
func (r *RHMD) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "key=%d n=%d;", r.Key, len(r.Detectors))
	for i, d := range r.Detectors {
		fmt.Fprintf(h, "%d:%s:%016x:", i, d.Spec, math.Float64bits(r.Probs[i]))
		// Detector JSON marshaling is deterministic (struct fields emit
		// in declaration order), so identical parameters hash equal.
		body, err := json.Marshal(d)
		if err != nil {
			fmt.Fprintf(h, "marshal-err=%v", err)
		}
		h.Write(body)
		h.Write([]byte{';'})
	}
	return h.Sum64()
}

// SaveRHMD writes the randomized detector as JSON.
func SaveRHMD(w io.Writer, r *RHMD) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// LoadRHMD reads an RHMD written by SaveRHMD.
func LoadRHMD(rd io.Reader) (*RHMD, error) {
	var r RHMD
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("core: loading RHMD: %w", err)
	}
	return &r, nil
}

// SaveRHMDFile writes the randomized detector to path crash-safely:
// crc32 trailer plus atomic write-temp → fsync → rename, so a crash
// mid-save never leaves a torn model file.
func SaveRHMDFile(path string, r *RHMD) error {
	var buf bytes.Buffer
	if err := SaveRHMD(&buf, r); err != nil {
		return err
	}
	return checkpoint.WriteFileAtomic(checkpoint.OSFS{}, path, checkpoint.SealTrailer(buf.Bytes()))
}

// LoadRHMDFile reads an RHMD written by SaveRHMDFile, verifying the
// checksum trailer; a file without one is refused.
func LoadRHMDFile(path string) (*RHMD, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	body, err := checkpoint.VerifyTrailer(data)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", path, err)
	}
	return LoadRHMD(bytes.NewReader(body))
}
