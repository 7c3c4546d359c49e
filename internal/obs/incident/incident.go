// Package incident is the flight recorder: when an SLO alert fires, a
// fleet shard dies, or the drift guard rolls a pool back, it freezes
// everything an operator would otherwise scrape from four endpoints
// and correlate by hand — the registry diff since the last healthy
// mark, the kept-trace ring filtered to the alert window, drift-guard
// status, fleet health, and goroutine/heap deltas — into one
// fingerprinted JSON bundle.
//
// Bundles are written with the checkpoint store's crash-safety
// protocol (write temp → fsync → rename → fsync dir), so a capture
// that races a crash leaves either the previous bundle set or the new
// one, never a torn file. The incident directory is bounded: only the
// newest Keep bundles survive (two generations by default, mirroring
// the checkpoint store's retention), and a per-cause cooldown keeps a
// flapping alert from churning the directory. Every bundle carries an
// FNV-64a fingerprint over its own canonical JSON, so a loader can
// prove the bundle it reads is the bundle that was written.
package incident

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"rhmd/internal/checkpoint"
	"rhmd/internal/obs"
	"rhmd/internal/obs/slo"
	"rhmd/internal/obs/span"
)

// SchemaVersion identifies the bundle layout; Load rejects others.
const SchemaVersion = "rhmd.incident/v1"

// ErrSuppressed reports a trigger swallowed by the per-cause cooldown.
var ErrSuppressed = errors.New("incident: trigger suppressed by cooldown")

// Cause names what tripped the recorder.
type Cause struct {
	// Kind is the trigger class ("slo-page", "slo-ticket",
	// "shard-death", "drift-rollback", "manual"); the cooldown is
	// tracked per kind.
	Kind string `json:"kind"`
	// Detail is the trigger's own description (the SLO transition
	// reason, the shard-death reason, the rollback detail).
	Detail string `json:"detail,omitempty"`
}

// SeriesDiff is one metric series in the registry diff: the label
// values and whichever value field the family kind uses.
type SeriesDiff struct {
	Values  []string            `json:"values,omitempty"`
	Counter uint64              `json:"counter,omitempty"`
	Gauge   float64             `json:"gauge,omitempty"`
	Hist    *obs.HistogramValue `json:"hist,omitempty"`
}

// FamilyDiff is one metric family's non-zero movement since the last
// healthy mark (counters/histograms as deltas, gauges as current
// values — Snapshot.Diff semantics).
type FamilyDiff struct {
	Name   string       `json:"name"`
	Kind   string       `json:"kind"`
	Labels []string     `json:"labels,omitempty"`
	Series []SeriesDiff `json:"series"`
}

// RuntimeDelta is the goroutine/heap movement since the last healthy
// mark, plus a bounded goroutine-profile excerpt at capture time.
type RuntimeDelta struct {
	GoroutinesHealthy  int    `json:"goroutines_healthy"`
	Goroutines         int    `json:"goroutines"`
	HeapAllocHealthy   uint64 `json:"heap_alloc_healthy"`
	HeapAlloc          uint64 `json:"heap_alloc"`
	HeapObjectsHealthy uint64 `json:"heap_objects_healthy"`
	HeapObjects        uint64 `json:"heap_objects"`
	// GoroutineProfile is the debug=1 goroutine profile, truncated to
	// the recorder's excerpt cap so bundles stay bounded.
	GoroutineProfile string `json:"goroutine_profile,omitempty"`
}

// Bundle is one captured incident. ID and Fingerprint are excluded
// (zeroed) from the fingerprint computation; everything else is
// covered.
type Bundle struct {
	Schema      string    `json:"schema"`
	ID          string    `json:"id"`
	Fingerprint string    `json:"fingerprint"`
	CapturedAt  time.Time `json:"captured_at"`
	LastHealthy time.Time `json:"last_healthy"`
	Cause       Cause     `json:"cause"`

	Runtime      RuntimeDelta      `json:"runtime"`
	RegistryDiff []FamilyDiff      `json:"registry_diff"`
	Traces       []*span.KeptTrace `json:"traces,omitempty"`
	SLO          *slo.Status       `json:"slo,omitempty"`
	Drift        json.RawMessage   `json:"drift,omitempty"`
	Fleet        json.RawMessage   `json:"fleet,omitempty"`
}

// Config tunes a Recorder. Dir and Now are required; every telemetry
// source is optional — absent sources simply leave their bundle
// section empty.
type Config struct {
	// Dir is the incident directory (created on first use).
	Dir string
	// FS is the filesystem seam (nil = the real one); tests inject
	// checkpoint.FailingFS to crash mid-capture.
	FS checkpoint.FS
	// Now is the injected clock; the recorder never reads the wall
	// clock.
	Now func() time.Time
	// Keep bounds the directory to the newest N bundles (default 2).
	Keep int
	// MinInterval is the per-cause-kind cooldown (default 1m): a
	// second trigger of the same kind inside the interval is
	// suppressed, so a flapping alert cannot churn the directory.
	MinInterval time.Duration
	// Window bounds the kept-trace section to traces started within
	// this long before capture (default 1h, the fast-burn long
	// window).
	Window time.Duration
	// ProfileBytes caps the goroutine-profile excerpt (default 32KiB).
	ProfileBytes int

	// Registry is diffed against the last healthy mark.
	Registry *obs.Registry
	// Metrics receives the rhmd_incident_* instruments (nil =
	// Registry; both nil = no instrumentation).
	Metrics *obs.Registry
	// Spans supplies the kept-trace ring.
	Spans *span.Recorder

	// SLOStatus, Drift and Fleet supply the respective status
	// documents at capture time. Drift and Fleet return any
	// JSON-marshalable value (driftguard.Status, fleet.FleetStats).
	SLOStatus func() slo.Status
	Drift     func() any
	Fleet     func() any
}

type instruments struct {
	captures   *obs.CounterVec
	suppressed *obs.Counter
	failures   *obs.Counter
	bundles    *obs.Gauge
}

// Recorder captures incident bundles. All methods are safe for
// concurrent use.
type Recorder struct {
	cfg Config
	ins *instruments

	mu          sync.Mutex
	baseline    obs.Snapshot
	lastHealthy time.Time
	goroutines  int
	heapAlloc   uint64
	heapObjects uint64
	lastByKind  map[string]time.Time
}

// NewRecorder validates cfg and builds a recorder. The incident dir is
// created lazily on the first capture.
func NewRecorder(cfg Config) (*Recorder, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("incident: Config.Dir is required")
	}
	if cfg.Now == nil {
		return nil, fmt.Errorf("incident: Config.Now is required (inject the owner's clock)")
	}
	if cfg.FS == nil {
		cfg.FS = checkpoint.OSFS{}
	}
	if cfg.Keep <= 0 {
		cfg.Keep = 2
	}
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = time.Minute
	}
	if cfg.Window <= 0 {
		cfg.Window = time.Hour
	}
	if cfg.ProfileBytes <= 0 {
		cfg.ProfileBytes = 32 << 10
	}
	if cfg.Metrics == nil {
		cfg.Metrics = cfg.Registry
	}
	r := &Recorder{cfg: cfg, lastByKind: map[string]time.Time{}}
	if cfg.Metrics != nil {
		r.ins = &instruments{
			captures: cfg.Metrics.CounterVec("rhmd_incident_captures_total",
				"Incident bundles captured, by trigger cause.", "cause"),
			suppressed: cfg.Metrics.Counter("rhmd_incident_suppressed_total",
				"Incident triggers swallowed by the per-cause cooldown."),
			failures: cfg.Metrics.Counter("rhmd_incident_write_failures_total",
				"Incident bundle captures that failed to persist."),
			bundles: cfg.Metrics.Gauge("rhmd_incident_bundles",
				"Incident bundles currently retained on disk."),
		}
	}
	// The healthy baseline starts at construction; MarkHealthy
	// re-baselines whenever the service is observed healthy again.
	r.markHealthyLocked()
	return r, nil
}

func (r *Recorder) markHealthyLocked() {
	if r.cfg.Registry != nil {
		r.baseline = r.cfg.Registry.Snapshot()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.goroutines = runtime.NumGoroutine()
	r.heapAlloc = ms.HeapAlloc
	r.heapObjects = ms.HeapObjects
	r.lastHealthy = r.cfg.Now()
}

// MarkHealthy re-baselines the "since last healthy" references: the
// registry snapshot, goroutine count and heap stats. Call it when the
// service is observed healthy (the SLO hook does, on every transition
// back to OK).
func (r *Recorder) MarkHealthy() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.markHealthyLocked()
}

// Trigger captures one incident bundle and returns its file path.
// Returns ErrSuppressed (and writes nothing) when the cause kind is
// inside its cooldown window.
func (r *Recorder) Trigger(cause Cause) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.cfg.Now()
	if last, ok := r.lastByKind[cause.Kind]; ok && now.Sub(last) < r.cfg.MinInterval {
		if r.ins != nil {
			r.ins.suppressed.Inc()
		}
		return "", ErrSuppressed
	}

	b := r.assembleLocked(cause, now)
	data, err := seal(b, now)
	if err == nil {
		err = r.persistLocked(b, data)
	}
	if err != nil {
		if r.ins != nil {
			r.ins.failures.Inc()
		}
		return "", err
	}
	r.lastByKind[cause.Kind] = now
	if r.ins != nil {
		r.ins.captures.With(cause.Kind).Inc()
	}
	return filepath.Join(r.cfg.Dir, b.ID+".json"), nil
}

// assembleLocked gathers every configured telemetry source into an
// unsealed bundle. Callers hold r.mu.
func (r *Recorder) assembleLocked(cause Cause, now time.Time) *Bundle {
	b := &Bundle{
		Schema:      SchemaVersion,
		CapturedAt:  now,
		LastHealthy: r.lastHealthy,
		Cause:       cause,
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.Runtime = RuntimeDelta{
		GoroutinesHealthy:  r.goroutines,
		Goroutines:         runtime.NumGoroutine(),
		HeapAllocHealthy:   r.heapAlloc,
		HeapAlloc:          ms.HeapAlloc,
		HeapObjectsHealthy: r.heapObjects,
		HeapObjects:        ms.HeapObjects,
		GoroutineProfile:   goroutineProfile(r.cfg.ProfileBytes),
	}

	if r.cfg.Registry != nil {
		b.RegistryDiff = diffFamilies(r.cfg.Registry.Snapshot().Diff(r.baseline))
	}
	if r.cfg.Spans != nil {
		cutoff := now.Add(-r.cfg.Window)
		for _, kt := range r.cfg.Spans.Snapshot() {
			if kt.Start.Before(cutoff) {
				continue
			}
			b.Traces = append(b.Traces, kt)
		}
	}
	if r.cfg.SLOStatus != nil {
		st := r.cfg.SLOStatus()
		b.SLO = &st
	}
	b.Drift = marshalSection(r.cfg.Drift)
	b.Fleet = marshalSection(r.cfg.Fleet)
	return b
}

// seal computes the bundle's fingerprint and identity: FNV-64a over
// the canonical JSON with ID and Fingerprint zeroed, then an ID whose
// zero-padded capture nanos make lexical order chronological.
func seal(b *Bundle, now time.Time) ([]byte, error) {
	fp, err := fingerprint(b)
	if err != nil {
		return nil, err
	}
	b.Fingerprint = fmt.Sprintf("%016x", fp)
	b.ID = fmt.Sprintf("incident-%020d-%016x", now.UnixNano(), fp)
	return json.MarshalIndent(b, "", "  ")
}

func fingerprint(b *Bundle) (uint64, error) {
	clone := *b
	clone.ID = ""
	clone.Fingerprint = ""
	data, err := json.Marshal(&clone)
	if err != nil {
		return 0, fmt.Errorf("incident: marshal bundle: %w", err)
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64(), nil
}

// persistLocked writes the sealed bundle crash-safely and prunes the
// directory to the retention bound.
func (r *Recorder) persistLocked(b *Bundle, data []byte) error {
	fsys := r.cfg.FS
	if err := fsys.MkdirAll(r.cfg.Dir); err != nil {
		return fmt.Errorf("incident: mkdir %s: %w", r.cfg.Dir, err)
	}
	path := filepath.Join(r.cfg.Dir, b.ID+".json")
	if err := checkpoint.WriteFileAtomic(fsys, path, data); err != nil {
		return fmt.Errorf("incident: write %s: %w", path, err)
	}
	names, err := listBundles(fsys, r.cfg.Dir)
	if err != nil {
		return err
	}
	// ReadDir sorts base names; the zero-padded nanos in the ID make
	// that chronological, so pruning from the front drops the oldest.
	for len(names) > r.cfg.Keep {
		old := names[0]
		names = names[1:]
		if err := fsys.Remove(filepath.Join(r.cfg.Dir, old)); err != nil {
			return fmt.Errorf("incident: prune %s: %w", old, err)
		}
	}
	if err := fsys.SyncDir(r.cfg.Dir); err != nil {
		return fmt.Errorf("incident: sync %s: %w", r.cfg.Dir, err)
	}
	if r.ins != nil {
		r.ins.bundles.Set(float64(len(names)))
	}
	return nil
}

func listBundles(fsys checkpoint.FS, dir string) ([]string, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("incident: list %s: %w", dir, err)
	}
	out := names[:0]
	for _, n := range names {
		if strings.HasPrefix(n, "incident-") && strings.HasSuffix(n, ".json") {
			out = append(out, n)
		}
	}
	return out, nil
}

// List returns the retained bundle IDs, oldest first.
func (r *Recorder) List() ([]string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names, err := listBundles(r.cfg.FS, r.cfg.Dir)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(names))
	for i, n := range names {
		ids[i] = strings.TrimSuffix(n, ".json")
	}
	return ids, nil
}

// SLOHook adapts the recorder to slo.Config.OnTransition: transitions
// into page or ticket trigger a capture (cause "slo-page"/"slo-ticket"
// so each severity cools down independently); transitions back to OK
// re-baseline the healthy mark. Capture errors are reported through
// the recorder's own failure counter, not the hook.
func (r *Recorder) SLOHook() func(slo.Transition) {
	return func(tr slo.Transition) {
		if tr.To == slo.StateOK {
			r.MarkHealthy()
			return
		}
		_, _ = r.Trigger(Cause{
			Kind:   "slo-" + tr.ToState,
			Detail: fmt.Sprintf("%s: %s → %s: %s", tr.Objective, tr.FromState, tr.ToState, tr.Reason),
		})
	}
}

// Load reads and verifies one bundle: schema check, then fingerprint
// recomputation over the canonical JSON with identity fields zeroed. A
// mismatch means the bundle was edited or corrupted after sealing.
func Load(fsys checkpoint.FS, path string) (*Bundle, error) {
	if fsys == nil {
		fsys = checkpoint.OSFS{}
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("incident: read %s: %w", path, err)
	}
	var b Bundle
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("incident: parse %s: %w", path, err)
	}
	if b.Schema != SchemaVersion {
		return nil, fmt.Errorf("incident: %s: schema %q, want %q", path, b.Schema, SchemaVersion)
	}
	fp, err := fingerprint(&b)
	if err != nil {
		return nil, err
	}
	if got := fmt.Sprintf("%016x", fp); got != b.Fingerprint {
		return nil, fmt.Errorf("incident: %s: fingerprint %s, recomputed %s (bundle altered after sealing)", path, b.Fingerprint, got)
	}
	return &b, nil
}

// diffFamilies converts a registry diff into the bundle's sorted,
// non-zero-only form: families and series that did not move since the
// last healthy mark are dropped, so the diff reads as "what changed".
func diffFamilies(diff obs.Snapshot) []FamilyDiff {
	var out []FamilyDiff
	for name, fam := range diff {
		fd := FamilyDiff{Name: name, Kind: fam.Kind, Labels: fam.Labels}
		for key, mv := range fam.Children {
			var values []string
			if key != "" {
				values = strings.Split(key, "\x00")
			}
			sd := SeriesDiff{Values: values}
			switch mv.Kind {
			case "counter":
				if mv.Counter == 0 {
					continue
				}
				sd.Counter = mv.Counter
			case "gauge":
				if mv.Gauge == 0 {
					continue
				}
				sd.Gauge = mv.Gauge
			case "histogram":
				if mv.Hist == nil || mv.Hist.Count == 0 {
					continue
				}
				h := *mv.Hist
				sd.Hist = &h
			default:
				continue
			}
			fd.Series = append(fd.Series, sd)
		}
		if len(fd.Series) == 0 {
			continue
		}
		sort.Slice(fd.Series, func(i, j int) bool {
			return strings.Join(fd.Series[i].Values, "\x00") < strings.Join(fd.Series[j].Values, "\x00")
		})
		out = append(out, fd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func marshalSection(fn func() any) json.RawMessage {
	if fn == nil {
		return nil
	}
	v := fn()
	if v == nil {
		return nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return json.RawMessage(fmt.Sprintf("{%q:%q}", "marshal_error", err.Error()))
	}
	return data
}

func goroutineProfile(limit int) string {
	var buf bytes.Buffer
	p := pprof.Lookup("goroutine")
	if p == nil {
		return ""
	}
	if err := p.WriteTo(&buf, 1); err != nil {
		return ""
	}
	s := buf.String()
	if len(s) > limit {
		s = s[:limit] + "\n… truncated …"
	}
	return s
}
