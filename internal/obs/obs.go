// Package obs is the reproduction's observability layer: a
// dependency-free (stdlib-only) metrics registry and an HTTP endpoint
// that exposes it — Prometheus/OpenMetrics exposition on /metrics
// (negotiated from the Accept header), kept verdict traces
// (internal/obs/span, the one event stream) on /traces, and
// net/http/pprof on /debug/pprof/.
//
// The registry is built for hot paths: every instrument is a handful of
// atomics, label lookups happen once at registration time (callers hold
// on to the resolved child), and nothing on the observe path takes a
// lock. Instruments registered twice under the same name return the
// same instance, so independent layers can share a registry without
// coordination.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricKind discriminates the three instrument families.
type metricKind uint8

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing uint64, safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (negative d decrements) with a lock-free CAS loop.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Exemplar is one sampled observation attached to a histogram bucket:
// the trace that produced the value, for joining a latency bucket back
// to a kept verdict trace on /traces. Rendered only in the OpenMetrics
// exposition; the Prometheus 0.0.4 path never sees it.
type Exemplar struct {
	// TraceID is the hex trace identifier (the only exemplar label).
	TraceID string
	// Value is the observed value.
	Value float64
}

// Histogram counts observations into fixed buckets. Observations and
// the running sum are atomics; no lock is taken on the observe path.
type Histogram struct {
	// upper holds the sorted finite bucket upper bounds; counts has one
	// extra slot for the implicit +Inf bucket.
	upper   []float64
	counts  []atomic.Uint64
	total   atomic.Uint64
	sumBits atomic.Uint64
	// exemplars holds the latest exemplar per bucket (nil until one is
	// recorded); aligned with counts.
	exemplars []atomic.Pointer[Exemplar]
}

func newHistogram(buckets []float64) *Histogram {
	up := append([]float64(nil), buckets...)
	sort.Float64s(up)
	// Drop a trailing +Inf: the overflow bucket is implicit.
	for len(up) > 0 && math.IsInf(up[len(up)-1], 1) {
		up = up[:len(up)-1]
	}
	return &Histogram{
		upper:     up,
		counts:    make([]atomic.Uint64, len(up)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(up)+1),
	}
}

// bucketOf returns the index of the bucket v falls into.
func (h *Histogram) bucketOf(v float64) int {
	// Linear scan: bucket vectors are small (~10) and the branch
	// predictor does better here than binary search.
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	return i
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucketOf(v)].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar records one value and attaches an exemplar carrying
// the originating trace ID to the bucket the value lands in. The
// exemplar is one extra pointer store on top of Observe; an empty
// traceID degrades to a plain Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if traceID != "" {
		h.exemplars[h.bucketOf(v)].Store(&Exemplar{TraceID: traceID, Value: v})
	}
	h.Observe(v)
}

// BucketExemplars returns the latest exemplar recorded per bucket
// (nil entries where none was recorded), aligned with Buckets' upper
// bounds plus the trailing +Inf bucket.
func (h *Histogram) BucketExemplars() []*Exemplar {
	out := make([]*Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		out[i] = h.exemplars[i].Load()
	}
	return out
}

// ObserveSince records the seconds elapsed since t0 — the idiomatic call
// for latency histograms.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Buckets returns the cumulative bucket counts aligned with the finite
// upper bounds (the +Inf bucket equals Count).
func (h *Histogram) Buckets() (upper []float64, cumulative []uint64) {
	upper = append([]float64(nil), h.upper...)
	cumulative = make([]uint64, len(h.upper))
	cum := uint64(0)
	for i := range h.upper {
		cum += h.counts[i].Load()
		cumulative[i] = cum
	}
	return upper, cumulative
}

// ExponentialBuckets returns n upper bounds starting at start and
// growing by factor — the usual shape for latency histograms.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// DefLatencyBuckets spans 50µs to ~1.6s in powers of two — wide enough
// for both an in-budget detector call and a stalled one hitting the
// window deadline.
func DefLatencyBuckets() []float64 { return ExponentialBuckets(50e-6, 2, 16) }

// family is one registered metric name: its metadata plus the children
// keyed by label values ("" for the scalar instrument).
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histogram families only

	mu       sync.Mutex
	children map[string]any
}

// child returns (creating if needed) the instrument for one label-value
// tuple: a view's prefix values (see Registry.WithLabel) followed by the
// caller's.
func (f *family) child(pre, values []string) any {
	if len(pre)+len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels)-len(pre), len(values)))
	}
	all := values
	if len(pre) > 0 {
		// The full slice expression makes append copy, so concurrent
		// With calls on one vec never share a backing array.
		all = append(pre[:len(pre):len(pre)], values...)
	}
	key := strings.Join(all, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	var m any
	switch f.kind {
	case counterKind:
		m = &Counter{}
	case gaugeKind:
		m = &Gauge{}
	case histogramKind:
		m = newHistogram(f.buckets)
	}
	f.children[key] = m
	return m
}

// Registry owns a namespace of metric families. The zero value is not
// usable; construct with NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family

	// root, labels and values are set on a view (see WithLabel): it
	// registers into root's namespace with labels/values prepended.
	root   *Registry
	labels []string
	values []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// WithLabel returns a view of r that prepends the label name=value to
// every family registered through it, so several components that
// register the same family names (the shards of a fleet) can share one
// registry without colliding. Views nest, and two views with the same
// labels resolve the same children. A view shares r's namespace: its
// Snapshot and exposition cover the whole registry, and one name
// registered both through a view and without its label is a label-set
// conflict like any other.
func (r *Registry) WithLabel(name, value string) *Registry {
	v := &Registry{
		root:   r,
		labels: append(append([]string(nil), r.labels...), name),
		values: append(append([]string(nil), r.values...), value),
	}
	if r.root != nil {
		v.root = r.root
	}
	return v
}

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// register resolves or creates a family, enforcing that a name is never
// reused with a different kind or label set. Re-registration with
// identical metadata is deliberate and returns the existing family, so
// repeated calls (e.g. one per experiment run) are cheap and idempotent.
func (r *Registry) register(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	if r.root != nil {
		return r.root.register(name, help, kind, append(append([]string(nil), r.labels...), labels...), buckets)
	}
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameRE.MatchString(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
		}
		if strings.Join(f.labels, "\x00") != strings.Join(labels, "\x00") {
			panic(fmt.Sprintf("obs: metric %q re-registered with labels %v (was %v)", name, labels, f.labels))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: map[string]any{},
	}
	r.families[name] = f
	return f
}

// sorted returns every family of the namespace, sorted by name.
func (r *Registry) sorted() []*family {
	if r.root != nil {
		r = r.root
	}
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// Counter registers (or resolves) a scalar counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, counterKind, nil, nil).child(r.values, nil).(*Counter)
}

// Gauge registers (or resolves) a scalar gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, gaugeKind, nil, nil).child(r.values, nil).(*Gauge)
}

// Histogram registers (or resolves) a scalar histogram with the given
// finite bucket upper bounds (nil = DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefLatencyBuckets()
	}
	return r.register(name, help, histogramKind, nil, buckets).child(r.values, nil).(*Histogram)
}

// CounterVec is a counter family with labeled children.
type CounterVec struct {
	fam *family
	pre []string // label values of the registering view
}

// CounterVec registers (or resolves) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, counterKind, labels, nil), r.values}
}

// With resolves the child for one label-value tuple. Resolve once and
// keep the child; With takes the family lock.
func (v *CounterVec) With(values ...string) *Counter { return v.fam.child(v.pre, values).(*Counter) }

// GaugeVec is a gauge family with labeled children.
type GaugeVec struct {
	fam *family
	pre []string
}

// GaugeVec registers (or resolves) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, gaugeKind, labels, nil), r.values}
}

// With resolves the child for one label-value tuple.
func (v *GaugeVec) With(values ...string) *Gauge { return v.fam.child(v.pre, values).(*Gauge) }

// HistogramVec is a histogram family with labeled children.
type HistogramVec struct {
	fam *family
	pre []string
}

// HistogramVec registers (or resolves) a labeled histogram family with
// the given bucket upper bounds (nil = DefLatencyBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefLatencyBuckets()
	}
	return &HistogramVec{r.register(name, help, histogramKind, labels, buckets), r.values}
}

// With resolves the child for one label-value tuple.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.fam.child(v.pre, values).(*Histogram)
}
