package obs

import "strings"

// Registry snapshots give batch consumers — the benchrunner foremost —
// a consistent-enough copy of every instrument to diff a "before" and
// an "after" around a measured run, without knowing at compile time
// which families a layer registered. Snapshots read the same atomics a
// /metrics scrape reads; they take the registry and family locks only
// to enumerate, never on any observe path.

// HistogramValue is a histogram's state in a snapshot: the finite
// bucket upper bounds, the cumulative counts aligned with them, the
// total observation count (the implicit +Inf bucket) and the running
// sum.
type HistogramValue struct {
	Upper      []float64
	Cumulative []uint64
	Count      uint64
	Sum        float64
}

// Quantile estimates the q-th quantile of the snapshotted histogram;
// see Quantile for semantics and error bounds.
func (h HistogramValue) Quantile(q float64) float64 {
	return Quantile(h.Upper, h.Cumulative, h.Count, q)
}

// MetricValue is one instrument's state in a snapshot. Exactly one of
// the value fields is meaningful, per Kind: "counter" uses Counter,
// "gauge" uses Gauge (gauge funcs are evaluated at snapshot time),
// "histogram" uses Hist.
type MetricValue struct {
	Kind    string
	Counter uint64
	Gauge   float64
	Hist    *HistogramValue
}

// FamilySnapshot is one metric family: its children keyed by the
// label-value tuple joined with '\x00' ("" for scalar instruments),
// plus the label names to interpret the keys.
type FamilySnapshot struct {
	Kind     string
	Labels   []string
	Children map[string]MetricValue
}

// Snapshot is a point-in-time copy of a whole registry, keyed by family
// name. Individual instruments are read atomically; the snapshot as a
// whole is not a consistent cut (concurrent observers may land between
// families), which is the same guarantee a scrape has.
type Snapshot map[string]FamilySnapshot

// Snapshot copies every registered family.
func (r *Registry) Snapshot() Snapshot {
	fams := r.sorted()
	out := make(Snapshot, len(fams))
	for _, f := range fams {
		f.mu.Lock()
		fs := FamilySnapshot{
			Kind:     f.kind.String(),
			Labels:   append([]string(nil), f.labels...),
			Children: make(map[string]MetricValue, len(f.children)),
		}
		for key, m := range f.children {
			switch m := m.(type) {
			case *Counter:
				fs.Children[key] = MetricValue{Kind: "counter", Counter: m.Value()}
			case *Gauge:
				fs.Children[key] = MetricValue{Kind: "gauge", Gauge: m.Value()}
			case *GaugeFunc:
				fs.Children[key] = MetricValue{Kind: "gauge", Gauge: m.Value()}
			case *Histogram:
				upper, cum := m.Buckets()
				fs.Children[key] = MetricValue{Kind: "histogram", Hist: &HistogramValue{
					Upper: upper, Cumulative: cum, Count: m.Count(), Sum: m.Sum(),
				}}
			}
		}
		f.mu.Unlock()
		out[f.name] = fs
	}
	return out
}

// Counter sums a counter family's children over every label tuple; a
// missing family reads as zero, so callers can probe optional layers.
func (s Snapshot) Counter(name string) uint64 {
	var total uint64
	for _, mv := range s[name].Children {
		total += mv.Counter
	}
	return total
}

// CounterWith sums the children of a counter family whose trailing
// label values equal values (in registration order), so one read
// serves an engine's {outcome} family and a fleet's {shard, outcome}
// family alike, the latter summed over shards. Missing reads as zero.
func (s Snapshot) CounterWith(name string, values ...string) uint64 {
	if len(values) == 0 {
		return s.Counter(name)
	}
	suffix := strings.Join(values, "\x00")
	var total uint64
	for key, mv := range s[name].Children {
		if key == suffix || strings.HasSuffix(key, "\x00"+suffix) {
			total += mv.Counter
		}
	}
	return total
}

// Histogram merges a histogram family's children into one bucket
// vector (children of one family share a grid by construction).
// Returns nil when the family is absent or empty.
func (s Snapshot) Histogram(name string) *HistogramValue {
	var merged *HistogramValue
	for _, mv := range s[name].Children {
		h := mv.Hist
		if h == nil {
			continue
		}
		if merged == nil {
			merged = &HistogramValue{
				Upper:      append([]float64(nil), h.Upper...),
				Cumulative: append([]uint64(nil), h.Cumulative...),
				Count:      h.Count,
				Sum:        h.Sum,
			}
			continue
		}
		for i := range merged.Cumulative {
			merged.Cumulative[i] += h.Cumulative[i]
		}
		merged.Count += h.Count
		merged.Sum += h.Sum
	}
	return merged
}

// Diff returns after − before: counters and histogram bucket
// counts/sums subtract (families or children absent from before count
// from zero — they were registered mid-run), gauges keep their after
// value (a gauge delta is rarely the meaningful number). Families that
// vanished from after are dropped; registries never unregister, so
// that only happens when diffing unrelated snapshots.
func (after Snapshot) Diff(before Snapshot) Snapshot {
	out := make(Snapshot, len(after))
	for name, fa := range after {
		fb := before[name]
		fs := FamilySnapshot{
			Kind:     fa.Kind,
			Labels:   append([]string(nil), fa.Labels...),
			Children: make(map[string]MetricValue, len(fa.Children)),
		}
		for key, mv := range fa.Children {
			prev := fb.Children[key]
			switch mv.Kind {
			case "counter":
				mv.Counter -= prev.Counter
			case "histogram":
				h := *mv.Hist
				h.Cumulative = append([]uint64(nil), h.Cumulative...)
				if prev.Hist != nil && len(prev.Hist.Cumulative) == len(h.Cumulative) {
					for i := range h.Cumulative {
						h.Cumulative[i] -= prev.Hist.Cumulative[i]
					}
					h.Count -= prev.Hist.Count
					h.Sum -= prev.Hist.Sum
				}
				mv.Hist = &h
			}
			fs.Children[key] = mv
		}
		out[name] = fs
	}
	return out
}
