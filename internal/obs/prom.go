package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4): families sorted by name, children
// sorted by label values, histograms expanded into cumulative
// `_bucket{le=...}` series plus `_sum` and `_count`.
func (r *Registry) WritePrometheus(w io.Writer) error { return r.write(w, false) }

// WriteOpenMetrics renders every registered family in OpenMetrics
// text format, histogram exemplars included, ending with `# EOF`.
func (r *Registry) WriteOpenMetrics(w io.Writer) error { return r.write(w, true) }

// write renders the registry in one of the two formats. A bufio.Writer
// keeps its first error and returns it from every later write and from
// Flush, so the lines below are written unchecked and Flush reports.
func (r *Registry) write(w io.Writer, openMetrics bool) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sorted() {
		f.write(bw, openMetrics)
	}
	if openMetrics {
		bw.WriteString("# EOF\n")
	}
	return bw.Flush()
}

// write renders one family. The formats differ in three places (see
// openmetrics.go): the counter family name, bucket exemplars, and the
// `# EOF` line that Registry.write appends.
func (f *family) write(w *bufio.Writer, openMetrics bool) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type row struct {
		key string
		m   any
	}
	rows := make([]row, len(keys))
	for i, k := range keys {
		rows[i] = row{k, f.children[k]}
	}
	f.mu.Unlock()
	if len(rows) == 0 {
		return
	}

	// OpenMetrics names a counter family without the `_total` suffix;
	// the sample line carries it. Families registered without the
	// suffix gain it on the sample, which keeps the exposition legal
	// either way.
	name, counterName := f.name, f.name
	if openMetrics && f.kind == counterKind {
		name = strings.TrimSuffix(f.name, "_total")
		counterName = name + "_total"
	}
	if f.help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(f.help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, f.kind)
	for _, rw := range rows {
		labels := f.renderLabels(rw.key, "", "")
		switch m := rw.m.(type) {
		case *Counter:
			fmt.Fprintf(w, "%s%s %d\n", counterName, labels, m.Value())
		case *Gauge:
			fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(m.Value()))
		case *GaugeFunc:
			fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(m.Value()))
		case *Histogram:
			upper, cum := m.Buckets()
			var ex []*Exemplar
			if openMetrics {
				ex = m.BucketExemplars()
			}
			for i, ub := range upper {
				le := f.renderLabels(rw.key, "le", formatFloat(ub))
				fmt.Fprintf(w, "%s_bucket%s %d%s\n", name, le, cum[i], exemplarSuffix(ex, i))
			}
			inf := f.renderLabels(rw.key, "le", "+Inf")
			count := m.Count()
			fmt.Fprintf(w, "%s_bucket%s %d%s\n", name, inf, count, exemplarSuffix(ex, len(upper)))
			fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(m.Sum()))
			fmt.Fprintf(w, "%s_count%s %d\n", name, labels, count)
		}
	}
}

// renderLabels renders `{a="x",b="y"}` for one child key, optionally
// appending one extra pair (the histogram `le` label). Scalar children
// with no extra pair render as the empty string.
func (f *family) renderLabels(key, extraName, extraValue string) string {
	// %q matches the exposition grammar's label escaping exactly:
	// backslash, double quote and newline.
	var pairs []string
	if len(f.labels) > 0 {
		values := strings.Split(key, "\x00")
		for i, l := range f.labels {
			pairs = append(pairs, fmt.Sprintf("%s=%q", l, values[i]))
		}
	}
	if extraName != "" {
		pairs = append(pairs, fmt.Sprintf("%s=%q", extraName, extraValue))
	}
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
