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
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sorted() {
		if err := f.write(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (f *family) write(w io.Writer) error {
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
		return nil
	}

	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}
	for _, rw := range rows {
		labels := f.renderLabels(rw.key, "", "")
		switch m := rw.m.(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labels, m.Value()); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labels, formatFloat(m.Value())); err != nil {
				return err
			}
		case *GaugeFunc:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labels, formatFloat(m.Value())); err != nil {
				return err
			}
		case *Histogram:
			upper, cum := m.Buckets()
			for i, ub := range upper {
				le := f.renderLabels(rw.key, "le", formatFloat(ub))
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, le, cum[i]); err != nil {
					return err
				}
			}
			inf := f.renderLabels(rw.key, "le", "+Inf")
			count := m.Count()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, inf, count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labels, formatFloat(m.Sum())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labels, count); err != nil {
				return err
			}
		}
	}
	return nil
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
