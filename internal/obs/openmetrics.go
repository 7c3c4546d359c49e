package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// OpenMetrics exposition (the successor format Prometheus scrapes when
// it negotiates `application/openmetrics-text`). One writer renders
// both formats (prom.go); OpenMetrics differs from the 0.0.4 text
// format in exactly three ways:
//
//   - counter families are named without their `_total` suffix in the
//     HELP/TYPE lines while the sample keeps it;
//   - histogram bucket samples may carry an exemplar — trailing
//     `# {trace_id="..."} value ts` — which is how a latency bucket
//     points back to a kept verdict trace on /traces;
//   - the stream is terminated by a mandatory `# EOF` line.
//
// A scraper that does not ask for OpenMetrics gets the 0.0.4 format,
// without exemplars.

// ContentTypeOpenMetrics is the negotiated OpenMetrics content type.
const ContentTypeOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// ContentTypePrometheus is the default 0.0.4 text content type.
const ContentTypePrometheus = "text/plain; version=0.0.4; charset=utf-8"

// exemplarSuffix renders bucket i's exemplar as
// ` # {trace_id="..."} value ts`: the empty string when ex is nil (the
// 0.0.4 format) or no exemplar was recorded for the bucket.
func exemplarSuffix(ex []*Exemplar, i int) string {
	if ex == nil || ex[i] == nil {
		return ""
	}
	e := ex[i]
	s := fmt.Sprintf(" # {trace_id=%q} %s", e.TraceID, formatFloat(e.Value))
	if e.Ts != 0 {
		s += " " + strconv.FormatFloat(e.Ts, 'f', 3, 64)
	}
	return s
}

// AcceptsOpenMetrics reports whether an Accept header asks for the
// OpenMetrics exposition: the `application/openmetrics-text` media
// range must be present with a non-zero quality, and it must not lose
// to an explicitly higher-quality text/plain alternative. An absent or
// wildcard-only header stays on the 0.0.4 default — existing scrapers
// see exactly what they saw before.
func AcceptsOpenMetrics(accept string) bool {
	qOpen, qPlain := -1.0, -1.0
	for _, part := range strings.Split(accept, ",") {
		mediaRange, q := parseMediaRange(part)
		switch mediaRange {
		case "application/openmetrics-text":
			if q > qOpen {
				qOpen = q
			}
		case "text/plain":
			if q > qPlain {
				qPlain = q
			}
		}
	}
	return qOpen > 0 && qOpen >= qPlain
}

// parseMediaRange splits one Accept clause into its media type and
// quality (default 1). Malformed q-values read as 1, matching the
// tolerant behaviour scrapers expect from an ops endpoint.
func parseMediaRange(clause string) (string, float64) {
	fields := strings.Split(clause, ";")
	media := strings.ToLower(strings.TrimSpace(fields[0]))
	q := 1.0
	for _, p := range fields[1:] {
		k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
		if ok && strings.EqualFold(strings.TrimSpace(k), "q") {
			if parsed, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
				q = parsed
			}
		}
	}
	return media, q
}
