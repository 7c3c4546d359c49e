package slo

import (
	"fmt"
	"math"
	"time"

	"rhmd/internal/obs"
)

// Series readers: small adapters from registry snapshots to the
// cumulative / instantaneous values objectives consume. All of them
// treat a missing family as "no data" — zero for cumulative series
// (no events yet) and NaN for gauges (sample skipped) — so objectives
// over optional layers (drift guard, fleet) are safe to configure
// unconditionally.

// CounterSeries reads a counter family summed over all label tuples.
func CounterSeries(name string) func(obs.Snapshot) float64 {
	return func(s obs.Snapshot) float64 { return float64(s.Counter(name)) }
}

// CounterWithSeries reads the children of a counter family whose
// trailing label values match, summed over any leading labels (a
// fleet's shard; see obs.Snapshot.CounterWith).
func CounterWithSeries(name string, values ...string) func(obs.Snapshot) float64 {
	return func(s obs.Snapshot) float64 { return float64(s.CounterWith(name, values...)) }
}

// CounterSumSeries reads the sum of several labeled children of one
// counter family — e.g. processed+undurable as a durability total.
func CounterSumSeries(name string, valueSets ...[]string) func(obs.Snapshot) float64 {
	return func(s obs.Snapshot) float64 {
		var total float64
		for _, values := range valueSets {
			total += float64(s.CounterWith(name, values...))
		}
		return total
	}
}

// HistogramCountSeries reads a histogram family's total observation
// count (children merged).
func HistogramCountSeries(name string) func(obs.Snapshot) float64 {
	return func(s obs.Snapshot) float64 {
		h := s.Histogram(name)
		if h == nil {
			return 0
		}
		return float64(h.Count)
	}
}

// HistogramAboveSeries reads the cumulative count of observations
// above threshold. The threshold snaps UP to the nearest bucket upper
// bound (histograms only know bucket-edge resolution), so "latency >
// 50ms" on a {…, 0.05, 0.1, …} layout counts observations beyond the
// 0.05 bucket exactly; a threshold between edges errs toward counting
// fewer events bad, never more. Above the last finite bound the next
// bound is +Inf, so no observation counts as bad.
func HistogramAboveSeries(name string, threshold float64) func(obs.Snapshot) float64 {
	return func(s obs.Snapshot) float64 {
		h := s.Histogram(name)
		if h == nil {
			return 0
		}
		below := h.Count
		for i, upper := range h.Upper {
			if upper >= threshold {
				below = h.Cumulative[i]
				break
			}
		}
		return float64(h.Count - below)
	}
}

// GaugeSeries reads one gauge child (scalar when no values given),
// returning NaN when the family or child is absent — the bound-SLI
// "no data" marker.
func GaugeSeries(name string, values ...string) func(obs.Snapshot) float64 {
	return func(s obs.Snapshot) float64 {
		fam, ok := s[name]
		if !ok {
			return math.NaN()
		}
		key := ""
		for i, v := range values {
			if i > 0 {
				key += "\x00"
			}
			key += v
		}
		mv, ok := fam.Children[key]
		if !ok || mv.Kind != "gauge" {
			return math.NaN()
		}
		return mv.Gauge
	}
}

// LatencyObjective builds the verdict-latency SLI: the fraction of
// verdicts completing within threshold must be ≥ target. Reads the
// monitor's verdict-latency histogram, merged over its children (every
// shard of a fleet).
func LatencyObjective(target float64, threshold time.Duration) Objective {
	const hist = "rhmd_monitor_verdict_latency_seconds"
	return EventRatio("verdict-latency",
		fmt.Sprintf("fraction of verdicts completing within %s", threshold),
		target,
		HistogramAboveSeries(hist, threshold.Seconds()),
		HistogramCountSeries(hist))
}

// FleetObjectives returns the monitor's standing objective set:
//
//   - verdict-latency: ≥99% of verdicts within threshold (p99 bound).
//   - shed-rate: ≥99.9% of submissions accepted (not shed).
//   - durability: ≥99.99% of processed verdicts durably committed to
//     the WAL (undurable outcomes burn the budget).
//   - drift-accuracy / drift-agreement: the drift guard's EWMAs stay
//     above its own intervention floors.
//   - fleet-serving: at least 75% of the fleet's shards serve.
//
// The bound objectives read NaN and idle harmlessly on a registry that
// lacks their gauge (no drift guard wired, or a bare engine's
// registry). Thresholds mirror the subsystems' own defaults
// (driftguard floors 0.65/0.30) so /slo agrees with the layers it
// watches. A latencyThreshold ≤ 0 means 50ms; shards only names the
// fleet size in fleet-serving's description.
func FleetObjectives(latencyThreshold time.Duration, shards int) []Objective {
	if latencyThreshold <= 0 {
		latencyThreshold = 50 * time.Millisecond
	}
	const (
		programs       = "rhmd_monitor_programs_total"
		minServingFrac = 0.75
	)
	return []Objective{
		LatencyObjective(0.99, latencyThreshold),
		EventRatio("shed-rate",
			"fraction of submissions accepted rather than shed",
			0.999,
			CounterWithSeries(programs, "shed"),
			CounterSeries(programs)),
		EventRatio("durability",
			"fraction of completed verdicts durably committed to the WAL",
			0.9999,
			CounterWithSeries(programs, "undurable"),
			CounterSumSeries(programs, []string{"processed"}, []string{"undurable"})),
		BoundMin("drift-accuracy",
			"drift-guard labeled-accuracy EWMA above the retrain floor",
			0.99, 0.65, GaugeSeries("rhmd_drift_accuracy_ewma")),
		BoundMin("drift-agreement",
			"drift-guard ensemble-agreement EWMA above the drift floor",
			0.99, 0.30, GaugeSeries("rhmd_drift_agreement_ewma")),
		BoundMin("fleet-serving",
			fmt.Sprintf("fraction of %d shards serving stays ≥ %.0f%%", shards, 100*minServingFrac),
			0.99, minServingFrac, GaugeSeries("rhmd_fleet_serving_fraction")),
	}
}
