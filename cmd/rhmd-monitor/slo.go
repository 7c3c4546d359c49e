package main

import (
	"fmt"
	"os"
	"time"

	"rhmd/internal/obs"
	"rhmd/internal/obs/incident"
	"rhmd/internal/obs/slo"
	"rhmd/internal/obs/span"
)

// sloParams is the SLO/incident wiring input: which flags were set,
// which telemetry sources exist, and the objective set.
type sloParams struct {
	enabled     bool   // -slo
	incidentDir string // -incident-dir

	objectives []slo.Objective

	reg   *obs.Registry
	spans *span.Recorder
	// drift/fleet supply the respective status documents at incident
	// capture time; either may be nil (or return nil before the source
	// exists — the closures are built before the guard/fleet are).
	drift func() any
	fleet func() any
}

// sloWiring is the built result: the running SLO engine and incident
// recorder (either may be nil when its flags are off), their HTTP
// mounts, and a stop hook for the engine's ticker goroutine.
type sloWiring struct {
	eng    *slo.Engine
	rec    *incident.Recorder
	mounts []obs.Mount
	stop   func()
}

// finish stops the SLO ticker loop after the drain and takes one last
// sample, so /slo (served through any -hold) evaluates the whole run.
// A no-op when the engine is off.
func (w *sloWiring) finish() {
	if w.stop != nil {
		w.stop()
		w.eng.Tick()
	}
}

// buildSLO assembles the SLO engine and incident recorder from flags.
// The recorder works without the engine (shard-death and rollback
// hooks still capture bundles); the engine works without the recorder
// (alerts surface on /slo, metrics and kept traces only).
func buildSLO(p sloParams) (*sloWiring, error) {
	w := &sloWiring{}
	if !p.enabled && p.incidentDir == "" {
		return w, nil
	}

	if p.incidentDir != "" {
		rec, err := incident.NewRecorder(incident.Config{
			Dir:      p.incidentDir,
			Now:      time.Now,
			Registry: p.reg,
			Spans:    p.spans,
			SLOStatus: func() slo.Status {
				if w.eng != nil {
					return w.eng.Status()
				}
				return slo.Status{}
			},
			Drift: p.drift,
			Fleet: p.fleet,
		})
		if err != nil {
			return nil, err
		}
		w.rec = rec
		w.mounts = append(w.mounts, obs.Mount{Path: "/incidents", Handler: rec.Handler()})
	}

	if p.enabled {
		var hook func(slo.Transition)
		if w.rec != nil {
			hook = w.rec.SLOHook()
		}
		eng, err := slo.New(slo.Config{
			Source:     p.reg,
			Now:        time.Now,
			Objectives: p.objectives,
			Spans:      p.spans,
			OnTransition: func(tr slo.Transition) {
				fmt.Fprintf(os.Stderr, "slo: %s: %s → %s: %s\n",
					tr.Objective, tr.FromState, tr.ToState, tr.Reason)
				if hook != nil {
					hook(tr)
				}
			},
		})
		if err != nil {
			return nil, err
		}
		w.eng = eng
		w.mounts = append(w.mounts, obs.Mount{Path: "/slo", Handler: obs.JSONHandler(func() any { return eng.Status() })})
	}
	return w, nil
}

// start marks the run's baseline: the incident recorder's healthy
// mark and the SLO loop's first sample. Call it once the fleet has
// restored its checkpoints and before traffic, so restored totals
// count as history, not as this run's burn or incident diff.
func (w *sloWiring) start() {
	if w.rec != nil {
		w.rec.MarkHealthy()
	}
	if w.eng == nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.eng.Run(stop)
	}()
	w.stop = func() {
		close(stop)
		<-done
	}
}
