// Package slo turns the raw telemetry of internal/obs into service
// objectives: declarative SLIs evaluated over registry snapshots with
// Google-SRE-style multi-window multi-burn-rate alerting. An objective
// states what fraction of events must be good (the target); the engine
// samples the registry on every tick, computes the error-budget burn
// rate over four sliding windows (a short and a long window per rule),
// and pages when BOTH fast windows burn faster than the fast threshold
// — the short window making the alert responsive, the long window
// making it proof against a momentary blip. A second, slower rule
// files a ticket for budget leaks too gradual to page on.
//
// The engine never reads the wall clock itself: Config.Now is the
// injected clock, so alert timing is deterministic under test — the
// same discipline internal/obs/span and the monitor's clock seams
// follow. Evaluation is pull-based (Tick), with a convenience Run loop
// for serving processes.
package slo

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"rhmd/internal/obs"
	"rhmd/internal/obs/span"
)

// AlertState is one objective's alert severity.
type AlertState int

// Alert states, in escalation order. Ticket (the slow-burn rule) means
// the error budget is leaking and a human should look this week; Page
// (the fast-burn rule) means the budget is burning fast enough to
// exhaust within hours.
const (
	StateOK AlertState = iota
	StateTicket
	StatePage
)

var stateNames = [...]string{"ok", "ticket", "page"}

// String returns the state name.
func (s AlertState) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "state(?)"
}

// Objective is one declarative SLI + target. Exactly one of the two
// indicator forms is set:
//
//   - event ratio: Bad and Total read cumulative series (counters,
//     histogram-derived counts, monotone gauge funcs) from a snapshot;
//     the windowed error ratio is ΔBad/ΔTotal across the window.
//   - bound: Value samples an instantaneous series (a gauge) once per
//     tick; a sample violates when it falls below Min, and the
//     windowed error ratio is violating samples / samples.
//     NaN samples mean "no data" and are not counted either way.
//
// Both reduce to a bad-fraction over a window, so burn-rate math is
// uniform: burn = badFraction / (1 − Target).
type Objective struct {
	// Name identifies the objective on /slo and in metric labels.
	Name string
	// Description is the operator-facing one-liner.
	Description string
	// Target is the good-event fraction the objective promises, e.g.
	// 0.99. The error budget is 1 − Target.
	Target float64

	// Bad and Total are the event-ratio indicator (cumulative series).
	Bad   func(obs.Snapshot) float64
	Total func(obs.Snapshot) float64

	// Value and Min are the bound indicator.
	Value func(obs.Snapshot) float64
	Min   float64
}

// EventRatio builds an event-ratio objective.
func EventRatio(name, description string, target float64, bad, total func(obs.Snapshot) float64) Objective {
	return Objective{Name: name, Description: description, Target: target, Bad: bad, Total: total}
}

// BoundMin builds a bound objective that violates when value < min.
func BoundMin(name, description string, target, min float64, value func(obs.Snapshot) float64) Objective {
	return Objective{Name: name, Description: description, Target: target,
		Value: value, Min: min}
}

func (o *Objective) validate() error {
	if o.Name == "" {
		return fmt.Errorf("slo: objective needs a name")
	}
	if o.Target <= 0 || o.Target >= 1 {
		return fmt.Errorf("slo: objective %q target %v outside (0,1)", o.Name, o.Target)
	}
	isRatio := o.Bad != nil && o.Total != nil
	isBound := o.Value != nil
	if isRatio == isBound {
		return fmt.Errorf("slo: objective %q needs exactly one of Bad+Total or Value", o.Name)
	}
	return nil
}

// The alert windows, burn-rate thresholds and Run's tick period are
// constants: the Google SRE workbook's multiwindow setup. The fast rule
// pages when both FastShort and FastLong burn at FastBurn× or more,
// which consumes a 30-day budget in about 2 days; the slow rule files a
// ticket when both SlowShort and SlowLong burn at SlowBurn× or more
// (5 days). Tests steer time through Config.Now, not through these.
const (
	FastShort = 5 * time.Minute
	FastLong  = time.Hour
	SlowShort = 30 * time.Minute
	SlowLong  = 6 * time.Hour

	FastBurn = 14.4
	SlowBurn = 6.0

	// Interval is Run's tick period. Tick itself may be called at any
	// cadence; windows are measured in time, not ticks.
	Interval = 10 * time.Second
)

// Transition is one objective's alert-state change, the event the
// incident flight recorder subscribes to.
type Transition struct {
	Objective string     `json:"objective"`
	From      AlertState `json:"-"`
	To        AlertState `json:"-"`
	FromState string     `json:"from"`
	ToState   string     `json:"to"`
	At        time.Time  `json:"at"`
	// Reason states which rule crossed (or cleared) which threshold.
	Reason string `json:"reason"`
	// BurnFast/BurnSlow are the gating burn rates at transition time:
	// the minimum of each rule's short- and long-window burn (both
	// windows must exceed the threshold for the rule to fire).
	BurnFast float64 `json:"burn_fast"`
	BurnSlow float64 `json:"burn_slow"`
	// BudgetRemaining is the error-budget fraction left over the slow
	// long window (1 = untouched, 0 = exhausted, negative = overdrawn).
	BudgetRemaining float64 `json:"budget_remaining"`
}

// Config tunes an Engine. Source, Now and at least one objective are
// required.
type Config struct {
	// Source is the registry the objectives read; the engine's own
	// rhmd_slo_* instruments register in it too.
	Source *obs.Registry
	// Now is the injected clock; the engine never reads the wall clock.
	Now func() time.Time
	// Objectives are the SLIs under evaluation.
	Objectives []Objective
	// Spans, when non-nil, records each transition as an always-kept
	// root trace (stage "slo-alert"), mirroring SwapPool's pattern.
	Spans *span.Recorder
	// OnTransition, when non-nil, is called synchronously for every
	// alert transition — the incident recorder's subscription point.
	OnTransition func(Transition)
}

func (c *Config) fill() error {
	if c.Source == nil {
		return fmt.Errorf("slo: Config.Source registry is required")
	}
	if c.Now == nil {
		return fmt.Errorf("slo: Config.Now is required (inject the owner's clock)")
	}
	if len(c.Objectives) == 0 {
		return fmt.Errorf("slo: Config needs at least one objective")
	}
	seen := map[string]bool{}
	for i := range c.Objectives {
		if err := c.Objectives[i].validate(); err != nil {
			return err
		}
		if seen[c.Objectives[i].Name] {
			return fmt.Errorf("slo: duplicate objective name %q", c.Objectives[i].Name)
		}
		seen[c.Objectives[i].Name] = true
	}
	return nil
}

// sample is one tick's cumulative (bad, total) pair per objective.
// Bound objectives are folded into the same shape: each tick with data
// adds one to total and, on violation, one to bad — so window math is
// uniform across indicator kinds.
type sample struct {
	at  time.Time
	bad []float64
	tot []float64
}

// instruments is the engine's own registry accounting.
type instruments struct {
	evaluations *obs.Counter
	objectives  *obs.Gauge
	transitions *obs.CounterVec
	state       []*obs.Gauge
	burnFast    []*obs.Gauge
	burnSlow    []*obs.Gauge
	budget      []*obs.Gauge
}

func newInstruments(reg *obs.Registry, objectives []Objective) *instruments {
	ins := &instruments{
		evaluations: reg.Counter("rhmd_slo_evaluations_total",
			"SLO engine evaluation ticks (all objectives re-evaluated per tick)."),
		objectives: reg.Gauge("rhmd_slo_objectives",
			"Objectives under evaluation."),
		transitions: reg.CounterVec("rhmd_slo_transitions_total",
			"Alert-state transitions by objective and destination state.", "objective", "to"),
	}
	state := reg.GaugeVec("rhmd_slo_alert_state",
		"Objective alert state: 0 ok, 1 ticket, 2 page.", "objective")
	burnFast := reg.GaugeVec("rhmd_slo_burn_rate_fast",
		"Gating fast-rule burn rate: min of the short- and long-window burns (pages at the fast threshold).", "objective")
	burnSlow := reg.GaugeVec("rhmd_slo_burn_rate_slow",
		"Gating slow-rule burn rate: min of the short- and long-window burns (tickets at the slow threshold).", "objective")
	budget := reg.GaugeVec("rhmd_slo_error_budget_remaining",
		"Error-budget fraction remaining over the slow long window (1 untouched, 0 exhausted, negative overdrawn).", "objective")
	for _, o := range objectives {
		ins.state = append(ins.state, state.With(o.Name))
		ins.burnFast = append(ins.burnFast, burnFast.With(o.Name))
		ins.burnSlow = append(ins.burnSlow, burnSlow.With(o.Name))
		ins.budget = append(ins.budget, budget.With(o.Name))
	}
	ins.objectives.Set(float64(len(objectives)))
	return ins
}

// Engine evaluates the configured objectives over registry snapshots.
// Tick is not safe for concurrent use with itself; Status is safe to
// call concurrently with Tick.
type Engine struct {
	cfg Config
	ins *instruments

	mu      sync.Mutex
	history []sample // time-ordered; pruned past the slow long window
	states  []AlertState
	last    []ObjectiveStatus
	lastTr  []*Transition
	at      time.Time
}

// New validates cfg and builds an engine. No snapshot is taken until
// the first Tick.
func New(cfg Config) (*Engine, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:    cfg,
		ins:    newInstruments(cfg.Source, cfg.Objectives),
		states: make([]AlertState, len(cfg.Objectives)),
		lastTr: make([]*Transition, len(cfg.Objectives)),
	}
	return e, nil
}

// Run samples once at once, then ticks the engine every Interval until
// stop closes. The start sample anchors every window at the run's
// beginning, so one more Tick after a run shorter than an Interval
// still evaluates all of it. The CLI's serving loop; tests drive Tick
// directly.
func (e *Engine) Run(stop <-chan struct{}) {
	e.Tick()
	tick := time.NewTicker(Interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			e.Tick()
		}
	}
}

// windowEdge returns the cumulative pair at the window's left edge for
// objective i: the latest sample at or before cutoff, or the oldest
// sample when history is shorter than the window (a partial window —
// burn is computed over the data that exists, the standard treatment
// for a cold start). History is time-ordered, so the edge sits just
// before the first sample after cutoff.
func windowEdge(history []sample, cutoff time.Time, i int) (bad, tot float64) {
	j := sort.Search(len(history), func(j int) bool { return history[j].at.After(cutoff) })
	if j > 0 {
		j--
	}
	return history[j].bad[i], history[j].tot[i]
}

// burnOver computes objective i's burn rate over the window ending at
// the newest sample: (ΔBad/ΔTotal)/budget. No traffic in the window
// means no burn.
func (e *Engine) burnOver(history []sample, w time.Duration, i int, budget float64) (burn, ratio float64) {
	cur := history[len(history)-1]
	b0, t0 := windowEdge(history, cur.at.Add(-w), i)
	db, dt := cur.bad[i]-b0, cur.tot[i]-t0
	if dt <= 0 {
		return 0, 0
	}
	ratio = db / dt
	return ratio / budget, ratio
}

// Tick takes one registry snapshot, appends the per-objective
// cumulative sample, re-evaluates every objective's alert state, and
// emits transitions. The tick's time comes from the injected clock.
func (e *Engine) Tick() {
	now := e.cfg.Now()
	snap := e.cfg.Source.Snapshot()

	e.mu.Lock()

	s := sample{at: now,
		bad: make([]float64, len(e.cfg.Objectives)),
		tot: make([]float64, len(e.cfg.Objectives))}
	var prev *sample
	if len(e.history) > 0 {
		prev = &e.history[len(e.history)-1]
	}
	for i := range e.cfg.Objectives {
		o := &e.cfg.Objectives[i]
		if o.Value != nil {
			// Bound SLI: carry the cumulative violation counts forward
			// and add this tick's sample (NaN = no data, not counted).
			if prev != nil {
				s.bad[i], s.tot[i] = prev.bad[i], prev.tot[i]
			}
			v := o.Value(snap)
			if !math.IsNaN(v) {
				s.tot[i]++
				if v < o.Min {
					s.bad[i]++
				}
			}
			continue
		}
		s.bad[i], s.tot[i] = o.Bad(snap), o.Total(snap)
	}
	e.history = append(e.history, s)
	// Prune: keep one sample at or before the slow-long edge so the
	// longest window always has a left endpoint.
	cutoff := now.Add(-SlowLong)
	for len(e.history) >= 2 && !e.history[1].at.After(cutoff) {
		e.history = e.history[1:]
	}

	e.at = now
	e.last = make([]ObjectiveStatus, len(e.cfg.Objectives))
	var fired []Transition
	for i := range e.cfg.Objectives {
		var tr *Transition
		e.last[i], tr = e.evaluateLocked(i, now)
		if tr != nil {
			fired = append(fired, *tr)
		}
	}
	e.ins.evaluations.Inc()
	e.mu.Unlock()

	// Transitions are emitted after the state is committed and the lock
	// released: subscribers (the incident recorder in particular) read
	// the engine's Status from inside their hooks.
	for _, tr := range fired {
		e.emitTransition(tr)
	}
}

// evaluateLocked re-evaluates one objective, updates its gauges and
// state, and returns the transition to emit (nil when the state held).
// Callers hold e.mu; the transition side effects run after release.
func (e *Engine) evaluateLocked(i int, now time.Time) (ObjectiveStatus, *Transition) {
	o := &e.cfg.Objectives[i]
	budget := 1 - o.Target

	burnFS, _ := e.burnOver(e.history, FastShort, i, budget)
	burnFL, _ := e.burnOver(e.history, FastLong, i, budget)
	burnSS, _ := e.burnOver(e.history, SlowShort, i, budget)
	burnSL, slRatio := e.burnOver(e.history, SlowLong, i, budget)

	// Both windows of a rule must exceed its threshold, so the gating
	// value is the pair's minimum.
	gateFast := math.Min(burnFS, burnFL)
	gateSlow := math.Min(burnSS, burnSL)
	budgetLeft := 1 - slRatio/budget

	next := StateOK
	switch {
	case gateFast >= FastBurn:
		next = StatePage
	case gateSlow >= SlowBurn:
		next = StateTicket
	}

	st := ObjectiveStatus{
		Name:            o.Name,
		Description:     o.Description,
		Target:          o.Target,
		State:           next.String(),
		BurnFastShort:   burnFS,
		BurnFastLong:    burnFL,
		BurnSlowShort:   burnSS,
		BurnSlowLong:    burnSL,
		BadRatio:        slRatio,
		BudgetRemaining: budgetLeft,
	}

	cur := e.states[i]
	e.ins.burnFast[i].Set(gateFast)
	e.ins.burnSlow[i].Set(gateSlow)
	e.ins.budget[i].Set(budgetLeft)
	e.ins.state[i].Set(float64(next))
	var fired *Transition
	if next != cur {
		tr := Transition{
			Objective: o.Name,
			From:      cur, To: next,
			FromState: cur.String(), ToState: next.String(),
			At:              now,
			Reason:          transitionReason(cur, next, gateFast, gateSlow),
			BurnFast:        gateFast,
			BurnSlow:        gateSlow,
			BudgetRemaining: budgetLeft,
		}
		e.states[i] = next
		e.lastTr[i] = &tr
		e.ins.transitions.With(o.Name, next.String()).Inc()
		fired = &tr
	}
	if e.lastTr[i] != nil {
		trCopy := *e.lastTr[i]
		st.LastTransition = &trCopy
	}
	return st, fired
}

func transitionReason(from, to AlertState, gateFast, gateSlow float64) string {
	switch to {
	case StatePage:
		return fmt.Sprintf("fast burn %.1f ≥ %.1f over both %s and %s",
			gateFast, FastBurn, FastShort, FastLong)
	case StateTicket:
		return fmt.Sprintf("slow burn %.1f ≥ %.1f over both %s and %s (fast burn %.1f < %.1f)",
			gateSlow, SlowBurn, SlowShort, SlowLong, gateFast, FastBurn)
	default:
		return fmt.Sprintf("recovered from %s: fast burn %.1f < %.1f, slow burn %.1f < %.1f",
			from, gateFast, FastBurn, gateSlow, SlowBurn)
	}
}

// emitTransition mirrors one transition into the span recorder and the
// subscriber hook. Called after e.mu is released, so hooks may read
// Status; they must not call back into Tick.
func (e *Engine) emitTransition(tr Transition) {
	// Each transition is its own always-kept root trace, like a pool
	// swap: transitions are rare and are the first thing an operator
	// pulls up next to the kept verdict traces of the alert window.
	if e.cfg.Spans != nil {
		t := e.cfg.Spans.Start("slo:"+tr.Objective, span.StageSLOAlert)
		t.Flag(span.ReasonBreaker)
		t.SetVerdict("slo-" + tr.ToState)
		if root := t.Root(); root != nil && tr.To != StateOK {
			root.Err = tr.Reason
		}
		t.Finish()
	}
	if e.cfg.OnTransition != nil {
		e.cfg.OnTransition(tr)
	}
}

// ObjectiveStatus is one objective's row in the /slo document.
type ObjectiveStatus struct {
	Name        string  `json:"name"`
	Description string  `json:"description,omitempty"`
	Target      float64 `json:"target"`
	State       string  `json:"state"`
	// The four window burn rates. A rule fires when both its windows
	// exceed its threshold.
	BurnFastShort float64 `json:"burn_fast_short"`
	BurnFastLong  float64 `json:"burn_fast_long"`
	BurnSlowShort float64 `json:"burn_slow_short"`
	BurnSlowLong  float64 `json:"burn_slow_long"`
	// BadRatio is the error ratio over the slow long window;
	// BudgetRemaining the corresponding budget fraction left.
	BadRatio        float64     `json:"bad_ratio"`
	BudgetRemaining float64     `json:"budget_remaining"`
	LastTransition  *Transition `json:"last_transition,omitempty"`
}

// Status is the /slo document: every objective's current evaluation.
type Status struct {
	At       time.Time `json:"at"`
	Interval string    `json:"interval"`
	Windows  struct {
		FastShort string `json:"fast_short"`
		FastLong  string `json:"fast_long"`
		SlowShort string `json:"slow_short"`
		SlowLong  string `json:"slow_long"`
	} `json:"windows"`
	FastBurn   float64           `json:"fast_burn_threshold"`
	SlowBurn   float64           `json:"slow_burn_threshold"`
	Objectives []ObjectiveStatus `json:"objectives"`
}

// Status snapshots the engine's most recent evaluation (zero-valued
// before the first Tick).
func (e *Engine) Status() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Status{At: e.at, Interval: Interval.String(),
		FastBurn: FastBurn, SlowBurn: SlowBurn}
	st.Windows.FastShort = FastShort.String()
	st.Windows.FastLong = FastLong.String()
	st.Windows.SlowShort = SlowShort.String()
	st.Windows.SlowLong = SlowLong.String()
	st.Objectives = append(st.Objectives, e.last...)
	sort.Slice(st.Objectives, func(i, j int) bool { return st.Objectives[i].Name < st.Objectives[j].Name })
	return st
}

// Objectives returns the configured objective names, in declaration
// order.
func (e *Engine) Objectives() []string {
	names := make([]string, len(e.cfg.Objectives))
	for i := range e.cfg.Objectives {
		names[i] = e.cfg.Objectives[i].Name
	}
	return names
}

// State returns one objective's current alert state (StateOK for
// unknown names).
func (e *Engine) State(objective string) AlertState {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.cfg.Objectives {
		if e.cfg.Objectives[i].Name == objective {
			return e.states[i]
		}
	}
	return StateOK
}
