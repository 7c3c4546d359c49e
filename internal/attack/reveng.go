// Package attack implements the adversary of the paper: black-box
// reverse-engineering of deployed HMDs (§4) and the evasion framework
// that injects semantically-neutral instructions into malware guided by
// the reverse-engineered model (§5).
package attack

import (
	"fmt"

	"rhmd/internal/dataset"
	"rhmd/internal/hmd"
	"rhmd/internal/ml"
	"rhmd/internal/prog"
)

// Victim is the attacker's black-box view of a deployed detector: run a
// program on "a machine with a similar detector as the victim machine"
// (§2) and observe the per-window decisions. Both hmd.Detector and the
// randomized core.RHMD satisfy it.
type Victim interface {
	DecideTrace(p *prog.Program, traceLen int) ([]hmd.WindowDecision, error)
}

// Labels caches the victim's decisions for a fixed program list, so the
// attacker's many training hypotheses (period sweeps, feature sweeps)
// reuse one round of queries.
type Labels struct {
	Programs []*prog.Program
	TraceLen int
	// PerProgram[i] are the victim's window decisions for Programs[i].
	PerProgram [][]hmd.WindowDecision
}

// QueryVictim runs every program against the victim and records its
// decisions.
func QueryVictim(v Victim, programs []*prog.Program, traceLen int) (*Labels, error) {
	if len(programs) == 0 {
		return nil, fmt.Errorf("attack: no programs to query with")
	}
	out := &Labels{
		Programs:   programs,
		TraceLen:   traceLen,
		PerProgram: make([][]hmd.WindowDecision, len(programs)),
	}
	for i, p := range programs {
		dec, err := v.DecideTrace(p, traceLen)
		if err != nil {
			return nil, fmt.Errorf("attack: querying victim with %s: %w", p.Name, err)
		}
		out.PerProgram[i] = dec
	}
	return out, nil
}

// FlagRate returns the overall fraction of queried windows the victim
// flagged; useful for sanity checks and diagnostics.
func (l *Labels) FlagRate() float64 {
	total, flagged := 0, 0
	for _, dec := range l.PerProgram {
		for _, d := range dec {
			total++
			flagged += d.Decision
		}
	}
	if total == 0 {
		return 0
	}
	return float64(flagged) / float64(total)
}

// labelWindows assigns a victim label to each of the attacker's windows:
// the victim decision of the window containing the attacker window's
// midpoint. When the attacker guesses the victim's collection period
// correctly, windows align exactly and the labels are noise-free; at a
// mismatched period labels blur across victim windows — the mechanism
// behind the paper's Figure 3a period identification.
func labelWindows(bounds [][2]int, victim []hmd.WindowDecision) []int {
	out := make([]int, len(bounds))
	for i, b := range bounds {
		mid := (b[0] + b[1]) / 2
		out[i] = hmd.DecisionAt(victim, mid)
	}
	return out
}

// TrainSurrogate builds the reverse-engineered detector: it extracts
// features at the attacker's hypothesized spec, labels every window with
// the victim's observed decisions, and trains the surrogate on those
// labels (Figure 1a of the paper). The surrogate's quality measures how
// well the hypothesis (feature kind, period, algorithm) matches the
// victim.
func TrainSurrogate(labels *Labels, spec hmd.Spec, seed uint64) (*hmd.Detector, error) {
	mws, err := dataset.ExtractWindows(labels.Programs, []int{spec.Period}, labels.TraceLen)
	if err != nil {
		return nil, err
	}
	return TrainSurrogateFrom(labels, mws[spec.Period], spec, seed)
}

// TrainSurrogateFrom is TrainSurrogate over pre-extracted attacker
// windows (mw must cover labels.Programs at spec.Period); callers running
// hypothesis sweeps use it to extract each period once.
func TrainSurrogateFrom(labels *Labels, mw *dataset.MultiWindowData, spec hmd.Spec, seed uint64) (*hmd.Detector, error) {
	if mw.Period != spec.Period {
		return nil, fmt.Errorf("attack: window data at period %d for spec %s", mw.Period, spec)
	}
	wd := &dataset.WindowData{Kind: spec.Kind, Period: spec.Period}
	src := mw.Get(spec.Kind)
	// Re-label every window with the victim's decision instead of ground
	// truth: the attacker "desires to mimic the classification of the
	// victim detector" (§4).
	byProg := src.ByProgram()
	for pi := range labels.Programs {
		rows := byProg[pi]
		if len(rows) == 0 {
			continue
		}
		bounds := make([][2]int, len(rows))
		for k := range rows {
			// Rows of one program are contiguous and in window order.
			bounds[k] = [2]int{k * spec.Period, (k + 1) * spec.Period}
		}
		lab := labelWindows(bounds, labels.PerProgram[pi])
		for k, row := range rows {
			wd.X = append(wd.X, src.X[row])
			wd.Y = append(wd.Y, lab[k])
			wd.ProgIdx = append(wd.ProgIdx, pi)
		}
	}
	if wd.Len() == 0 {
		return nil, fmt.Errorf("attack: no labelled windows produced")
	}
	return hmd.Train(spec, wd, seed)
}

// Agreement measures reverse-engineering success on held-out programs:
// the fraction of the surrogate's window decisions that equal the
// victim's decision at the same trace position (Figure 1b: "the
// percentage of equivalent decisions made by the two detectors").
// surrogate is any black-box decider (hmd.Detector, CombinedSurrogate, or
// even another RHMD).
func Agreement(v Victim, surrogate Victim, programs []*prog.Program, traceLen int) (float64, error) {
	if len(programs) == 0 {
		return 0, fmt.Errorf("attack: no test programs")
	}
	vLabels, err := QueryVictim(v, programs, traceLen)
	if err != nil {
		return 0, err
	}
	return AgreementWithLabels(vLabels, surrogate)
}

// AgreementWithLabels is Agreement against pre-collected victim
// decisions; callers evaluating many surrogates against one victim use
// it to query the victim once.
func AgreementWithLabels(vLabels *Labels, surrogate Victim) (float64, error) {
	var mine, theirs []int
	for i, p := range vLabels.Programs {
		sdec, err := surrogate.DecideTrace(p, vLabels.TraceLen)
		if err != nil {
			return 0, err
		}
		for _, sd := range sdec {
			mid := (sd.Start + sd.End) / 2
			mine = append(mine, sd.Decision)
			theirs = append(theirs, hmd.DecisionAt(vLabels.PerProgram[i], mid))
		}
	}
	return ml.Agreement(mine, theirs), nil
}

// ReverseEngineer is the one-shot convenience wrapper: query the victim
// with the attacker training set, train a surrogate under the given
// hypothesis, and score its agreement on the attacker test set.
func ReverseEngineer(v Victim, trainProgs, testProgs []*prog.Program, spec hmd.Spec, traceLen int, seed uint64) (*hmd.Detector, float64, error) {
	labels, err := QueryVictim(v, trainProgs, traceLen)
	if err != nil {
		return nil, 0, err
	}
	surrogate, err := TrainSurrogate(labels, spec, seed)
	if err != nil {
		return nil, 0, err
	}
	agree, err := Agreement(v, surrogate, testProgs, traceLen)
	if err != nil {
		return nil, 0, err
	}
	return surrogate, agree, nil
}
