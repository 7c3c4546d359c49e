// Package game implements the paper's evade/retrain experiments (§6):
// retraining a detector with a fraction of evasive malware in its
// training set (Figure 11), and the multi-generation arms race in which
// each detector generation is evaded again and retrained on all evasive
// malware seen so far (Figure 13).
package game

import (
	"fmt"

	"rhmd/internal/attack"
	"rhmd/internal/dataset"
	"rhmd/internal/features"
	"rhmd/internal/hmd"
	"rhmd/internal/ml"
	"rhmd/internal/prog"
	"rhmd/internal/rng"
	"rhmd/internal/trace"
)

// The detector feature and the evasion the paper's retraining
// experiments use (§6): the victim reads the instruction mix, and
// evasive malware injects copies of the instruction with the victim's
// most negative weight before every control-flow terminator.
const (
	kind     = features.Instructions
	strategy = attack.LeastWeight
	level    = prog.BlockLevel
)

// Config parametrizes the retraining experiments.
type Config struct {
	// Algo is the detector under study ("lr" for Figure 11a, "nn" for
	// 11b and 13).
	Algo string
	// Period is the detector's collection period.
	Period   int
	TraceLen int
	// InjectCount is how many instructions evasive malware injects at
	// each site.
	InjectCount int
	// Seed drives all stochastic choices.
	Seed uint64
}

func (c Config) validate() error {
	if c.Algo == "" || c.Period <= 0 || c.TraceLen < c.Period || c.InjectCount <= 0 {
		return fmt.Errorf("game: invalid config %+v", c)
	}
	return nil
}

// split separates a program list into benign and malware.
func split(programs []*prog.Program) (benign, malware []*prog.Program) {
	for _, p := range programs {
		if p.Label == prog.Malware {
			malware = append(malware, p)
		} else {
			benign = append(benign, p)
		}
	}
	return benign, malware
}

// windowsOf extracts the studied kind's window dataset for a program
// list.
func windowsOf(programs []*prog.Program, period, traceLen int) (*dataset.WindowData, error) {
	mws, err := dataset.ExtractWindows(programs, []int{period}, traceLen)
	if err != nil {
		return nil, err
	}
	return mws[period].Get(kind), nil
}

// concat merges window datasets (labels and rows only; ProgIdx loses
// meaning across lists and is dropped).
func concat(period int, parts ...*dataset.WindowData) *dataset.WindowData {
	out := &dataset.WindowData{Kind: kind, Period: period}
	for _, p := range parts {
		out.X = append(out.X, p.X...)
		out.Y = append(out.Y, p.Y...)
	}
	return out
}

// sensitivity is the flagged fraction of a malware-only window set.
func sensitivity(d *hmd.Detector, wd *dataset.WindowData) float64 {
	if wd.Len() == 0 {
		return 0
	}
	flagged := 0
	for _, x := range wd.X {
		flagged += d.DecideWindow(x)
	}
	return float64(flagged) / float64(wd.Len())
}

// specificity is the pass fraction of a benign-only window set.
func specificity(d *hmd.Detector, wd *dataset.WindowData) float64 {
	if wd.Len() == 0 {
		return 0
	}
	passed := 0
	for _, x := range wd.X {
		passed += 1 - d.DecideWindow(x)
	}
	return float64(passed) / float64(wd.Len())
}

// injectAll applies a plan to every program.
func injectAll(programs []*prog.Program, plan attack.Plan) ([]*prog.Program, error) {
	out := make([]*prog.Program, len(programs))
	for i, p := range programs {
		mod, err := plan.Apply(p)
		if err != nil {
			return nil, err
		}
		out[i] = mod
	}
	return out, nil
}

// RetrainPoint is one x-axis point of Figure 11.
type RetrainPoint struct {
	Percent        float64 // evasive fraction of the malware training windows
	SensEvasive    float64 // sensitivity on evasive malware (test)
	SensUnmodified float64 // sensitivity on unmodified malware (test)
	Specificity    float64 // specificity on regular programs (test)
}

// Retrain reproduces Figure 11: train a victim, build evasive malware
// against it, then retrain with increasing percentages of evasive
// malware in the training set and measure what the retrained detector
// still catches.
func Retrain(train, test []*prog.Program, percents []float64, cfg Config) ([]RetrainPoint, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	spec := hmd.Spec{Kind: kind, Period: cfg.Period, Algo: cfg.Algo}

	trainBen, trainMal := split(train)
	testBen, testMal := split(test)
	if len(trainMal) == 0 || len(testMal) == 0 || len(trainBen) == 0 || len(testBen) == 0 {
		return nil, fmt.Errorf("game: need both classes in train and test")
	}

	// Victim trained on the clean training set.
	cleanTrain, err := windowsOf(train, cfg.Period, cfg.TraceLen)
	if err != nil {
		return nil, err
	}
	victim, err := hmd.Train(spec, cleanTrain, cfg.Seed)
	if err != nil {
		return nil, err
	}

	// Evasive variants (the same transformation for train and test
	// malware, as the attacker ships one evasion strategy).
	r := rng.NewKeyed(cfg.Seed, "game-retrain")
	plan, err := attack.BuildPlan(victim, strategy, cfg.InjectCount, level, r)
	if err != nil {
		return nil, err
	}
	evTrainProgs, err := injectAll(trainMal, plan)
	if err != nil {
		return nil, err
	}
	evTestProgs, err := injectAll(testMal, plan)
	if err != nil {
		return nil, err
	}

	// Pre-extract all window sets once.
	benTrainW, err := windowsOf(trainBen, cfg.Period, cfg.TraceLen)
	if err != nil {
		return nil, err
	}
	malTrainW, err := windowsOf(trainMal, cfg.Period, cfg.TraceLen)
	if err != nil {
		return nil, err
	}
	evTrainW, err := windowsOf(evTrainProgs, cfg.Period, cfg.TraceLen)
	if err != nil {
		return nil, err
	}
	benTestW, err := windowsOf(testBen, cfg.Period, cfg.TraceLen)
	if err != nil {
		return nil, err
	}
	malTestW, err := windowsOf(testMal, cfg.Period, cfg.TraceLen)
	if err != nil {
		return nil, err
	}
	evTestW, err := windowsOf(evTestProgs, cfg.Period, cfg.TraceLen)
	if err != nil {
		return nil, err
	}

	out := make([]RetrainPoint, 0, len(percents))
	for _, pct := range percents {
		if pct < 0 || pct > 1 {
			return nil, fmt.Errorf("game: percent %v out of [0,1]", pct)
		}
		// Mix: keep all unmodified malware windows, add evasive windows
		// so they make up pct of the malware part.
		nEv := int(pct / (1 - pct) * float64(malTrainW.Len()))
		if pct >= 1 {
			nEv = evTrainW.Len()
		}
		if nEv > evTrainW.Len() {
			nEv = evTrainW.Len()
		}
		evPart := &dataset.WindowData{Kind: kind, Period: cfg.Period}
		perm := rng.NewKeyed(cfg.Seed, "game-mix").Perm(evTrainW.Len())
		for _, i := range perm[:nEv] {
			evPart.X = append(evPart.X, evTrainW.X[i])
			evPart.Y = append(evPart.Y, 1)
		}
		mixed := concat(cfg.Period, benTrainW, malTrainW, evPart)
		det, err := hmd.Train(spec, mixed, cfg.Seed+uint64(pct*1000))
		if err != nil {
			return nil, fmt.Errorf("game: retraining at %.0f%%: %w", pct*100, err)
		}
		out = append(out, RetrainPoint{
			Percent:        pct,
			SensEvasive:    sensitivity(det, evTestW),
			SensUnmodified: sensitivity(det, malTestW),
			Specificity:    specificity(det, benTestW),
		})
	}
	return out, nil
}

// GenerationResult is one bar group of Figure 13.
type GenerationResult struct {
	Gen            int
	Specificity    float64 // regular programs (test)
	SensUnmodified float64 // unmodified malware (test)
	SensCurrent    float64 // evasive malware built against THIS generation
	SensPrevious   float64 // evasive malware of the previous generation
	// TrainSeparable records whether retraining could still separate the
	// accumulated classes (the paper's breakdown after ~7 generations).
	TrainSeparable bool
	// Overhead is the mean dynamic overhead of the current generation's
	// evasive malware, which grows as payloads stack.
	Overhead float64
}

// Generations plays the Figure 13 arms race for nGens rounds: at each
// round the attacker stacks a new payload (derived from the current
// detector's weights) onto the previous generation's evasive malware,
// and the defender retrains on everything seen so far.
func Generations(train, test []*prog.Program, nGens int, cfg Config) ([]GenerationResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if nGens < 1 {
		return nil, fmt.Errorf("game: nGens must be ≥1")
	}
	spec := hmd.Spec{Kind: kind, Period: cfg.Period, Algo: cfg.Algo}

	trainBen, trainMal := split(train)
	testBen, testMal := split(test)
	if len(trainMal) == 0 || len(testMal) == 0 {
		return nil, fmt.Errorf("game: need malware in both train and test")
	}

	benTrainW, err := windowsOf(trainBen, cfg.Period, cfg.TraceLen)
	if err != nil {
		return nil, err
	}
	benTestW, err := windowsOf(testBen, cfg.Period, cfg.TraceLen)
	if err != nil {
		return nil, err
	}
	malTestW, err := windowsOf(testMal, cfg.Period, cfg.TraceLen)
	if err != nil {
		return nil, err
	}

	// Accumulating training malware window sets, one per generation of
	// evasive malware (generation 0 = unmodified).
	malTrainW, err := windowsOf(trainMal, cfg.Period, cfg.TraceLen)
	if err != nil {
		return nil, err
	}
	trainingMalParts := []*dataset.WindowData{malTrainW}

	curTrainProgs := trainMal
	curTestProgs := testMal
	var prevEvTestW *dataset.WindowData

	r := rng.NewKeyed(cfg.Seed, "game-generations")
	var results []GenerationResult

	for gen := 1; gen <= nGens; gen++ {
		res := GenerationResult{Gen: gen, TrainSeparable: true}

		// Defender: (re)train on benign + all malware generations so far.
		trainingSet := concat(cfg.Period, append([]*dataset.WindowData{benTrainW}, trainingMalParts...)...)
		det, err := hmd.Train(spec, trainingSet, cfg.Seed+uint64(gen))
		if err != nil {
			return results, fmt.Errorf("game: generation %d training: %w", gen, err)
		}
		// Breakdown check: can the detector still separate its own
		// training data? (Paper: "after 7 generations, the detector can
		// no longer be trained successfully".)
		scores := make([]float64, trainingSet.Len())
		for i, x := range trainingSet.X {
			scores[i] = det.ScoreWindow(x)
		}
		if _, acc := ml.BestThreshold(scores, trainingSet.Y); acc < 0.8 {
			res.TrainSeparable = false
		}

		res.Specificity = specificity(det, benTestW)
		res.SensUnmodified = sensitivity(det, malTestW)
		if prevEvTestW != nil {
			res.SensPrevious = sensitivity(det, prevEvTestW)
		}

		// Attacker: stack a fresh payload against the current detector
		// onto the previous generation's evasive malware.
		plan, err := attack.BuildPlan(det, strategy, cfg.InjectCount, level, r)
		if err != nil {
			// No negative direction left: the attacker cannot evade this
			// generation by injection. Report and stop.
			res.SensCurrent = res.SensPrevious
			results = append(results, res)
			return results, nil
		}
		curTrainProgs, err = injectAll(curTrainProgs, plan)
		if err != nil {
			return results, err
		}
		curTestProgs, err = injectAll(curTestProgs, plan)
		if err != nil {
			return results, err
		}
		evTestW, err := windowsOf(curTestProgs, cfg.Period, cfg.TraceLen)
		if err != nil {
			return results, err
		}
		res.SensCurrent = sensitivity(det, evTestW)

		// Overhead of this generation's malware (stacked payloads).
		var ov float64
		for _, p := range curTestProgs {
			st, err := traceOverhead(p, cfg.TraceLen)
			if err != nil {
				return results, err
			}
			ov += st
		}
		res.Overhead = ov / float64(len(curTestProgs))

		// The defender will see this generation's evasive malware next
		// round.
		evTrainW, err := windowsOf(curTrainProgs, cfg.Period, cfg.TraceLen)
		if err != nil {
			return results, err
		}
		trainingMalParts = append(trainingMalParts, evTrainW)
		prevEvTestW = evTestW

		results = append(results, res)
	}
	return results, nil
}

// traceOverhead measures a program's dynamic injection overhead.
func traceOverhead(p *prog.Program, traceLen int) (float64, error) {
	st, err := trace.Exec(p, trace.Config{MaxInstructions: traceLen, BudgetOriginalOnly: true}, nil)
	if err != nil {
		return 0, err
	}
	return st.DynamicOverhead(), nil
}
