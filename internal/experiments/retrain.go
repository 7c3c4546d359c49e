package experiments

import (
	"fmt"

	"rhmd/internal/game"
	"rhmd/internal/prog"
)

// gameConfig assembles the evade/retrain configuration shared by the
// Figure 11 and Figure 13 drivers.
func (e *Env) gameConfig(algo string) game.Config {
	return game.Config{
		Algo:        algo,
		Period:      e.Cfg.Period,
		TraceLen:    e.Cfg.TraceLen,
		InjectCount: 2,
		Seed:        e.Cfg.Seed + 13,
	}
}

// Fig11Retraining reproduces Figures 11a/11b: retraining LR and NN
// victims with increasing fractions of evasive malware in the training
// set. The retrain split folds the attacker-training programs into the
// defender's training data (the defender "obtains samples" of the
// evasive malware) and evaluates on the attacker test split.
func Fig11Retraining(e *Env) ([]*Table, error) {
	percents := []float64{0, 0.05, 0.07, 0.10, 0.14, 0.17, 0.20, 0.22, 0.25}
	train := append(append([]*prog.Program{}, e.VictimTrain...), e.AtkTrain...)
	var out []*Table
	for _, algo := range []string{"lr", "nn"} {
		pts, err := game.Retrain(train, e.AtkTest, percents, e.gameConfig(algo))
		if err != nil {
			return nil, err
		}
		sub, note := "a", "Paper: LR retraining raises evasive sensitivity only by paying elsewhere "+
			"(the linear boundary cannot hold malware, evasive malware and benign apart at once). "+
			"In this corpus the cost surfaces mostly on benign specificity; the paper observed it "+
			"on unmodified-malware sensitivity — see EXPERIMENTS.md."
		if algo == "nn" {
			sub, note = "b", "Paper: the non-linear NN learns the evasive class from a small fraction of "+
				"samples without sacrificing the other metrics."
		}
		t := &Table{
			ID:      "fig11" + sub,
			Title:   fmt.Sprintf("Effectiveness of retraining (%s detector)", algo),
			Note:    note,
			Columns: []string{"% evasive in training", "sens(evasive)", "sens(unmodified)", "spec(regular)"},
		}
		for _, p := range pts {
			t.AddRow(fmt.Sprintf("%.0f%%", p.Percent*100), Pct(p.SensEvasive), Pct(p.SensUnmodified), Pct(p.Specificity))
		}
		out = append(out, t)
	}
	return out, nil
}

// Fig13Generations reproduces Figure 13: the multi-generation
// evade/retrain arms race against the NN detector. Each generation the
// attacker stacks a new least-weight payload onto the previous evasive
// malware and the defender retrains on everything seen so far.
func Fig13Generations(e *Env) ([]*Table, error) {
	train := append(append([]*prog.Program{}, e.VictimTrain...), e.AtkTrain...)
	results, err := game.Generations(train, e.AtkTest, 7, e.gameConfig("nn"))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig13",
		Title: "NN detector across evade/retrain generations",
		Note: "Paper: each generation's fresh evasive malware evades the current detector " +
			"(low sens(current)); after retraining the next generation catches it " +
			"(high sens(previous)); the stacked payload overhead grows each round until " +
			"the game breaks down after several generations.",
		Columns: []string{"generation", "spec(regular)", "sens(unmodified)", "sens(current evasive)",
			"sens(previous evasive)", "evasive overhead", "train separable"},
	}
	for _, g := range results {
		t.AddRow(g.Gen, Pct(g.Specificity), Pct(g.SensUnmodified), Pct(g.SensCurrent),
			Pct(g.SensPrevious), Pct(g.Overhead), g.TrainSeparable)
	}
	return []*Table{t}, nil
}
