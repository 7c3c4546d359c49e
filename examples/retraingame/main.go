// Retrain game: the defender's losing options from §6 of the paper.
// Retrain a linear detector on evasive malware and watch the trade-off
// appear; retrain the NN and watch it adapt; then play several rounds of
// the evade/retrain arms race and watch the overhead of each malware
// generation climb as the payloads stack.
package main

import (
	"fmt"
	"log"

	"rhmd/internal/dataset"
	"rhmd/internal/game"
)

func main() {
	cfg := dataset.Config{
		BenignPerFamily:  10,
		MalwarePerFamily: 14,
		TraceLen:         60_000,
		Seed:             31,
	}
	corpus, err := dataset.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	groups, err := corpus.Split([]float64{0.7, 0.3}, 32)
	if err != nil {
		log.Fatal(err)
	}
	train, test := groups[0], groups[1]

	gcfg := game.Config{
		Period:      2000,
		TraceLen:    cfg.TraceLen,
		InjectCount: 2,
		Seed:        5,
	}

	percents := []float64{0, 0.10, 0.25}
	for _, algo := range []string{"lr", "nn"} {
		gcfg.Algo = algo
		pts, err := game.Retrain(train, test, percents, gcfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("retraining the %s detector:\n", algo)
		fmt.Println("  evasive-frac  sens(evasive)  sens(unmodified)  specificity")
		for _, p := range pts {
			fmt.Printf("  %7.0f%%  %12.1f%%  %15.1f%%  %10.1f%%\n",
				p.Percent*100, p.SensEvasive*100, p.SensUnmodified*100, p.Specificity*100)
		}
		fmt.Println()
	}

	gcfg.Algo = "nn"
	gcfg.InjectCount = 3
	fmt.Println("evade/retrain arms race (NN):")
	results, err := game.Generations(train, test, 4, gcfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range results {
		fmt.Printf("  gen %d: evades to %.0f%% detection; previous gen now caught at %.0f%%; "+
			"malware overhead %.0f%%\n",
			g.Gen, g.SensCurrent*100, g.SensPrevious*100, g.Overhead*100)
	}
	fmt.Println("\nthe attacker always gets the last move against a deterministic detector —")
	fmt.Println("see examples/resilient for the randomized answer.")
}
