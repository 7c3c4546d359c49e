// Resilient deployment: build the paper's six-detector RHMD (three
// features × two collection periods), quantify its diversity, evaluate
// the Theorem-1 PAC bounds on how well any attacker can reverse-engineer
// it, and estimate the hardware cost of shipping it on an AO486-class
// core (§7–§8).
package main

import (
	"fmt"
	"log"

	"rhmd/internal/core"
	"rhmd/internal/dataset"
	"rhmd/internal/features"
	"rhmd/internal/hwcost"
	"rhmd/internal/prog"
)

func main() {
	cfg := dataset.Config{
		BenignPerFamily:  14,
		MalwarePerFamily: 20,
		TraceLen:         80_000,
		Seed:             21,
	}
	corpus, err := dataset.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	groups, err := corpus.Split([]float64{0.7, 0.3}, 22)
	if err != nil {
		log.Fatal(err)
	}
	train, test := groups[0], groups[1]

	// Train the pool: {instructions, memory, architectural} × {2000, 1000}.
	periods := []int{2000, 1000}
	data, err := dataset.ExtractWindows(train, periods, cfg.TraceLen)
	if err != nil {
		log.Fatal(err)
	}
	specs := core.PoolSpecs(features.AllKinds(), periods, "lr")
	pool, err := core.TrainPool(specs, data, 1)
	if err != nil {
		log.Fatal(err)
	}
	rhmd, err := core.New(pool, 0xC0FFEE) // the hardware's secret switching key
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed %s\n\n", rhmd)

	// Detection quality at the program level.
	correct := 0
	for _, p := range test {
		got, err := rhmd.DetectTraced(p, cfg.TraceLen)
		if err != nil {
			log.Fatal(err)
		}
		if got == (p.Label == prog.Malware) {
			correct++
		}
	}
	fmt.Printf("program-level accuracy on held-out programs: %.1f%%\n",
		100*float64(correct)/float64(len(test)))

	// Diversity analysis and the PAC bounds of Theorem 1.
	rep, err := core.Diversity(pool, rhmd.Probs, test, cfg.TraceLen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nper-detector error and switching weight:")
	for i, d := range pool {
		fmt.Printf("  %-24s e=%.3f p=%.3f\n", d.Spec, rep.Errors[i], rep.Probs[i])
	}
	fmt.Printf("\nTheorem 1: any surrogate from the pool's hypothesis classes suffers error ≥ %.1f%%\n",
		rep.LowerBound*100)
	fmt.Printf("defender's own baseline error: %.1f%% (upper bound %.1f%%)\n",
		rep.BaselineError*100, rep.UpperBound*100)

	// Hardware budget (the paper's §7 synthesis result, as a model).
	est, err := hwcost.ForPool(specs, hwcost.AO486())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhardware estimate on AO486-class core: %s\n", est)
	for _, name := range est.ComponentNames() {
		fmt.Printf("  %-22s %5d LEs\n", name, est.Breakdown[name])
	}
}
