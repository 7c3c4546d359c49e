// Quickstart: build a small corpus, train one hardware malware detector,
// and classify a held-out program — the five-minute tour of the public
// pipeline (corpus → trace → features → detector → decision).
package main

import (
	"fmt"
	"log"

	"rhmd/internal/dataset"
	"rhmd/internal/features"
	"rhmd/internal/hmd"
	"rhmd/internal/prog"
)

func main() {
	// 1. Synthesize a program corpus: six benign and six malware
	//    families, a few instances each (the offline substitute for the
	//    paper's 3,554 traced Windows programs).
	cfg := dataset.Config{
		BenignPerFamily:  12,
		MalwarePerFamily: 14,
		TraceLen:         80_000,
		Seed:             7,
	}
	corpus, err := dataset.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	groups, err := corpus.Split([]float64{0.7, 0.3}, 8)
	if err != nil {
		log.Fatal(err)
	}
	train, test := groups[0], groups[1]
	fmt.Printf("corpus: %d programs (%d train, %d held out)\n",
		len(corpus.Programs), len(train), len(test))

	// 2. Trace the training programs and extract per-window features at
	//    a 2,000-instruction collection period.
	const period = 2000
	trainWindows, err := dataset.ExtractWindows(train, []int{period}, cfg.TraceLen)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Train the paper's hardware-friendly detector: logistic
	//    regression over the instruction-mix feature.
	spec := hmd.Spec{Kind: features.Instructions, Period: period, Algo: "lr"}
	detector, err := hmd.Train(spec, trainWindows[period].Get(features.Instructions), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %s (threshold %.3f, %d selected opcodes)\n",
		spec, detector.Threshold, len(detector.FeatureIdx))

	// 4. Evaluate on held-out windows (the paper's Figure 2 metrics).
	testWindows, err := dataset.ExtractWindows(test, []int{period}, cfg.TraceLen)
	if err != nil {
		log.Fatal(err)
	}
	ev, err := detector.Evaluate(testWindows[period].Get(features.Instructions))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("held-out AUC %.3f, best accuracy %.3f\n", ev.AUC, ev.Accuracy)

	// 5. Deploy: classify whole programs by majority vote over their
	//    windows.
	caught, missed, falseAlarms := 0, 0, 0
	for _, p := range test {
		detected, err := detector.DetectTraced(p, cfg.TraceLen)
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case detected && p.Label == prog.Malware:
			caught++
		case !detected && p.Label == prog.Malware:
			missed++
		case detected && p.Label == prog.Benign:
			falseAlarms++
		}
	}
	fmt.Printf("program-level: caught %d malware, missed %d, %d false alarms\n",
		caught, missed, falseAlarms)
}
