// Arms race: the attacker's side of the paper. Reverse-engineer a
// deployed detector through black-box queries (§4), derive an injection
// payload from the stolen model, rewrite the malware (§5), and watch
// detection collapse while the modification costs ~10% overhead — then
// see the same attack bounce off an RHMD.
package main

import (
	"fmt"
	"log"

	"rhmd/internal/attack"
	"rhmd/internal/core"
	"rhmd/internal/dataset"
	"rhmd/internal/features"
	"rhmd/internal/hmd"
	"rhmd/internal/prog"
	"rhmd/internal/rng"
)

func main() {
	cfg := dataset.Config{
		BenignPerFamily:  16,
		MalwarePerFamily: 28,
		TraceLen:         100_000,
		Seed:             42,
	}
	corpus, err := dataset.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// The paper's split: victim training / attacker training / attacker
	// testing.
	groups, err := corpus.Split([]float64{0.6, 0.2, 0.2}, 43)
	if err != nil {
		log.Fatal(err)
	}
	victimTrain, atkTrain, atkTest := groups[0], groups[1], groups[2]

	const period = 2000
	data, err := dataset.ExtractWindows(victimTrain, []int{period}, cfg.TraceLen)
	if err != nil {
		log.Fatal(err)
	}
	vspec := hmd.Spec{Kind: features.Instructions, Period: period, Algo: "lr"}
	victim, err := hmd.Train(vspec, data[period].Get(features.Instructions), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("victim deployed: %s\n", vspec)

	// --- Step 1: reverse-engineer through black-box queries. ---
	surrogate, agreement, err := attack.ReverseEngineer(
		victim, atkTrain, atkTest,
		hmd.Spec{Kind: features.Instructions, Period: period, Algo: "lr", TopK: 24},
		cfg.TraceLen, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reverse-engineered: %.1f%% decision agreement on held-out programs\n", agreement*100)

	// --- Step 2: craft evasive malware from the stolen weights. ---
	r := rng.New(3)
	plan, err := attack.BuildPlan(surrogate, attack.LeastWeight, 2, prog.BlockLevel, r)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("injection plan: %s, payload %v\n", plan, plan.Ops)

	malware := attack.MalwareOf(atkTest)
	base, err := attack.EvaluateEvasion(victim, malware, attack.Plan{}, cfg.TraceLen)
	if err != nil {
		log.Fatal(err)
	}
	res, err := attack.EvaluateEvasion(victim, malware, plan, cfg.TraceLen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single detector: %.0f%% of malware detected before, %.0f%% after injection\n",
		base.BaseDetectionRate()*100, res.DetectionRate()*100)
	fmt.Printf("evasion cost: %.1f%% static, %.1f%% dynamic overhead\n",
		res.StaticOverhead*100, res.DynamicOverhead*100)

	// --- Step 3: the same attack against a resilient RHMD. ---
	pool, err := core.TrainPool(core.PoolSpecs(features.AllKinds(), []int{period}, "lr"), data, 4)
	if err != nil {
		log.Fatal(err)
	}
	resilient, err := core.New(pool, 5)
	if err != nil {
		log.Fatal(err)
	}
	rres, err := attack.EvaluateEvasion(resilient, malware, plan, cfg.TraceLen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %.0f%% of caught malware still detected after the same injection\n",
		resilient, rres.DetectionRate()*100)
}
