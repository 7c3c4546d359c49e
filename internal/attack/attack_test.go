package attack

import (
	"testing"

	"rhmd/internal/dataset"
	"rhmd/internal/features"
	"rhmd/internal/hmd"
	"rhmd/internal/isa"
	"rhmd/internal/ml"
	"rhmd/internal/prog"
	"rhmd/internal/rng"
)

// shared test fixture: a small corpus, a 60/20/20 split, and a trained
// LR/instructions victim.
type fixture struct {
	victimTrain, atkTrain, atkTest []*prog.Program
	traceLen                       int
	victim                         *hmd.Detector
	victimNN                       *hmd.Detector
}

var fx *fixture

func getFixture(t testing.TB) *fixture {
	t.Helper()
	if fx != nil {
		return fx
	}
	cfg := dataset.Config{BenignPerFamily: 16, MalwarePerFamily: 24, TraceLen: 100_000, Seed: 77}
	c, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := c.Split([]float64{0.6, 0.2, 0.2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	mws, err := dataset.ExtractWindows(groups[0], []int{2000}, cfg.TraceLen)
	if err != nil {
		t.Fatal(err)
	}
	mw := mws[2000]
	victim, err := hmd.Train(hmd.Spec{Kind: features.Instructions, Period: 2000, Algo: "lr"}, mw.Get(features.Instructions), 1)
	if err != nil {
		t.Fatal(err)
	}
	victimNN, err := hmd.Train(hmd.Spec{Kind: features.Instructions, Period: 2000, Algo: "nn"}, mw.Get(features.Instructions), 1)
	if err != nil {
		t.Fatal(err)
	}
	fx = &fixture{
		victimTrain: groups[0],
		atkTrain:    groups[1],
		atkTest:     groups[2],
		traceLen:    cfg.TraceLen,
		victim:      victim,
		victimNN:    victimNN,
	}
	return fx
}

func TestReverseEngineerMatchingSpec(t *testing.T) {
	f := getFixture(t)
	spec := hmd.Spec{Kind: features.Instructions, Period: 2000, Algo: "lr"}
	_, agree, err := ReverseEngineer(f.victim, f.atkTrain, f.atkTest, spec, f.traceLen, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Matching feature+period: the paper reports near-zero error at its
	// ~700-program attacker corpus; at this test's reduced scale we
	// require clearly-better-than-chance mimicry (the full experiment
	// scale is exercised by cmd/rhmd-bench fig4).
	if agree < 0.78 {
		t.Fatalf("matched-spec agreement = %.3f, want ≥0.78", agree)
	}
}

func TestReverseEngineerPeriodMismatchIsWorse(t *testing.T) {
	f := getFixture(t)
	labels, err := QueryVictim(f.victim, f.atkTrain, f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	agreeAt := func(period int) float64 {
		spec := hmd.Spec{Kind: features.Instructions, Period: period, Algo: "lr"}
		s, err := TrainSurrogate(labels, spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Agreement(f.victim, s, f.atkTest, f.traceLen)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	matched := agreeAt(2000)
	far := agreeAt(700)
	if matched <= far {
		t.Fatalf("matched period agreement %.3f should exceed far-off period %.3f", matched, far)
	}
}

func TestReverseEngineerFeatureMismatchIsWorse(t *testing.T) {
	f := getFixture(t)
	labels, err := QueryVictim(f.victim, f.atkTrain, f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	agreeFor := func(kind features.Kind) float64 {
		spec := hmd.Spec{Kind: kind, Period: 2000, Algo: "lr"}
		s, err := TrainSurrogate(labels, spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Agreement(f.victim, s, f.atkTest, f.traceLen)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	matched := agreeFor(features.Instructions)
	mism := agreeFor(features.Memory)
	if matched <= mism {
		t.Fatalf("matched feature agreement %.3f should exceed mismatched %.3f", matched, mism)
	}
}

func TestQueryVictimShape(t *testing.T) {
	f := getFixture(t)
	labels, err := QueryVictim(f.victim, f.atkTrain[:3], f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels.PerProgram) != 3 {
		t.Fatalf("labels for %d programs", len(labels.PerProgram))
	}
	for _, dec := range labels.PerProgram {
		if len(dec) != f.traceLen/2000 {
			t.Fatalf("got %d window decisions, want %d", len(dec), f.traceLen/2000)
		}
		for i, d := range dec {
			if d.End-d.Start != 2000 {
				t.Fatal("window bounds wrong")
			}
			if i > 0 && d.Start != dec[i-1].End {
				t.Fatal("windows not contiguous")
			}
			if d.Decision != 0 && d.Decision != 1 {
				t.Fatal("decision not binary")
			}
		}
	}
	rate := labels.FlagRate()
	if rate <= 0.05 || rate >= 0.95 {
		t.Fatalf("flag rate %.3f implausible", rate)
	}
	if _, err := QueryVictim(f.victim, nil, f.traceLen); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestEffectiveWeightsLR(t *testing.T) {
	f := getFixture(t)
	w, err := EffectiveWeights(f.victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != isa.NumOps {
		t.Fatalf("weights dim %d, want %d", len(w), isa.NumOps)
	}
	nonZero, neg := 0, 0
	for _, v := range w {
		if v != 0 {
			nonZero++
		}
		if v < 0 {
			neg++
		}
	}
	if nonZero != len(f.victim.FeatureIdx) {
		t.Fatalf("%d non-zero weights, want %d selected", nonZero, len(f.victim.FeatureIdx))
	}
	if neg == 0 {
		t.Fatal("no negative weights; evasion impossible on this victim")
	}
}

func TestEffectiveWeightsNN(t *testing.T) {
	f := getFixture(t)
	w, err := EffectiveWeights(f.victimNN)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != isa.NumOps {
		t.Fatalf("weights dim %d", len(w))
	}
}

// balanced returns a label-balanced subset of programs.
func balanced(programs []*prog.Program, perClass int) []*prog.Program {
	var ben, mal []*prog.Program
	for _, p := range programs {
		if p.Label == prog.Malware && len(mal) < perClass {
			mal = append(mal, p)
		} else if p.Label == prog.Benign && len(ben) < perClass {
			ben = append(ben, p)
		}
	}
	return append(ben, mal...)
}

func TestEffectiveWeightsDTFails(t *testing.T) {
	f := getFixture(t)
	mws, err := dataset.ExtractWindows(balanced(f.victimTrain, 6), []int{2000}, f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	mw := mws[2000]
	dt, err := hmd.Train(hmd.Spec{Kind: features.Instructions, Period: 2000, Algo: "dt"}, mw.Get(features.Instructions), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EffectiveWeights(dt); err == nil {
		t.Fatal("DT weights should be unavailable")
	}
}

func TestBuildPlanStrategies(t *testing.T) {
	f := getFixture(t)
	r := rng.New(9)
	lw, err := BuildPlan(f.victim, LeastWeight, 3, prog.BlockLevel, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(lw.Ops) != 3 || lw.Ops[0] != lw.Ops[1] {
		t.Fatalf("least-weight plan %v should repeat one opcode", lw.Ops)
	}
	w, _ := EffectiveWeights(f.victim)
	if w[lw.Ops[0]] >= 0 {
		t.Fatal("least-weight plan picked non-negative opcode")
	}
	// Least weight means THE most negative injectable weight.
	for _, op := range isa.Injectable() {
		if w[op] < w[lw.Ops[0]] {
			t.Fatalf("op %s has lower weight than chosen %s", op, lw.Ops[0])
		}
	}

	wp, err := BuildPlan(f.victim, Weighted, 50, prog.BlockLevel, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range wp.Ops {
		if w[op] >= 0 {
			t.Fatalf("weighted plan sampled non-negative opcode %s", op)
		}
	}

	rp, err := BuildPlan(f.victim, Random, 4, prog.FunctionLevel, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rp.Ops) != 4 || rp.Level != prog.FunctionLevel {
		t.Fatalf("random plan wrong: %+v", rp)
	}

	if _, err := BuildPlan(f.victim, LeastWeight, 0, prog.BlockLevel, r); err == nil {
		t.Fatal("zero count accepted")
	}
}

func TestBuildPlanArchitecturalRejected(t *testing.T) {
	f := getFixture(t)
	mws, err := dataset.ExtractWindows(balanced(f.victimTrain, 6), []int{2000}, f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	mw := mws[2000]
	arch, err := hmd.Train(hmd.Spec{Kind: features.Architectural, Period: 2000, Algo: "lr"}, mw.Get(features.Architectural), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPlan(arch, LeastWeight, 1, prog.BlockLevel, rng.New(1)); err == nil {
		t.Fatal("architectural plan should be rejected")
	}
}

func TestBuildPlanMemory(t *testing.T) {
	f := getFixture(t)
	mws, err := dataset.ExtractWindows(balanced(f.victimTrain, 20), []int{2000}, f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	mw := mws[2000]
	mem, err := hmd.Train(hmd.Spec{Kind: features.Memory, Period: 2000, Algo: "lr"}, mw.Get(features.Memory), 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(mem, LeastWeight, 2, prog.BlockLevel, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Ops[0] != isa.MOVLD {
		t.Fatalf("memory plan uses %s", plan.Ops[0])
	}
	if plan.MemDelta < 0 {
		t.Fatalf("negative delta %d", plan.MemDelta)
	}
}

func TestLeastWeightInjectionEvadesLR(t *testing.T) {
	f := getFixture(t)
	malware := MalwareOf(f.atkTest)
	r := rng.New(11)

	base, err := EvaluateEvasion(f.victim, malware, Plan{}, f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	if base.BaseDetectionRate() < 0.6 {
		t.Fatalf("victim only detects %.2f of malware; fixture broken", base.BaseDetectionRate())
	}

	plan, err := BuildPlan(f.victim, LeastWeight, 2, prog.BlockLevel, r)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvaluateEvasion(f.victim, malware, plan, f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectionRate() > 0.5*base.DetectionRate() {
		t.Fatalf("least-weight injection barely helped: %.3f -> %.3f",
			base.DetectionRate(), res.DetectionRate())
	}
	if res.StaticOverhead <= 0 || res.DynamicOverhead <= 0 {
		t.Fatalf("overheads not measured: %+v", res)
	}
}

func TestRandomInjectionDoesNotEvade(t *testing.T) {
	f := getFixture(t)
	malware := MalwareOf(f.atkTest)
	r := rng.New(13)
	plan, err := BuildPlan(f.victim, Random, 2, prog.BlockLevel, r)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvaluateEvasion(f.victim, malware, plan, f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectionRate() < 0.6 {
		t.Fatalf("random injection evaded too well: %.3f", res.DetectionRate())
	}
}

func TestEvasionViaSurrogateTransfersToVictim(t *testing.T) {
	f := getFixture(t)
	spec := hmd.Spec{Kind: features.Instructions, Period: 2000, Algo: "lr"}
	surrogate, _, err := ReverseEngineer(f.victim, f.atkTrain, f.atkTest, spec, f.traceLen, 5)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(surrogate, LeastWeight, 2, prog.BlockLevel, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvaluateEvasion(f.victim, MalwareOf(f.atkTest), plan, f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectionRate() > 0.5 {
		t.Fatalf("surrogate-driven evasion failed against victim: %.3f", res.DetectionRate())
	}
}

func TestDecisionAt(t *testing.T) {
	dec := []hmd.WindowDecision{
		{Start: 0, End: 10, Decision: 1},
		{Start: 10, End: 20, Decision: 0},
	}
	if hmd.DecisionAt(dec, 5) != 1 || hmd.DecisionAt(dec, 15) != 0 {
		t.Fatal("DecisionAt lookup wrong")
	}
	if hmd.DecisionAt(dec, 99) != 0 {
		t.Fatal("past-end should use last window")
	}
	if hmd.DecisionAt(nil, 0) != 0 {
		t.Fatal("empty decisions should be 0")
	}
}

func TestAgreementPerfectWithSelf(t *testing.T) {
	f := getFixture(t)
	a, err := Agreement(f.victim, f.victim, f.atkTest[:4], f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	if a != 1 {
		t.Fatalf("self-agreement = %v", a)
	}
}

func TestMalwareOf(t *testing.T) {
	f := getFixture(t)
	mal := MalwareOf(f.atkTest)
	for _, p := range mal {
		if p.Label != prog.Malware {
			t.Fatal("benign program in malware filter")
		}
	}
	if len(mal) == 0 || len(mal) == len(f.atkTest) {
		t.Fatalf("filter returned %d of %d", len(mal), len(f.atkTest))
	}
}

func TestEvasionResultRates(t *testing.T) {
	r := EvasionResult{Total: 10, DetectedBefore: 8, DetectedAfter: 2}
	if r.BaseDetectionRate() != 0.8 || r.DetectionRate() != 0.25 {
		t.Fatalf("rates wrong: %+v", r)
	}
	empty := EvasionResult{}
	if empty.BaseDetectionRate() != 0 || empty.DetectionRate() != 0 {
		t.Fatal("empty result rates should be 0")
	}
}

// Guard against surrogate-label plumbing errors: a surrogate trained on
// victim labels must beat one trained on inverted labels.
func TestSurrogateLabelsMatter(t *testing.T) {
	f := getFixture(t)
	labels, err := QueryVictim(f.victim, f.atkTrain, f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	inverted := &Labels{Programs: labels.Programs, TraceLen: labels.TraceLen}
	for _, dec := range labels.PerProgram {
		inv := make([]hmd.WindowDecision, len(dec))
		for i, d := range dec {
			inv[i] = hmd.WindowDecision{Start: d.Start, End: d.End, Decision: 1 - d.Decision}
		}
		inverted.PerProgram = append(inverted.PerProgram, inv)
	}
	spec := hmd.Spec{Kind: features.Instructions, Period: 2000, Algo: "lr"}
	good, err := TrainSurrogate(labels, spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := TrainSurrogate(inverted, spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	ga, err := Agreement(f.victim, good, f.atkTest, f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := Agreement(f.victim, bad, f.atkTest, f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	if ga <= ba {
		t.Fatalf("victim labels unused? good=%.3f inverted=%.3f", ga, ba)
	}
}

var _ = ml.Agreement // keep import if test edits drop direct uses

func TestIterativePlan(t *testing.T) {
	f := getFixture(t)
	mws, err := dataset.ExtractWindows(balanced(f.victimTrain, 20), []int{2000}, f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	mw := mws[2000]
	mem, err := hmd.Train(hmd.Spec{Kind: features.Memory, Period: 2000, Algo: "lr"}, mw.Get(features.Memory), 1)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := hmd.Train(hmd.Spec{Kind: features.Architectural, Period: 2000, Algo: "lr"}, mw.Get(features.Architectural), 1)
	if err != nil {
		t.Fatal(err)
	}
	pool := []*hmd.Detector{f.victim, mem, arch}
	plan, err := IterativePlan(pool, 2, prog.BlockLevel, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// Two controllable detectors × 2 instructions each; arch skipped.
	if plan.Count != 4 || len(plan.Payload) != 4 {
		t.Fatalf("payload size %d, want 4", plan.Count)
	}
	// The payload must actually apply.
	mod, err := plan.Apply(MalwareOf(f.atkTest)[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := mod.Validate(); err != nil {
		t.Fatal(err)
	}
	if prog.InjectedCount(mod) != 4*prog.InjectionSites(MalwareOf(f.atkTest)[0], prog.BlockLevel) {
		t.Fatal("iterative payload not injected at every site")
	}
	// Duplicate detectors add nothing.
	plan2, err := IterativePlan([]*hmd.Detector{f.victim, f.victim}, 2, prog.BlockLevel, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Count != 2 {
		t.Fatalf("duplicate detector not deduplicated: %d", plan2.Count)
	}
	if _, err := IterativePlan(nil, 2, prog.BlockLevel, rng.New(3)); err == nil {
		t.Fatal("empty pool accepted")
	}
	if _, err := IterativePlan([]*hmd.Detector{arch}, 2, prog.BlockLevel, rng.New(3)); err == nil {
		t.Fatal("uncontrollable-only pool accepted")
	}
}

func TestIterativePlanEvadesBothFeatures(t *testing.T) {
	f := getFixture(t)
	mws, err := dataset.ExtractWindows(balanced(f.victimTrain, 24), []int{2000}, f.traceLen)
	if err != nil {
		t.Fatal(err)
	}
	mw := mws[2000]
	mem, err := hmd.Train(hmd.Spec{Kind: features.Memory, Period: 2000, Algo: "lr"}, mw.Get(features.Memory), 1)
	if err != nil {
		t.Fatal(err)
	}
	pool := []*hmd.Detector{f.victim, mem}
	plan, err := IterativePlan(pool, 2, prog.BlockLevel, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	malware := MalwareOf(f.atkTest)
	// Both base detectors must be substantially evaded by the combined
	// payload (§8.3: iteratively evading each).
	for _, d := range pool {
		res, err := EvaluateEvasion(d, malware, plan, f.traceLen)
		if err != nil {
			t.Fatal(err)
		}
		if res.DetectionRate() > 0.5 {
			t.Fatalf("%s still detects %.2f after iterative payload", d.Spec, res.DetectionRate())
		}
	}
}
