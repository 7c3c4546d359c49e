package experiments

import (
	"fmt"
	"sync"

	"rhmd/internal/attack"
	"rhmd/internal/dataset"
	"rhmd/internal/hmd"
	"rhmd/internal/prog"
)

// Config scales the experiment suite. The paper traces 3,554 Windows
// programs for up to 15M instructions and classifies at a 10K-instruction
// period; this reproduction scales trace length and period down by ~5×
// together (see DESIGN.md), so the canonical period is Period=2000
// ("10K" in paper units) and PeriodSmall=1000 ("5K").
type Config struct {
	BenignPerFamily  int
	MalwarePerFamily int
	TraceLen         int
	// Period is the canonical collection period (the paper's 10K).
	Period int
	// PeriodSmall is the second RHMD period (the paper's 5K).
	PeriodSmall int
	// Seed drives corpus synthesis, splitting and training.
	Seed uint64
}

// FullConfig is the scale used for EXPERIMENTS.md numbers.
func FullConfig(seed uint64) Config {
	return Config{
		BenignPerFamily:  16,
		MalwarePerFamily: 32,
		TraceLen:         100_000,
		Period:           2000,
		PeriodSmall:      1000,
		Seed:             seed,
	}
}

// SmokeConfig is a reduced scale for tests and quick benchmark runs.
func SmokeConfig(seed uint64) Config {
	return Config{
		BenignPerFamily:  6,
		MalwarePerFamily: 8,
		TraceLen:         40_000,
		Period:           2000,
		PeriodSmall:      1000,
		Seed:             seed,
	}
}

// PeriodSweep returns the attacker's candidate collection periods for
// Figure 3a, mirroring the paper's {5K..19K} sweep around its 10K truth
// in scaled units.
func (c Config) PeriodSweep() []int {
	p := c.Period
	return []int{p / 2, p * 8 / 10, p * 9 / 10, p, p * 11 / 10, p * 12 / 10, p * 3 / 2, p * 19 / 10}
}

// Env carries the corpus, the paper's 60/20/20 split, and memoized
// window data, victim detectors and victim query labels shared across
// experiment drivers.
type Env struct {
	Cfg    Config
	Corpus *dataset.Corpus

	// VictimTrain/AtkTrain/AtkTest is the §3 split: 60% victim training,
	// 20% attacker training, 20% attacker testing.
	VictimTrain []*prog.Program
	AtkTrain    []*prog.Program
	AtkTest     []*prog.Program

	mu      sync.Mutex
	windows map[string]*dataset.MultiWindowData // "group/period"
	victims map[string]*hmd.Detector            // spec string
	labels  map[string]*attack.Labels           // victim identity key
}

// NewEnv builds the corpus and split.
func NewEnv(cfg Config) (*Env, error) {
	c, err := dataset.Build(dataset.Config{
		BenignPerFamily:  cfg.BenignPerFamily,
		MalwarePerFamily: cfg.MalwarePerFamily,
		TraceLen:         cfg.TraceLen,
		Seed:             cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	groups, err := c.Split([]float64{0.6, 0.2, 0.2}, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	return &Env{
		Cfg:         cfg,
		Corpus:      c,
		VictimTrain: groups[0],
		AtkTrain:    groups[1],
		AtkTest:     groups[2],
		windows:     map[string]*dataset.MultiWindowData{},
		victims:     map[string]*hmd.Detector{},
		labels:      map[string]*attack.Labels{},
	}, nil
}

func (e *Env) group(name string) ([]*prog.Program, error) {
	switch name {
	case "victim":
		return e.VictimTrain, nil
	case "atk-train":
		return e.AtkTrain, nil
	case "atk-test":
		return e.AtkTest, nil
	}
	return nil, fmt.Errorf("experiments: unknown group %q", name)
}

// Windows returns (and caches) the window data of a split group at a
// period. Every RHMD pool is trained at both Period and PeriodSmall, so
// a request for either extracts and caches both in one pass over the
// group.
func (e *Env) Windows(group string, period int) (*dataset.MultiWindowData, error) {
	key := fmt.Sprintf("%s/%d", group, period)
	e.mu.Lock()
	if mw, ok := e.windows[key]; ok {
		e.mu.Unlock()
		return mw, nil
	}
	e.mu.Unlock()
	programs, err := e.group(group)
	if err != nil {
		return nil, err
	}
	periods := []int{period}
	if period == e.Cfg.Period || period == e.Cfg.PeriodSmall {
		periods = []int{e.Cfg.PeriodSmall, e.Cfg.Period}
	}
	mws, err := dataset.ExtractWindows(programs, periods, e.Cfg.TraceLen)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, p := range periods {
		// A concurrent caller may have cached it first; keep one copy.
		if k := fmt.Sprintf("%s/%d", group, p); e.windows[k] == nil {
			e.windows[k] = mws[p]
		}
	}
	return e.windows[key], nil
}

// Victim returns (and caches) a detector trained on the victim split.
func (e *Env) Victim(spec hmd.Spec) (*hmd.Detector, error) {
	key := spec.String()
	e.mu.Lock()
	if d, ok := e.victims[key]; ok {
		e.mu.Unlock()
		return d, nil
	}
	e.mu.Unlock()
	mw, err := e.Windows("victim", spec.Period)
	if err != nil {
		return nil, err
	}
	d, err := hmd.Train(spec, mw.Get(spec.Kind), e.Cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.victims[key] = d
	e.mu.Unlock()
	return d, nil
}

// Labels returns (and caches) the victim's query labels over the
// attacker training set. key must uniquely identify the victim (use its
// spec string, or a pool description for RHMDs).
func (e *Env) Labels(key string, v attack.Victim) (*attack.Labels, error) {
	e.mu.Lock()
	if l, ok := e.labels[key]; ok {
		e.mu.Unlock()
		return l, nil
	}
	e.mu.Unlock()
	l, err := attack.QueryVictim(v, e.AtkTrain, e.Cfg.TraceLen)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.labels[key] = l
	e.mu.Unlock()
	return l, nil
}

// TestLabels returns (and caches) the victim's decisions over the
// attacker TEST set, used to score many surrogates against one victim.
func (e *Env) TestLabels(key string, v attack.Victim) (*attack.Labels, error) {
	key = "test/" + key
	e.mu.Lock()
	if l, ok := e.labels[key]; ok {
		e.mu.Unlock()
		return l, nil
	}
	e.mu.Unlock()
	l, err := attack.QueryVictim(v, e.AtkTest, e.Cfg.TraceLen)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.labels[key] = l
	e.mu.Unlock()
	return l, nil
}

// Surrogate trains a reverse-engineering surrogate from cached victim
// labels and cached attacker-train window data.
func (e *Env) Surrogate(victimKey string, v attack.Victim, spec hmd.Spec, seed uint64) (*hmd.Detector, error) {
	labels, err := e.Labels(victimKey, v)
	if err != nil {
		return nil, err
	}
	mw, err := e.Windows("atk-train", spec.Period)
	if err != nil {
		return nil, err
	}
	return attack.TrainSurrogateFrom(labels, mw, spec, seed)
}

// AtkTestMalware returns the malware subset of the attacker test split.
func (e *Env) AtkTestMalware() []*prog.Program {
	return attack.MalwareOf(e.AtkTest)
}
