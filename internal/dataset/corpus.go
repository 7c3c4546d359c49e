// Package dataset assembles the experiment corpus: it synthesizes a
// population of benign and malware programs from the family library (the
// substitution for the paper's 3,000 MalwareDB samples and 554 benign
// Windows programs, §3), performs the paper's stratified
// victim/attacker-train/attacker-test split, and extracts per-window
// feature datasets from program traces.
package dataset

import (
	"fmt"
	"slices"

	"rhmd/internal/features"
	"rhmd/internal/par"
	"rhmd/internal/prog"
	"rhmd/internal/rng"
)

// Config sizes the corpus.
type Config struct {
	// BenignPerFamily and MalwarePerFamily are the number of program
	// instances generated per family.
	BenignPerFamily  int
	MalwarePerFamily int
	// TraceLen is the committed-instruction budget per program trace
	// (the paper's 15M-instruction cap, scaled down per DESIGN.md).
	TraceLen int
	// Seed makes the whole corpus reproducible.
	Seed uint64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.BenignPerFamily <= 0 || c.MalwarePerFamily <= 0 {
		return fmt.Errorf("dataset: per-family counts must be positive (%d, %d)", c.BenignPerFamily, c.MalwarePerFamily)
	}
	if c.TraceLen < 1000 {
		return fmt.Errorf("dataset: trace length %d too short", c.TraceLen)
	}
	return nil
}

// DefaultConfig returns the corpus configuration used by the experiment
// drivers: ~80 benign and ~160 malware programs (preserving the paper's
// malware-heavy imbalance) at 120K instructions each.
func DefaultConfig(seed uint64) Config {
	return Config{
		BenignPerFamily:  14,
		MalwarePerFamily: 26,
		TraceLen:         120_000,
		Seed:             seed,
	}
}

// Corpus is the generated program population.
type Corpus struct {
	Programs []*prog.Program
	Config   Config
}

// Build synthesizes the corpus. Program generation is deterministic in
// Config.Seed: every program's generation stream and trace seed are
// drawn from the corpus stream in program order, then the programs are
// generated in parallel.
func Build(cfg Config) (*Corpus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	type job struct {
		fam  *prog.Profile
		name string
		gen  *rng.Source
		seed uint64
	}
	r := rng.NewKeyed(cfg.Seed, "corpus")
	var jobs []job
	for _, fam := range prog.AllFamilies() {
		n := cfg.BenignPerFamily
		if fam.Malware {
			n = cfg.MalwarePerFamily
		}
		for i := 0; i < n; i++ {
			gen := r.Split()
			jobs = append(jobs, job{fam, fmt.Sprintf("%s-%03d", fam.Family, i), gen, r.Uint64()})
		}
	}
	programs := make([]*prog.Program, len(jobs))
	err := par.Each(len(jobs), func(i int) error {
		j := jobs[i]
		p, err := prog.Generate(j.fam, j.gen, j.name, j.seed)
		if err != nil {
			return fmt.Errorf("dataset: generating %s: %w", j.name, err)
		}
		programs[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Corpus{Programs: programs, Config: cfg}, nil
}

// Labels returns the ground-truth label vector (1 = malware).
func Labels(programs []*prog.Program) []int {
	y := make([]int, len(programs))
	for i, p := range programs {
		if p.Label == prog.Malware {
			y[i] = 1
		}
	}
	return y
}

// Split partitions the corpus by the given fractions, stratified by
// family so every split sees every program type — the paper ensures
// "each set includes a randomly selected subset of malware samples from
// each type of malware" (§3). The canonical split is
// {0.6, 0.2, 0.2} = victim train / attacker train / attacker test.
func (c *Corpus) Split(fractions []float64, seed uint64) ([][]*prog.Program, error) {
	// Stratify per family by assigning each family a pseudo-class and
	// splitting family-by-family.
	byFamily := map[string][]*prog.Program{}
	var famOrder []string
	for _, p := range c.Programs {
		if _, seen := byFamily[p.Family]; !seen {
			famOrder = append(famOrder, p.Family)
		}
		byFamily[p.Family] = append(byFamily[p.Family], p)
	}
	sum := 0.0
	for _, f := range fractions {
		if f <= 0 {
			return nil, fmt.Errorf("dataset: non-positive fraction %v", f)
		}
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		return nil, fmt.Errorf("dataset: fractions sum to %v", sum)
	}
	out := make([][]*prog.Program, len(fractions))
	for _, fam := range famOrder {
		members := byFamily[fam]
		r := rng.NewKeyed(seed^hashString(fam), "family-split")
		r.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		counts := apportion(len(members), fractions)
		start := 0
		for g, n := range counts {
			out[g] = append(out[g], members[start:start+n]...)
			start += n
		}
	}
	return out, nil
}

// apportion splits n items into len(fractions) groups by the largest
// remainder method, then guarantees every group at least one item when
// n allows it (so small families still appear in every split, as the
// paper's per-type stratification requires).
func apportion(n int, fractions []float64) []int {
	g := len(fractions)
	counts := make([]int, g)
	rems := make([]float64, g)
	used := 0
	for i, f := range fractions {
		exact := f * float64(n)
		counts[i] = int(exact)
		rems[i] = exact - float64(counts[i])
		used += counts[i]
	}
	for used < n {
		best := 0
		for i := 1; i < g; i++ {
			if rems[i] > rems[best] {
				best = i
			}
		}
		counts[best]++
		rems[best] = -1
		used++
	}
	if n >= g {
		for i := range counts {
			if counts[i] > 0 {
				continue
			}
			// Steal from the largest group.
			big := 0
			for j := 1; j < g; j++ {
				if counts[j] > counts[big] {
					big = j
				}
			}
			if counts[big] > 1 {
				counts[big]--
				counts[i]++
			}
		}
	}
	return counts
}

func hashString(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// WindowData is a labelled per-window feature dataset for one feature
// kind at one collection period.
type WindowData struct {
	Kind    features.Kind
	Period  int
	X       [][]float64
	Y       []int // ground-truth program label per window
	ProgIdx []int // index into the source program slice per window
}

// Len returns the number of windows.
func (w *WindowData) Len() int { return len(w.X) }

// MultiWindowData holds aligned window datasets for all feature kinds
// extracted in a single pass.
type MultiWindowData struct {
	Period int
	Kinds  [features.NumKinds]*WindowData
}

// Get returns the dataset for one feature kind.
func (m *MultiWindowData) Get(k features.Kind) *WindowData { return m.Kinds[k] }

// ExtractWindows traces every program once and assembles, for each
// collection period, per-window datasets for all three feature kinds,
// keyed by period. Programs are traced in parallel; the row order is
// deterministic (program order, then window order). A period listed
// twice is extracted once.
func ExtractWindows(programs []*prog.Program, periods []int, traceLen int) (map[int]*MultiWindowData, error) {
	if len(programs) == 0 {
		return nil, fmt.Errorf("dataset: no programs to extract from")
	}
	if len(periods) == 0 {
		return nil, fmt.Errorf("dataset: no periods to extract at")
	}
	var distinct []int
	for _, p := range periods {
		if !slices.Contains(distinct, p) {
			distinct = append(distinct, p)
		}
	}
	sets := make([][]*features.WindowSet, len(programs))
	err := par.Each(len(programs), func(i int) error {
		ws, err := features.ExtractPeriods(programs[i], distinct, traceLen)
		if err != nil {
			return fmt.Errorf("dataset: extracting %s: %w", programs[i].Name, err)
		}
		sets[i] = ws
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make(map[int]*MultiWindowData, len(distinct))
	for j, period := range distinct {
		mw := &MultiWindowData{Period: period}
		for _, k := range features.AllKinds() {
			mw.Kinds[k] = &WindowData{Kind: k, Period: period}
		}
		for i, ps := range sets {
			label := 0
			if programs[i].Label == prog.Malware {
				label = 1
			}
			for _, k := range features.AllKinds() {
				wd := mw.Kinds[k]
				rows := ps[j].Rows(k)
				wd.X = append(wd.X, rows...)
				for range rows {
					wd.Y = append(wd.Y, label)
					wd.ProgIdx = append(wd.ProgIdx, i)
				}
			}
		}
		out[period] = mw
	}
	return out, nil
}

// ByProgram groups a WindowData's row indices by source program.
func (w *WindowData) ByProgram() map[int][]int {
	out := map[int][]int{}
	for row, pi := range w.ProgIdx {
		out[pi] = append(out[pi], row)
	}
	return out
}
