package dataset

import (
	"math"
	"slices"
	"strings"
	"testing"

	"rhmd/internal/features"
	"rhmd/internal/prog"
)

func smallConfig(seed uint64) Config {
	return Config{BenignPerFamily: 4, MalwarePerFamily: 4, TraceLen: 20_000, Seed: seed}
}

func TestBuildCorpus(t *testing.T) {
	c, err := Build(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	wantB := 4 * len(prog.BenignFamilies())
	wantM := 4 * len(prog.MalwareFamilies())
	var nb, nm int
	names := map[string]bool{}
	for _, p := range c.Programs {
		if names[p.Name] {
			t.Fatalf("duplicate program name %s", p.Name)
		}
		names[p.Name] = true
		if p.Label == prog.Malware {
			nm++
		} else {
			nb++
		}
	}
	if nb != wantB || nm != wantM {
		t.Fatalf("corpus has %d benign %d malware, want %d/%d", nb, nm, wantB, wantM)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Programs {
		if a.Programs[i].Seed != b.Programs[i].Seed ||
			a.Programs[i].OpcodeHistogram() != b.Programs[i].OpcodeHistogram() {
			t.Fatalf("program %d differs across identical builds", i)
		}
	}
	c, err := Build(smallConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if c.Programs[0].OpcodeHistogram() == a.Programs[0].OpcodeHistogram() {
		t.Fatal("different corpus seeds produced identical first program")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Build(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := Build(Config{BenignPerFamily: 1, MalwarePerFamily: 1, TraceLen: 10}); err == nil {
		t.Fatal("tiny trace accepted")
	}
}

func TestSplitCoversEveryFamilyInEveryGroup(t *testing.T) {
	c, err := Build(Config{BenignPerFamily: 10, MalwarePerFamily: 10, TraceLen: 20_000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := c.Split([]float64{0.6, 0.2, 0.2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("got %d groups", len(groups))
	}
	total := 0
	for g, group := range groups {
		fams := map[string]bool{}
		for _, p := range group {
			fams[p.Family] = true
		}
		if len(fams) != len(prog.AllFamilies()) {
			t.Fatalf("group %d covers %d families, want %d", g, len(fams), len(prog.AllFamilies()))
		}
		total += len(group)
	}
	if total != len(c.Programs) {
		t.Fatalf("split covers %d of %d programs", total, len(c.Programs))
	}
	// 60/20/20 proportions, roughly.
	if f := float64(len(groups[0])) / float64(total); math.Abs(f-0.6) > 0.08 {
		t.Fatalf("victim fraction %v", f)
	}
}

func TestSplitDisjoint(t *testing.T) {
	c, _ := Build(smallConfig(4))
	groups, err := c.Split([]float64{0.5, 0.5}, 9)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*prog.Program]bool{}
	for _, g := range groups {
		for _, p := range g {
			if seen[p] {
				t.Fatalf("program %s in two groups", p.Name)
			}
			seen[p] = true
		}
	}
}

func TestExtractWindows(t *testing.T) {
	c, _ := Build(smallConfig(5))
	progs := c.Programs[:6]
	mws, err := ExtractWindows(progs, []int{2000}, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	mw := mws[2000]
	wantRows := 6 * 10 // 20K/2K windows each
	for _, k := range features.AllKinds() {
		wd := mw.Get(k)
		if wd.Len() != wantRows {
			t.Fatalf("%v has %d rows, want %d", k, wd.Len(), wantRows)
		}
		if len(wd.Y) != wantRows || len(wd.ProgIdx) != wantRows {
			t.Fatal("labels/progidx misaligned")
		}
		for row, pi := range wd.ProgIdx {
			wantLabel := 0
			if progs[pi].Label == prog.Malware {
				wantLabel = 1
			}
			if wd.Y[row] != wantLabel {
				t.Fatalf("row %d label %d, want %d", row, wd.Y[row], wantLabel)
			}
		}
	}
}

func TestExtractWindowsParallelDeterministic(t *testing.T) {
	c, _ := Build(smallConfig(6))
	progs := c.Programs[:8]
	a, err := ExtractWindows(progs, []int{2000}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExtractWindows(progs, []int{2000}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range features.AllKinds() {
		xa, xb := a[2000].Get(k).X, b[2000].Get(k).X
		for i := range xa {
			for j := range xa[i] {
				if xa[i][j] != xb[i][j] {
					t.Fatalf("parallel extraction non-deterministic at %v[%d][%d]", k, i, j)
				}
			}
		}
	}
}

func TestExtractWindowsErrors(t *testing.T) {
	if _, err := ExtractWindows(nil, []int{1000}, 10000); err == nil {
		t.Fatal("empty program list accepted")
	}
	c, _ := Build(smallConfig(7))
	if _, err := ExtractWindows(c.Programs[:1], []int{0}, 10000); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := ExtractWindows(c.Programs[:1], nil, 10000); err == nil {
		t.Fatal("empty period list accepted")
	}
}

// TestExtractWindowsFirstError: programs are traced in parallel, but the
// error is the first failing program's in input order, as a sequential
// loop would report it.
func TestExtractWindowsFirstError(t *testing.T) {
	c, _ := Build(smallConfig(7))
	progs := []*prog.Program{c.Programs[0], {Name: "broken-1"}, c.Programs[1], {Name: "broken-3"}}
	_, err := ExtractWindows(progs, []int{1000, 2000}, 10_000)
	if err == nil || !strings.Contains(err.Error(), "broken-1") {
		t.Fatalf("error %v, want the one for broken-1", err)
	}
}

// TestExtractWindowsPeriodsMatchSeparate: one pass at several periods
// yields, bit for bit, what one pass per period yields; a repeated
// period is extracted once.
func TestExtractWindowsPeriodsMatchSeparate(t *testing.T) {
	c, _ := Build(smallConfig(10))
	progs := c.Programs[:5]
	periods := []int{2000, 700, 1000, 2000}
	all, err := ExtractWindows(progs, periods, 12_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("%d periods extracted, want 3", len(all))
	}
	for _, period := range periods {
		one, err := ExtractWindows(progs, []int{period}, 12_000)
		if err != nil {
			t.Fatal(err)
		}
		a, b := all[period], one[period]
		if a.Period != period {
			t.Fatalf("period %d data carries period %d", period, a.Period)
		}
		for _, k := range features.AllKinds() {
			wa, wb := a.Get(k), b.Get(k)
			if wa.Period != period || wa.Kind != k || wa.Len() != wb.Len() || !slices.Equal(wa.Y, wb.Y) || !slices.Equal(wa.ProgIdx, wb.ProgIdx) {
				t.Fatalf("period %d %v: shape or labels differ from a single-period pass", period, k)
			}
			for i := range wa.X {
				for j := range wa.X[i] {
					if math.Float64bits(wa.X[i][j]) != math.Float64bits(wb.X[i][j]) {
						t.Fatalf("period %d %v row %d col %d differs from a single-period pass", period, k, i, j)
					}
				}
			}
		}
	}
}

func TestByProgram(t *testing.T) {
	c, _ := Build(smallConfig(8))
	mws, err := ExtractWindows(c.Programs[:3], []int{2000}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	wd := mws[2000].Get(features.Instructions)
	groups := wd.ByProgram()
	if len(groups) != 3 {
		t.Fatalf("ByProgram found %d programs", len(groups))
	}
	n := 0
	for _, rows := range groups {
		n += len(rows)
	}
	if n != wd.Len() {
		t.Fatalf("ByProgram covers %d of %d rows", n, wd.Len())
	}
}

func TestLabels(t *testing.T) {
	c, _ := Build(smallConfig(9))
	y := Labels(c.Programs)
	for i, p := range c.Programs {
		want := 0
		if p.Label == prog.Malware {
			want = 1
		}
		if y[i] != want {
			t.Fatalf("label %d = %d, want %d", i, y[i], want)
		}
	}
}
