package scenario

import (
	"fmt"
	"testing"
	"time"

	"rhmd/internal/prog"
)

func compile(t *testing.T, spec Spec) *Corpus {
	t.Helper()
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Identical seeds must produce identical corpora — the acceptance
// criterion every benchmark comparison rests on. Byte-for-byte over
// every field the fingerprint folds, plus the fingerprint itself.
func TestCompileDeterministic(t *testing.T) {
	specs := []Spec{
		steadyCorpus("steady", 42, 40_000),
		{Name: "adversary-ramp", Seed: 42, Events: 96,
			Adversary: Adversary{Start: 0, End: 0.8, PayloadLen: 4, MemDelta: 64}},
		{Name: "drift-ramp", Seed: 42, Events: 128,
			Adversary: Adversary{Start: 0, End: 0.9, PayloadLen: 6, MemDelta: 96}},
		fleetChunk(42, 1, 3, 100),
	}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			a, b := compile(t, spec), compile(t, spec)
			if len(a.Events) != len(b.Events) {
				t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
			}
			for i := range a.Events {
				ea, eb := a.Events[i], b.Events[i]
				if ea.Program.Name != eb.Program.Name ||
					ea.Program.Seed != eb.Program.Seed ||
					ea.Program.Generation != eb.Program.Generation ||
					ea.Delay != eb.Delay || ea.Stream != eb.Stream || ea.Evasive != eb.Evasive {
					t.Fatalf("event %d differs:\n %+v\n %+v", i, ea, eb)
				}
			}
			if a.Fingerprint() != b.Fingerprint() {
				t.Fatalf("fingerprints differ: %x vs %x", a.Fingerprint(), b.Fingerprint())
			}
		})
	}
}

// Different seeds must produce different corpora (the fingerprint
// actually discriminates workloads).
func TestCompileSeedSensitivity(t *testing.T) {
	a := compile(t, steadyCorpus("steady", 1, 40_000))
	b := compile(t, steadyCorpus("steady", 2, 40_000))
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatalf("different seeds produced identical fingerprints %x", a.Fingerprint())
	}
}

func TestShapeSteadyPacing(t *testing.T) {
	c := compile(t, Spec{Name: "t", Seed: 7, Events: 10,
		Shape: Shape{Kind: Steady, Rate: 100}})
	want := 10 * time.Millisecond
	if c.Events[0].Delay != 0 {
		t.Fatalf("first event delay %v, want 0", c.Events[0].Delay)
	}
	for i, e := range c.Events[1:] {
		if e.Delay != want {
			t.Fatalf("event %d delay %v, want %v", i+1, e.Delay, want)
		}
	}
}

// Event names must be unique (exact client-side latency attribution
// depends on it) even though base programs repeat round-robin.
func TestEventNamesUnique(t *testing.T) {
	c := compile(t, Spec{Name: "t", Seed: 7, Events: 200})
	seen := map[string]bool{}
	for _, e := range c.Events {
		if seen[e.Program.Name] {
			t.Fatalf("duplicate event name %q", e.Program.Name)
		}
		seen[e.Program.Name] = true
	}
}

func TestAdversaryRamp(t *testing.T) {
	c := compile(t, Spec{Name: "t", Seed: 7, Events: 300,
		Adversary: Adversary{Start: 0, End: 0.8, PayloadLen: 4}})
	firstHalf, secondHalf := 0, 0
	for i, e := range c.Events {
		if !e.Evasive {
			continue
		}
		if i < 150 {
			firstHalf++
		} else {
			secondHalf++
		}
		if e.Program.Generation != 1 {
			t.Fatalf("evasive event %d has generation %d, want 1", i, e.Program.Generation)
		}
		if prog.InjectedCount(e.Program) == 0 {
			t.Fatalf("evasive event %d has no injected instructions", i)
		}
	}
	// The ramp 0→0.8 means ~20% evasive in the first half, ~60% in the
	// second: the second half must clearly dominate.
	if secondHalf <= firstHalf {
		t.Fatalf("ramp inverted: %d evasive in first half, %d in second", firstHalf, secondHalf)
	}
	if total := firstHalf + secondHalf; total < 60 || total > 180 {
		t.Fatalf("evasive total %d of 300, want ~120", total)
	}
}

// Clean events must share the base program's Funcs (shallow rename);
// evasive events must not (deep clone via Inject).
func TestCloneSharing(t *testing.T) {
	c := compile(t, Spec{Name: "t", Seed: 7, Events: 40,
		Adversary: Adversary{Start: 1, End: 1}})
	c2 := compile(t, Spec{Name: "t", Seed: 7, Events: 40})
	for i, e := range c.Events {
		if !e.Evasive {
			t.Fatalf("event %d not evasive at fraction 1", i)
		}
		if e.Program.Funcs[0] == c2.Events[i].Program.Funcs[0] {
			t.Fatalf("evasive event %d shares Funcs with the clean variant", i)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []Spec{
		{},
		{Name: "x", Adversary: Adversary{Start: -0.1}},
		{Name: "x", Adversary: Adversary{End: 1.5}},
	}
	for i, spec := range cases {
		if _, err := Compile(spec); err == nil {
			t.Fatalf("case %d: Compile accepted invalid spec %+v", i, spec)
		}
	}
}

// Fingerprint must react to each folded dimension.
func TestFingerprintSensitivity(t *testing.T) {
	base := Spec{Name: "t", Seed: 7, Events: 40}
	fp := func(s Spec) uint64 { return compile(t, s).Fingerprint() }
	a := fp(base)

	mods := map[string]Spec{}
	m := base
	m.Shape.Rate = 100
	mods["rate"] = m
	m = base
	m.Adversary = Adversary{Start: 1, End: 1}
	mods["adversary"] = m

	for _, name := range []string{"rate", "adversary"} {
		if fp(mods[name]) == a {
			t.Errorf("fingerprint blind to %s change", name)
		}
	}
}

func TestStreamNamingConvention(t *testing.T) {
	c := compile(t, Spec{Name: "t", Seed: 7, Events: 8})
	for i, e := range c.Events {
		want := fmt.Sprintf("s%05d", i)
		if e.Stream != want {
			t.Fatalf("event %d stream %q, want %q", i, e.Stream, want)
		}
	}
}
