package scenario

import (
	"testing"

	"rhmd/internal/dataset"
	"rhmd/internal/prog"
)

// steadyCorpus is the spec perfbench's repeat-long and short-durable
// workloads compile: 96 events over the default 30-program population.
func steadyCorpus(name string, seed uint64, traceLen int) Spec {
	return Spec{Name: name, Seed: seed, Events: 96, Corpus: dataset.Config{TraceLen: traceLen}}
}

// fleetChunk is the spec of chunk `slice` of `slices` of perfbench's
// unique-adversary-fleet workload: one distinct base program per event,
// paced at 100/s, covering its slice of the 0 → 0.8 evasive ramp.
func fleetChunk(seed uint64, slice, slices, events int) Spec {
	fams := len(prog.BenignFamilies()) + len(prog.MalwareFamilies())
	per := (events + fams - 1) / fams
	return Spec{
		Name:   "unique-adversary-fleet",
		Seed:   seed ^ uint64(slice)<<40,
		Events: events,
		Corpus: dataset.Config{BenignPerFamily: per, MalwarePerFamily: per, TraceLen: 40_000},
		Shape:  Shape{Kind: Steady, Rate: 100},
		Adversary: Adversary{
			Start:      0.8 * float64(slice) / float64(slices),
			End:        0.8 * float64(slice+1) / float64(slices),
			PayloadLen: 4,
			MemDelta:   64,
		},
	}
}

// TestPerfbenchCorporaGolden pins what Compile emits for the specs
// perfbench measures, so that a change to this package cannot silently
// change a benchmark workload. The seed-42 fingerprints are the ones
// perfbench prints as provenance at `--seed 42 --seconds 1`; the last
// case is the sixth of the thirteen chunks of a 25 s run.
func TestPerfbenchCorporaGolden(t *testing.T) {
	cases := []struct {
		name        string
		spec        Spec
		fingerprint uint64
		events      int
		evasive     int
	}{
		{"repeat-long", steadyCorpus("repeat-long", 42, 40_000), 0xd0fb0b637465dc13, 96, 0},
		{"short-durable", steadyCorpus("short-durable", 42, 4_000), 0x9fce2ead16caf81b, 96, 0},
		{"unique-adversary-fleet 1s", fleetChunk(42, 0, 1, 125), 0x4ebb1f3a2711654f, 125, 56},
		{"unique-adversary-fleet 25s chunk 5", fleetChunk(42, 5, 13, 293), 0xd99071afaf7552ae, 293, 98},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			corpus := compile(t, c.spec)
			evasive := 0
			for _, e := range corpus.Events {
				if e.Evasive {
					evasive++
				}
			}
			if got := corpus.Fingerprint(); got != c.fingerprint {
				t.Errorf("fingerprint %016x, want %016x", got, c.fingerprint)
			}
			if len(corpus.Events) != c.events || evasive != c.evasive {
				t.Errorf("%d events with %d evasive, want %d with %d", len(corpus.Events), evasive, c.events, c.evasive)
			}
		})
	}
}
