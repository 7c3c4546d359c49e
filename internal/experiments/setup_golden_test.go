package experiments

import (
	"encoding/binary"
	"encoding/json"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"rhmd/internal/core"
	"rhmd/internal/dataset"
	"rhmd/internal/features"
	"rhmd/internal/game"
)

// Set-up goldens: FNV-64a digests of everything a pool build at
// SmokeConfig(42) produces, stage by stage. Corpus synthesis, window
// extraction and pool training may be reorganised (parallelised,
// fused, re-sorted) but must keep every one of these bits.
const (
	// corpusGolden covers the JSON encoding of every corpus program.
	corpusGolden   = 0x5f6aeba94993a13c
	corpusPrograms = 84
	// victimWindowsGolden covers the victim split's windows at both
	// RHMD periods: kind, period, every feature bit, label and source
	// program of every row.
	victimWindowsGolden = 0x9e19c3d368493cb4
	victimWindowsRows   = 9720
	// setupPoolGolden is core.RHMD.Fingerprint of the six-detector LR
	// pool perfbench serves.
	setupPoolGolden = 0x73715f1c75fa1d75
	// retrainPoolGolden is the fingerprint of that pool after one
	// game.RetrainPool round on the attacker-training split.
	retrainPoolGolden = 0x6c5089f0f5fd4a68
)

type setupHash struct {
	h   hash.Hash64
	buf [8]byte
}

func (g *setupHash) u64(v uint64) {
	binary.LittleEndian.PutUint64(g.buf[:], v)
	g.h.Write(g.buf[:])
}

func (g *setupHash) int(v int) { g.u64(uint64(int64(v))) }

// setupPool builds the serving pool exactly as perfbench's newPool
// does.
func setupPool(t testing.TB, e *Env) *core.RHMD {
	t.Helper()
	periods := []int{e.Cfg.PeriodSmall, e.Cfg.Period}
	data := map[int]*dataset.MultiWindowData{}
	for _, p := range periods {
		mw, err := e.Windows("victim", p)
		if err != nil {
			t.Fatal(err)
		}
		data[p] = mw
	}
	specs := core.PoolSpecs(features.AllKinds(), periods, "lr")
	dets, err := core.TrainPool(specs, data, e.Cfg.Seed+9)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := core.New(dets, e.Cfg.Seed+10)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func TestSetupGolden(t *testing.T) {
	e, err := NewEnv(SmokeConfig(42))
	if err != nil {
		t.Fatal(err)
	}

	corpus := &setupHash{h: fnv.New64a()}
	for _, p := range e.Corpus.Programs {
		body, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		corpus.h.Write(body)
	}
	if got := corpus.h.Sum64(); got != corpusGolden || len(e.Corpus.Programs) != corpusPrograms {
		t.Errorf("corpus digest %#x over %d programs, want %#x over %d: dataset.Build output changed",
			got, len(e.Corpus.Programs), uint64(corpusGolden), corpusPrograms)
	}

	win := &setupHash{h: fnv.New64a()}
	rows := 0
	for _, period := range []int{e.Cfg.PeriodSmall, e.Cfg.Period} {
		mw, err := e.Windows("victim", period)
		if err != nil {
			t.Fatal(err)
		}
		win.int(mw.Period)
		for _, k := range features.AllKinds() {
			wd := mw.Get(k)
			win.int(int(wd.Kind))
			win.int(wd.Period)
			win.int(wd.Len())
			for i, row := range wd.X {
				for _, v := range row {
					win.u64(math.Float64bits(v))
				}
				win.int(wd.Y[i])
				win.int(wd.ProgIdx[i])
				rows++
			}
		}
	}
	if got := win.h.Sum64(); got != victimWindowsGolden || rows != victimWindowsRows {
		t.Errorf("victim window digest %#x over %d rows, want %#x over %d: window extraction changed",
			got, rows, uint64(victimWindowsGolden), victimWindowsRows)
	}

	pool := setupPool(t, e)
	if got := pool.Fingerprint(); got != setupPoolGolden {
		t.Errorf("pool fingerprint %016x, want %016x: pool training changed", got, uint64(setupPoolGolden))
	}

	res, err := game.RetrainPool(pool, e.AtkTrain, e.Cfg.TraceLen, game.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Pool.Fingerprint(); got != retrainPoolGolden {
		t.Errorf("retrained pool fingerprint %016x, want %016x: RetrainPool changed", got, uint64(retrainPoolGolden))
	}
}

// BenchmarkPoolSetup is the pool-build rung of the ladder: perfbench's
// timed set-up without the scenario compile and the engine — corpus
// synthesis and split (NewEnv), victim windows at both RHMD periods,
// TrainPool and core.New.
func BenchmarkPoolSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := NewEnv(SmokeConfig(42))
		if err != nil {
			b.Fatal(err)
		}
		setupPool(b, e)
	}
}
