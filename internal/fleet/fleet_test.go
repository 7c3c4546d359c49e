package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"rhmd/internal/core"
	"rhmd/internal/dataset"
	"rhmd/internal/features"
	"rhmd/internal/monitor"
	"rhmd/internal/obs"
	"rhmd/internal/prog"
)

// fixture: a small corpus and a trained six-detector pool, built once
// per test binary (the same shape the monitor tests use).
type fixture struct {
	programs []*prog.Program
	traceLen int
	rhmd     *core.RHMD
}

var fx *fixture

func getFixture(t testing.TB) *fixture {
	t.Helper()
	if fx != nil {
		return fx
	}
	cfg := dataset.Config{BenignPerFamily: 8, MalwarePerFamily: 12, TraceLen: 60_000, Seed: 11}
	c, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := c.Split([]float64{0.7, 0.3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	periods := []int{1000, 2000}
	data, err := dataset.ExtractWindows(groups[0], periods, cfg.TraceLen)
	if err != nil {
		t.Fatal(err)
	}
	specs := core.PoolSpecs(features.AllKinds(), periods, "lr")
	pool, err := core.TrainPool(specs, data, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The RHMD is read-only at serving time, so every shard — and every
	// test — shares one trained pool.
	r, err := core.New(pool, 0xF1EE7)
	if err != nil {
		t.Fatal(err)
	}
	fx = &fixture{programs: groups[1], traceLen: cfg.TraceLen, rhmd: r}
	return fx
}

// clone renames a corpus program for another submission round; the
// trace itself is reproduced from Seed, so a renamed clone is the same
// workload under a new stream key.
func clone(p *prog.Program, tag string) *prog.Program {
	c := *p
	c.Name = fmt.Sprintf("%s@%s", p.Name, tag)
	return &c
}

// engineTemplate is the per-shard engine config the fleet tests share:
// generous deadline (CI boxes stall), periodic snapshots off so
// durability traffic is exactly the verdict WAL.
func engineTemplate(f *fixture) monitor.Config {
	return monitor.Config{
		Workers: 2, QueueDepth: 16, TraceLen: f.traceLen,
		WindowDeadline:  2 * time.Second,
		CheckpointEvery: time.Hour,
	}
}

// harness runs a fleet's consumer and feeder goroutines and collects
// every delivered report.
type harness struct {
	fl *Fleet

	mu       sync.Mutex
	counts   map[string]int    // report name -> deliveries
	shardGen map[[2]uint64]int // (shard, gen) -> deliveries

	stopFeed chan struct{}
	feedDone chan struct{}
	consDone chan struct{}
}

func startHarness(f *fixture, fl *Fleet) *harness {
	h := &harness{
		fl:       fl,
		counts:   map[string]int{},
		shardGen: map[[2]uint64]int{},
		stopFeed: make(chan struct{}),
		feedDone: make(chan struct{}),
		consDone: make(chan struct{}),
	}
	go func() {
		defer close(h.consDone)
		for rep := range fl.Results() {
			h.mu.Lock()
			h.counts[rep.Program]++
			h.shardGen[[2]uint64{uint64(rep.Shard), rep.ShardGen}]++
			h.mu.Unlock()
		}
	}()
	go func() {
		defer close(h.feedDone)
		for round := 0; ; round++ {
			select {
			case <-h.stopFeed:
				return
			default:
			}
			for _, p := range f.programs {
				// Sheds (full queue on a dying shard, no shard serving) are
				// the fleet failing explicitly; the feeder just moves on.
				fl.Submit(clone(p, fmt.Sprintf("r%d", round)))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	return h
}

// finish stops feeding, drains the fleet, and returns the delivery
// counts.
func (h *harness) finish() (map[string]int, map[[2]uint64]int) {
	close(h.stopFeed)
	<-h.feedDone
	h.fl.Close()
	<-h.consDone
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.counts, h.shardGen
}

// delivered returns how many reports shard/gen has delivered so far.
func (h *harness) delivered(shard int, gen uint64) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.shardGen[[2]uint64{uint64(shard), gen}]
}

// healthSnapshot scrapes the fleet health endpoint the way an operator
// would and decodes it.
func healthSnapshot(fl *Fleet) (FleetStats, []byte, error) {
	rec := httptest.NewRecorder()
	obs.JSONHandler(func() any { return fl.Stats() }).ServeHTTP(rec, httptest.NewRequest("GET", "/fleet", nil))
	var st FleetStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return FleetStats{}, nil, err
	}
	return st, rec.Body.Bytes(), nil
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// requireUnique asserts no verdict was delivered twice.
func requireUnique(t *testing.T, counts map[string]int) {
	t.Helper()
	for name, n := range counts {
		if n != 1 {
			t.Fatalf("verdict for %q delivered %d times", name, n)
		}
	}
}

// TestFleetSingleShardServes: N=1 is the plain engine behind the fleet
// facade — every corpus program comes back exactly once, stamped shard
// 0 gen 0.
func TestFleetSingleShardServes(t *testing.T) {
	f := getFixture(t)
	tmpl := engineTemplate(f)
	tmpl.QueueDepth = len(f.programs)
	fl, err := New(f.rhmd, Config{Shards: 1, Engine: tmpl})
	if err != nil {
		t.Fatal(err)
	}
	fl.Start(context.Background())
	go func() {
		for _, p := range f.programs {
			if !fl.Submit(clone(p, "one")) {
				t.Errorf("submit of %q shed with roomy queue", p.Name)
			}
		}
		fl.Close()
	}()
	got := 0
	for rep := range fl.Results() {
		if rep.Shard != 0 || rep.ShardGen != 0 {
			t.Fatalf("single-shard report stamped shard %d gen %d", rep.Shard, rep.ShardGen)
		}
		got++
	}
	if got != len(f.programs) {
		t.Fatalf("%d reports for %d programs", got, len(f.programs))
	}
	st := fl.Stats()
	if st.Serving != 1 || st.Shards != 1 || st.Health[0].Delivered != uint64(got) {
		t.Fatalf("fleet stats after drain: %+v", st)
	}
}
