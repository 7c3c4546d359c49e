package benchrunner

import (
	"encoding/json"
	"os"
	"testing"

	"rhmd/internal/scenario"
)

// tinySpec is a fast single-engine scenario for tests: small corpus,
// few events, no pacing.
func tinySpec(seed uint64) scenario.Spec {
	return scenario.Spec{
		Name:   "tiny",
		Seed:   seed,
		Events: 12,
		Engine: scenario.EngineSpec{Workers: 4},
	}
}

func runTiny(t *testing.T) *Report {
	t.Helper()
	rep, err := Run(tinySpec(7), Options{OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRunEngineReport(t *testing.T) {
	rep := runTiny(t)
	if rep.Schema != SchemaVersion {
		t.Fatalf("schema %q", rep.Schema)
	}
	if rep.Scenario != "tiny" || rep.Events != 12 {
		t.Fatalf("identity: %+v", rep)
	}
	if rep.Counters.Processed != 12 || rep.Counters.Shed != 0 {
		t.Fatalf("counters: %+v", rep.Counters)
	}
	if rep.ThroughputPerSec <= 0 || rep.WallSeconds <= 0 {
		t.Fatalf("throughput %v over %vs", rep.ThroughputPerSec, rep.WallSeconds)
	}
	if rep.AllocsPerOp == 0 || rep.BytesPerOp == 0 {
		t.Fatalf("alloc accounting empty: %+v", rep)
	}
	if rep.Fingerprint == "" || rep.GoVersion == "" {
		t.Fatalf("provenance missing: %+v", rep)
	}
	// Exact percentiles cover every verdict; histogram percentiles come
	// from the engine's verdict-latency buckets and must be in the same
	// ballpark (the histogram estimate is upper-bounded by bucket width).
	ex, hist := rep.Latency.Exact, rep.Latency.Histogram
	if ex == nil || ex.Samples != 12 || ex.P50ms <= 0 || ex.P95ms < ex.P50ms {
		t.Fatalf("exact latency: %+v", ex)
	}
	if hist == nil || hist.Samples != 12 || hist.P50ms <= 0 {
		t.Fatalf("histogram latency: %+v", hist)
	}
}

func TestRunFleetReport(t *testing.T) {
	spec := tinySpec(7)
	spec.Name = "tiny-fleet"
	spec.Engine.Shards = 2
	spec.Engine.Workers = 2
	rep, err := Run(spec, Options{OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shards != 2 {
		t.Fatalf("shards %d", rep.Shards)
	}
	if rep.Counters.Processed != 12 {
		t.Fatalf("processed %d, want 12", rep.Counters.Processed)
	}
	if rep.Latency.Exact == nil || rep.Latency.Exact.Samples != 12 {
		t.Fatalf("exact latency: %+v", rep.Latency.Exact)
	}
	// Shard engines register in the fleet registry: the histogram block
	// covers every shard's verdicts.
	if hist := rep.Latency.Histogram; hist == nil || hist.Samples != 12 || hist.P50ms <= 0 {
		t.Fatalf("fleet histogram latency: %+v", hist)
	}
}

func TestRunProfileCapture(t *testing.T) {
	dir := t.TempDir()
	rep, err := Run(tinySpec(7), Options{OutDir: dir, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Profiles == nil {
		t.Fatal("no profiles block")
	}
	for _, p := range []string{rep.Profiles.CPU, rep.Profiles.Heap} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rep := runTiny(t)
	path, err := rep.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	if path != Path(dir, "tiny") {
		t.Fatalf("wrote to %s", path)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint != rep.Fingerprint || back.Counters.Processed != rep.Counters.Processed {
		t.Fatalf("round trip drifted: %+v vs %+v", back, rep)
	}

	// A report from a different schema version must be refused.
	raw, _ := os.ReadFile(path)
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc["schema"] = "rhmd.bench/v0"
	buf, _ := json.Marshal(doc)
	bad := dir + "/bad.json"
	if err := os.WriteFile(bad, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Fatal("Load accepted a mismatched schema")
	}
}

// The acceptance criterion: a doctored baseline whose throughput is 10%
// above the measured run must fail the gate; an honest baseline must
// pass it.
func TestCompareRegressionGate(t *testing.T) {
	rep := runTiny(t)

	honest := *rep
	cmp := Compare(rep, &honest, 0.10)
	if cmp.Failed() {
		t.Fatalf("self-comparison failed the gate: %v", cmp.Regressions)
	}

	doctored := *rep
	doctored.ThroughputPerSec = rep.ThroughputPerSec * 1.2
	cmp = Compare(rep, &doctored, 0.10)
	if !cmp.Failed() {
		t.Fatal("20%-inflated baseline passed the 10% gate")
	}

	// Just inside the threshold: no regression.
	near := *rep
	near.ThroughputPerSec = rep.ThroughputPerSec * 1.05
	cmp = Compare(rep, &near, 0.10)
	if cmp.Failed() {
		t.Fatalf("5%% delta failed the 10%% gate: %v", cmp.Regressions)
	}

	// Mismatched fingerprints note, not fail.
	other := *rep
	other.Fingerprint = "deadbeef"
	cmp = Compare(rep, &other, 0.10)
	if cmp.Failed() {
		t.Fatalf("fingerprint mismatch failed the gate: %v", cmp.Regressions)
	}
	if len(cmp.Notes) == 0 {
		t.Fatal("fingerprint mismatch not noted")
	}
}

// Shedding must be visible in the report: a one-worker engine with a
// tiny queue and a burst shape drops submissions, and processed + shed
// accounts for every event.
func TestRunShedAccounting(t *testing.T) {
	spec := scenario.Spec{
		Name:   "shed",
		Seed:   7,
		Events: 24,
		Shape:  scenario.Shape{Kind: scenario.Burst, BurstLen: 24},
		Engine: scenario.EngineSpec{Workers: 1, QueueDepth: 2},
	}
	rep, err := Run(spec, Options{OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Counters.Processed + rep.Counters.Shed; got != 24 {
		t.Fatalf("processed %d + shed %d = %d, want 24",
			rep.Counters.Processed, rep.Counters.Shed, got)
	}
	if rep.Counters.Shed == 0 {
		t.Fatal("expected shedding on a depth-2 queue under a 24-deep burst")
	}
	if rep.Latency.Exact == nil || rep.Latency.Exact.Samples != rep.Counters.Processed {
		t.Fatalf("latency samples %+v, want %d", rep.Latency.Exact, rep.Counters.Processed)
	}
}
