package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var testSpecs = []metricSpec{
	{Name: "verdicts_per_s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Better: "lower", Bound: 0.25},
}

// runOf is a correct run with the two test metrics.
func runOf(vps, lat float64) *result {
	r := &result{Correct: true, Metrics: map[string]struct {
		Value float64 `json:"value"`
	}{}}
	set := func(name string, v float64) {
		m := r.Metrics[name]
		m.Value = v
		r.Metrics[name] = m
	}
	set("verdicts_per_s", vps)
	set("latency_p50_ms", lat)
	return r
}

// pairsOf builds pairs from parallel parent and change throughputs, with
// a constant latency.
func pairsOf(parent, change []float64) []pair {
	ps := make([]pair, len(parent))
	for i := range parent {
		ps[i] = pair{seed: uint64(i + 1), parent: runOf(parent[i], 1), change: runOf(change[i], 1)}
	}
	return ps
}

func TestJudgeRule(t *testing.T) {
	base := []float64{1000, 1010, 990, 1005, 995, 1000}
	cases := []struct {
		name       string
		parent     []float64
		change     []float64
		regressed  bool
		unresolved bool
	}{
		{"identical", base, base, false, false},
		{"gain", base, []float64{1500, 1510, 1490, 1505, 1495, 1500}, false, false},
		{"40% loss in every pair", base, []float64{600, 606, 594, 603, 597, 600}, true, false},
		{"loss inside the bound", base, []float64{800, 808, 792, 804, 796, 800}, false, false},
		// Worse in exactly half the pairs is not a majority, however far
		// the median moves.
		{"worse in half the pairs", base, []float64{100, 100, 100, 2000, 2000, 2000}, false, false},
		{"worse in four of six", base, []float64{100, 100, 100, 100, 2000, 2000}, true, false},
		// The parent spreads wider than the bound: a shift past the bound
		// but inside its interquartile range passes, and is reported as
		// unresolved rather than unchanged.
		{"shift inside a wide IQR", []float64{400, 1600, 500, 1500, 1000, 1000}, []float64{390, 1590, 490, 1490, 650, 650}, false, true},
		{"wide IQR, shift inside the bound", []float64{400, 1600, 500, 1500, 1000, 1000}, []float64{390, 1590, 490, 1490, 800, 800}, false, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v, err := judge(testSpecs, pairsOf(c.parent, c.change))
			if err != nil {
				t.Fatal(err)
			}
			if got := v.rows[0].regressed; got != c.regressed {
				t.Fatalf("verdicts_per_s regressed=%t, want %t (row %+v)", got, c.regressed, v.rows[0])
			}
			if got := v.rows[0].unresolved; got != c.unresolved {
				t.Fatalf("verdicts_per_s unresolved=%t, want %t (row %+v)", got, c.unresolved, v.rows[0])
			}
			if v.rows[1].regressed {
				t.Fatalf("unchanged latency regressed: %+v", v.rows[1])
			}
			if v.pass() == c.regressed {
				t.Fatalf("pass=%t with regressed=%t", v.pass(), c.regressed)
			}
		})
	}
}

func TestJudgeLowerIsBetter(t *testing.T) {
	ps := pairsOf([]float64{1000, 1000, 1000}, []float64{1000, 1000, 1000})
	for i := range ps {
		ps[i].change = runOf(1000, 1.5)
	}
	v, err := judge(testSpecs, ps)
	if err != nil {
		t.Fatal(err)
	}
	if !v.rows[1].regressed || v.rows[0].regressed {
		t.Fatalf("want only latency_p50_ms regressed: %+v", v.rows)
	}
}

func TestJudgeBrokenRuns(t *testing.T) {
	for _, c := range []struct {
		name  string
		spoil func(*result)
	}{
		{"incorrect", func(r *result) { r.Correct = false }},
		{"failed submissions", func(r *result) { r.Failed = 1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			ps := pairsOf([]float64{1000, 1000, 1000}, []float64{1000, 1000, 1000})
			c.spoil(ps[1].change)
			v, err := judge(testSpecs, ps)
			if err != nil {
				t.Fatal(err)
			}
			if v.pass() || len(v.broken) != 1 || !strings.HasPrefix(v.broken[0], "change 2:") {
				t.Fatalf("want one broken change run at seed 2: pass=%t broken=%q", v.pass(), v.broken)
			}
		})
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.75); got != 7 {
		t.Errorf("quantile of one value = %v, want 7", got)
	}
}

const okLine = `{"correct":true,"attempted":10,"failed":0,"metrics":{"verdicts_per_s":{"value":1000,"unit":"1/s"},"latency_p50_ms":{"value":1,"unit":"ms"},"alloc_kb_per_verdict":{"value":70,"unit":"KiB"},"heap_peak_mb":{"value":0.6,"unit":"MiB"},"setup_s":{"value":0.2,"unit":"s"}}}`

// gate runs the command on BENCHMARK.json and one file holding body.
func gate(t *testing.T, body string) (int, string, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ab.txt")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"../../BENCHMARK.json", path}, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestRunExitCodes(t *testing.T) {
	incorrect := strings.Replace(okLine, `"correct":true`, `"correct":false`, 1)
	noSetup := strings.Replace(okLine, `,"setup_s":{"value":0.2,"unit":"s"}`, "", 1)
	cases := []struct {
		name string
		body string
		code int
		msg  string
	}{
		{"pass", "parent 1 " + okLine + "\nchange 1 " + okLine + "\n", 0, ""},
		{"incorrect run", "parent 1 " + okLine + "\nchange 1 " + incorrect + "\n", 1, "broken run: change 1"},
		{"unpaired seed", "parent 1 " + okLine + "\nchange 1 " + okLine + "\nparent 2 " + okLine + "\n", 2, "seed 2 is unpaired"},
		{"duplicate side", "parent 1 " + okLine + "\nparent 1 " + okLine + "\nchange 1 " + okLine + "\n", 2, "second parent run"},
		{"missing metric", "parent 1 " + okLine + "\nchange 1 " + noSetup + "\n", 2, "lacks metric setup_s"},
		{"unknown side", "base 1 " + okLine + "\n", 2, "neither parent nor change"},
		{"bad seed", "parent x " + okLine + "\n", 2, "seed"},
		{"no runs", "\n", 2, "no runs"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := gate(t, c.body)
			if code != c.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, c.code, stdout, stderr)
			}
			if !strings.Contains(stdout+stderr, c.msg) {
				t.Fatalf("output lacks %q\nstdout:\n%s\nstderr:\n%s", c.msg, stdout, stderr)
			}
		})
	}
	var stderr bytes.Buffer
	if code := run([]string{"../../BENCHMARK.json"}, &bytes.Buffer{}, &stderr); code != 2 {
		t.Fatalf("no A/B file: exit %d, want 2", code)
	}
}

// reversed swaps the parent and change labels of an A/B file.
func reversed(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "parent "):
			lines[i] = "change " + strings.TrimPrefix(l, "parent ")
		case strings.HasPrefix(l, "change "):
			lines[i] = "parent " + strings.TrimPrefix(l, "change ")
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// regressedIn lists the metrics a report's table marks REGRESSED.
func regressedIn(report string) []string {
	var out []string
	for _, l := range strings.Split(report, "\n") {
		if strings.HasSuffix(l, "| REGRESSED |") {
			out = append(out, strings.TrimSpace(strings.Split(l, "|")[1]))
		}
	}
	return out
}

// TestCommittedABRuns pins the rule on the A/B runs committed under
// results/perfbench. As recorded, every file passes. With parent and
// change swapped, the files that record a gain fail on the metric that
// gained, and the serving-path files, which record none, still pass.
func TestCommittedABRuns(t *testing.T) {
	cases := []struct {
		file string
		// mustRegress names a metric the reversed file must fail on; ""
		// means the reversed file passes.
		mustRegress string
	}{
		{"ab-repeat-long-seeds201-210.txt", "verdicts_per_s"},
		{"ab-short-durable-seeds201-210.txt", "alloc_kb_per_verdict"},
		{"ab-unique-adversary-fleet-seeds201-210.txt", "alloc_kb_per_verdict"},
		{"setup-ab-repeat-long-seeds501-510.txt", "setup_s"},
		{"setup-ab-short-durable-seeds601-604.txt", "setup_s"},
		{"setup-ab-unique-adversary-fleet-seeds701-704.txt", "setup_s"},
		{"serving-path-ab-final-repeat-long-seeds1651-1653.txt", ""},
		{"serving-path-ab-final-short-durable-seeds1661-1663.txt", ""},
		{"serving-path-ab-final-unique-adversary-fleet-seeds1641-1650.txt", ""},
		{"serving-path-ab-repeat-long-seeds1621-1630.txt", ""},
		{"serving-path-ab-short-durable-seeds1631-1640.txt", ""},
		{"serving-path-ab-unique-adversary-fleet-seeds1601-1616.txt", ""},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			path := filepath.Join("../../results/perfbench", c.file)
			var stdout, stderr bytes.Buffer
			if code := run([]string{"../../BENCHMARK.json", path}, &stdout, &stderr); code != 0 {
				t.Fatalf("as recorded: exit %d, want 0\n%s%s", code, stdout.String(), stderr.String())
			}
			code, report, errs := gate(t, reversed(t, path))
			regressed := regressedIn(report)
			if c.mustRegress == "" {
				if code != 0 {
					t.Fatalf("reversed: exit %d, want 0\n%s%s", code, report, errs)
				}
				return
			}
			if code != 1 || !contains(regressed, c.mustRegress) {
				t.Fatalf("reversed: exit %d with %v regressed, want exit 1 naming %s\n%s%s", code, regressed, c.mustRegress, report, errs)
			}
		})
	}
	// The headline gain of the kernel PR, reversed, reads 804 → 440.
	_, report, _ := gate(t, reversed(t, "../../results/perfbench/ab-repeat-long-seeds201-210.txt"))
	if want := "| verdicts_per_s | higher | 803.7 | 439.7 | 10/10 |"; !strings.Contains(report, want) {
		t.Fatalf("reversed ab-repeat-long report lacks %q:\n%s", want, report)
	}
}

// TestCalibrationRuns pins the rule on the gate's committed
// calibration: 20 A/A tries (both sides the same commit) and 20 tries
// against a build with a spin planted in feature extraction, each
// recorded in perfgate-calibration.txt with the exit status and the
// failed metrics the script printed. Judging the committed lines again
// must give the same status and metrics, and every planted try must
// fail on repeat-long's verdicts_per_s.
func TestCalibrationRuns(t *testing.T) {
	const dir = "../../results/perfbench/"
	b, err := os.ReadFile(dir + "perfgate-calibration.txt")
	if err != nil {
		t.Fatal(err)
	}
	tries := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		kind, try, exit, failed := f[0], f[1], f[2], f[len(f)-1]
		tries[kind]++
		code, regressed := 0, []string{}
		for _, w := range []string{"repeat-long", "short-durable"} {
			var out, stderr bytes.Buffer
			path := dir + "perfgate-" + kind + "-" + try + "-" + w + ".txt"
			switch c := run([]string{"../../BENCHMARK.json", path}, &out, &stderr); c {
			case 0:
			case 1:
				code = 1
			default:
				t.Fatalf("%s: exit %d\n%s", path, c, stderr.String())
			}
			for _, m := range regressedIn(out.String()) {
				regressed = append(regressed, w+"/"+m)
			}
		}
		got := "failed=-"
		if len(regressed) > 0 {
			got = "failed=" + strings.Join(regressed, ",")
		}
		if want := fmt.Sprintf("exit=%d", code); exit != want || failed != got {
			t.Errorf("%s %s: judged %s %s, recorded %s %s", kind, try, want, got, exit, failed)
		}
		if kind == "planted" && !contains(regressed, "repeat-long/verdicts_per_s") {
			t.Errorf("planted %s passed repeat-long verdicts_per_s: %s", try, failed)
		}
	}
	if tries["aa"] != 20 || tries["planted"] != 20 {
		t.Fatalf("%v tries recorded, want 20 of each", tries)
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
