// Command rhmd-perfgate judges a perfbench A/B run. It reads the
// end-to-end metrics of BENCHMARK.json and one file per workload of
// "parent|change <seed> <json>" lines, where <json> is the result line
// of `perfbench --trace 0` and both sides of a pair ran at the pair's
// seed. scripts/perfgate.sh writes these files; so were the A/B files
// under results/perfbench/.
//
// Usage:
//
//	rhmd-perfgate BENCHMARK.json FILE...
//
// It prints one Markdown table per file and exits
//
//	0  the change passes on every file
//	1  some run is incorrect or has failed submissions, or some metric
//	   regressed (see judge for the rule)
//	2  usage: bad arguments, a malformed line, an unpaired seed or a
//	   metric missing from a run
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is perfbench's result line.
type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// pair is the parent and change run at one seed.
type pair struct {
	seed           uint64
	parent, change *result
}

// row is the judgement of one metric over a file's pairs.
type row struct {
	metric    string
	better    string
	parentMed float64
	changeMed float64
	worse     int     // pairs in which the change is strictly worse
	iqr       float64 // interquartile range of the parent's values
	threshold float64 // max(iqr, bound × parent median): the shift that counts
	regressed bool
	// unresolved marks a row that passes only because the parent spreads
	// wider than the bound: the median moved by more than the bound but
	// not by more than the parent's IQR.
	unresolved bool
}

// verdict is the judgement of one file.
type verdict struct {
	pairs  int
	broken []string // runs that were incorrect or had failed submissions
	rows   []row
}

func (v verdict) pass() bool {
	if len(v.broken) > 0 {
		return false
	}
	for _, r := range v.rows {
		if r.regressed {
			return false
		}
	}
	return true
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 2 {
		fmt.Fprintln(stderr, "usage: rhmd-perfgate BENCHMARK.json FILE...")
		return 2
	}
	specs, err := loadSpecs(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "rhmd-perfgate: %v\n", err)
		return 2
	}
	verdicts := make([]verdict, len(args)-1)
	for i, path := range args[1:] {
		pairs, err := loadPairs(path)
		if err == nil {
			verdicts[i], err = judge(specs, pairs)
		}
		if err != nil {
			fmt.Fprintf(stderr, "rhmd-perfgate: %s: %v\n", path, err)
			return 2
		}
	}
	code := 0
	for i, v := range verdicts {
		report(stdout, filepath.Base(args[i+1]), v)
		if !v.pass() {
			code = 1
		}
	}
	return code
}

func loadSpecs(path string) ([]metricSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	for _, m := range doc.EndToEnd {
		if (m.Better != "higher" && m.Better != "lower") || m.Bound <= 0 {
			return nil, fmt.Errorf("%s: metric %q needs better higher|lower and a positive bound", path, m.Name)
		}
	}
	return doc.EndToEnd, nil
}

func loadPairs(path string) ([]pair, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(bytes.NewReader(b))
}

// parse reads "parent|change <seed> <json>" lines into pairs ordered by
// seed. Every seed must have exactly one line of each side.
func parse(r io.Reader) ([]pair, error) {
	bySeed := map[uint64]*pair{}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.SplitN(line, " ", 3)
		if len(fields) != 3 {
			return nil, fmt.Errorf("line %d: want \"parent|change <seed> <json>\"", n)
		}
		seed, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: seed: %w", n, err)
		}
		res := new(result)
		if err := json.Unmarshal([]byte(fields[2]), res); err != nil {
			return nil, fmt.Errorf("line %d: %w", n, err)
		}
		p := bySeed[seed]
		if p == nil {
			p = &pair{seed: seed}
			bySeed[seed] = p
		}
		var side **result
		switch fields[0] {
		case "parent":
			side = &p.parent
		case "change":
			side = &p.change
		default:
			return nil, fmt.Errorf("line %d: side %q is neither parent nor change", n, fields[0])
		}
		if *side != nil {
			return nil, fmt.Errorf("line %d: second %s run at seed %d", n, fields[0], seed)
		}
		*side = res
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	pairs := make([]pair, 0, len(bySeed))
	for _, p := range bySeed {
		if p.parent == nil || p.change == nil {
			return nil, fmt.Errorf("seed %d is unpaired", p.seed)
		}
		pairs = append(pairs, *p)
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("no runs")
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].seed < pairs[j].seed })
	return pairs, nil
}

// judge applies the gate's rule to one workload's pairs. The change
// fails when any run is incorrect or has failed submissions. It also fails
// on a metric when both hold:
//
//   - the change is strictly worse than the parent in more than half
//     the pairs;
//   - its median is worse than the parent's by more than the parent's
//     interquartile range and by more than the metric's bound times the
//     parent's median.
//
// A metric missing from any run is an error.
func judge(specs []metricSpec, pairs []pair) (verdict, error) {
	v := verdict{pairs: len(pairs)}
	for _, p := range pairs {
		for _, s := range []struct {
			name string
			r    *result
		}{{"parent", p.parent}, {"change", p.change}} {
			if !s.r.Correct || s.r.Failed > 0 {
				v.broken = append(v.broken, fmt.Sprintf("%s %d: correct=%t failed=%d", s.name, p.seed, s.r.Correct, s.r.Failed))
			}
		}
	}
	for _, m := range specs {
		// sign turns "worse" into "larger" for both directions.
		sign := 1.0
		if m.Better == "higher" {
			sign = -1
		}
		par := make([]float64, len(pairs))
		chg := make([]float64, len(pairs))
		r := row{metric: m.Name, better: m.Better}
		for i, p := range pairs {
			pm, ok1 := p.parent.Metrics[m.Name]
			cm, ok2 := p.change.Metrics[m.Name]
			if !ok1 || !ok2 {
				return verdict{}, fmt.Errorf("seed %d lacks metric %s", p.seed, m.Name)
			}
			par[i], chg[i] = pm.Value, cm.Value
			if sign*(cm.Value-pm.Value) > 0 {
				r.worse++
			}
		}
		sort.Float64s(par)
		sort.Float64s(chg)
		r.parentMed, r.changeMed = quantile(par, 0.5), quantile(chg, 0.5)
		r.iqr = quantile(par, 0.75) - quantile(par, 0.25)
		r.threshold = math.Max(r.iqr, m.Bound*math.Abs(r.parentMed))
		shift := sign * (r.changeMed - r.parentMed)
		r.regressed = 2*r.worse > len(pairs) && shift > r.threshold
		bound := m.Bound * math.Abs(r.parentMed)
		r.unresolved = !r.regressed && r.iqr > bound && shift > bound
		v.rows = append(v.rows, r)
	}
	return v, nil
}

// quantile interpolates linearly between the order statistics of
// sorted, which must not be empty.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo == len(sorted)-1 {
		return sorted[lo]
	}
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*(pos-float64(lo))
}

// report writes one file's verdict as a Markdown table.
func report(w io.Writer, name string, v verdict) {
	status := "pass"
	if !v.pass() {
		status = "FAIL"
	}
	fmt.Fprintf(w, "### %s: %d pairs, %s\n\n", name, v.pairs, status)
	for _, b := range v.broken {
		fmt.Fprintf(w, "- broken run: %s\n", b)
	}
	if len(v.broken) > 0 {
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "| metric | better | parent median | change median | change worse | parent IQR | threshold | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	for _, r := range v.rows {
		mark := "ok"
		switch {
		case r.regressed:
			mark = "REGRESSED"
		case r.unresolved:
			mark = "unresolved"
		}
		fmt.Fprintf(w, "| %s | %s | %.4g | %.4g | %d/%d | %.4g | %.4g | %s |\n",
			r.metric, r.better, r.parentMed, r.changeMed, r.worse, v.pairs, r.iqr, r.threshold, mark)
	}
	fmt.Fprintln(w)
}
