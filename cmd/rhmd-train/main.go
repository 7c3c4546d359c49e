// Command rhmd-train builds a corpus, trains a single HMD detector or an
// RHMD pool, and reports held-out detection quality — the quick-start
// path for trying the library's detectors without the full experiment
// suite.
//
// Usage:
//
//	rhmd-train -algo lr -feature instructions -period 2000
//	rhmd-train -rhmd -periods 2000,1000
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"rhmd/internal/checkpoint"
	"rhmd/internal/core"
	"rhmd/internal/dataset"
	"rhmd/internal/features"
	"rhmd/internal/hmd"
	"rhmd/internal/prog"
)

func main() {
	algo := flag.String("algo", "lr", "classifier: lr, nn, dt, svm")
	feature := flag.String("feature", "instructions", "feature kind: instructions, memory, architectural")
	period := flag.Int("period", 2000, "collection period")
	seed := flag.Uint64("seed", 42, "corpus/training seed")
	benign := flag.Int("benign", 10, "benign programs per family")
	malware := flag.Int("malware", 16, "malware programs per family")
	traceLen := flag.Int("len", 80_000, "trace length per program")
	rhmdMode := flag.Bool("rhmd", false, "train a randomized RHMD over all three features")
	periods := flag.String("periods", "", "comma-separated RHMD periods (default: the -period value)")
	saveTo := flag.String("save", "", "write the trained detector/RHMD as JSON to this file")
	loadFrom := flag.String("load", "", "load a single detector from JSON instead of training")
	flag.Parse()

	cfg := dataset.Config{BenignPerFamily: *benign, MalwarePerFamily: *malware, TraceLen: *traceLen, Seed: *seed}
	corpus, err := dataset.Build(cfg)
	check(err)
	groups, err := corpus.Split([]float64{0.7, 0.3}, *seed+1)
	check(err)
	train, test := groups[0], groups[1]
	fmt.Printf("corpus: %d programs, train %d / test %d\n", len(corpus.Programs), len(train), len(test))

	if *rhmdMode {
		ps := []int{*period}
		if *periods != "" {
			ps = nil
			for _, s := range strings.Split(*periods, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(s))
				check(err)
				ps = append(ps, v)
			}
		}
		data, err := dataset.ExtractWindows(train, ps, *traceLen)
		check(err)
		specs := core.PoolSpecs(features.AllKinds(), ps, "lr")
		pool, err := core.TrainPool(specs, data, *seed+2)
		check(err)
		r, err := core.New(pool, *seed+3)
		check(err)
		fmt.Printf("trained %s\n", r)
		if *saveTo != "" {
			var buf bytes.Buffer
			check(core.SaveRHMD(&buf, r))
			check(checkpoint.WriteSealed(*saveTo, buf.Bytes()))
			fmt.Printf("saved RHMD to %s\n", *saveTo)
		}

		correct, tp, fn, fp, tn := 0, 0, 0, 0, 0
		for _, p := range test {
			got, err := r.DetectTraced(p, *traceLen)
			check(err)
			isMal := p.Label == prog.Malware
			if got == isMal {
				correct++
			}
			switch {
			case got && isMal:
				tp++
			case !got && isMal:
				fn++
			case got && !isMal:
				fp++
			default:
				tn++
			}
		}
		fmt.Printf("program-level accuracy %.3f (tp=%d fn=%d fp=%d tn=%d)\n",
			float64(correct)/float64(len(test)), tp, fn, fp, tn)
		rep, err := core.Diversity(pool, r.Probs, test, *traceLen)
		check(err)
		fmt.Printf("pool diversity: lower RE bound %.3f, baseline error %.3f\n",
			rep.LowerBound, rep.BaselineError)
		return
	}

	var d *hmd.Detector
	if *loadFrom != "" {
		data, err := checkpoint.ReadSealed(*loadFrom)
		check(err)
		d, err = hmd.Load(bytes.NewReader(data))
		check(err)
		fmt.Printf("loaded %s from %s\n", d.Spec, *loadFrom)
	} else {
		kind, err := features.ParseKind(*feature)
		check(err)
		spec := hmd.Spec{Kind: kind, Period: *period, Algo: *algo}
		trainW, err := dataset.ExtractWindows(train, []int{*period}, *traceLen)
		check(err)
		d, err = hmd.Train(spec, trainW[*period].Get(kind), *seed+2)
		check(err)
	}
	if *saveTo != "" {
		var buf bytes.Buffer
		check(hmd.Save(&buf, d))
		check(checkpoint.WriteSealed(*saveTo, buf.Bytes()))
		fmt.Printf("saved detector to %s\n", *saveTo)
	}
	testW, err := dataset.ExtractWindows(test, []int{d.Spec.Period}, *traceLen)
	check(err)
	ev, err := d.Evaluate(testW[d.Spec.Period].Get(d.Spec.Kind))
	check(err)
	fmt.Printf("detector %s: held-out AUC %.3f, best accuracy %.3f\n", d.Spec, ev.AUC, ev.Accuracy)
	fmt.Printf("at trained threshold %.3f: sensitivity %.3f, specificity %.3f (%s)\n",
		d.Threshold, ev.Confusion.Sensitivity(), ev.Confusion.Specificity(), ev.Confusion)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
