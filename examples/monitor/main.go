// Online monitoring under fire: deploy the paper's six-detector RHMD
// behind the fault-tolerant serving engine, stream a corpus through it
// while two base detectors misbehave, and watch the pool degrade
// gracefully — quarantine, renormalize, classify on, and restore the
// detector that recovers (§7: the RHMD's accuracy is the average of its
// live base pool, so losing a member costs accuracy, not availability).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"rhmd/internal/core"
	"rhmd/internal/dataset"
	"rhmd/internal/features"
	"rhmd/internal/monitor"
	"rhmd/internal/prog"
)

func main() {
	// Train the six-detector pool: {instructions, memory, architectural}
	// × {2000, 1000}, exactly examples/resilient's deployment.
	cfg := dataset.Config{BenignPerFamily: 10, MalwarePerFamily: 14, TraceLen: 80_000, Seed: 21}
	corpus, err := dataset.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	groups, err := corpus.Split([]float64{0.7, 0.3}, 22)
	if err != nil {
		log.Fatal(err)
	}
	train, live := groups[0], groups[1]
	periods := []int{2000, 1000}
	data, err := dataset.ExtractWindows(train, periods, cfg.TraceLen)
	if err != nil {
		log.Fatal(err)
	}
	specs := core.PoolSpecs(features.AllKinds(), periods, "lr")
	pool, err := core.TrainPool(specs, data, 1)
	if err != nil {
		log.Fatal(err)
	}
	rhmd, err := core.New(pool, 0xC0FFEE)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed %s\n\n", rhmd)

	// Sabotage two base detectors: detector 1 fails hard and stays down,
	// detector 4 panics/stalls for its first 10 windows, then recovers.
	deadline := 25 * time.Millisecond
	inj := monitor.NewInjector(7)
	inj.SetProfile(1, monitor.Profile{ErrorRate: 1})
	inj.SetProfile(4, monitor.Profile{PanicRate: 0.5, LatencyRate: 0.5, Latency: 8 * deadline, Until: 10})
	fmt.Println("injected faults: detector 1 errors forever; detector 4 panics/stalls, recovers after 10 windows")

	eng, err := monitor.New(rhmd, monitor.Config{
		Workers:        2,
		QueueDepth:     len(live),
		TraceLen:       cfg.TraceLen,
		WindowDeadline: deadline,
		ProbeAfter:     32,
		Injector:       inj,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng.Start(context.Background())
	go func() {
		for _, p := range live {
			eng.Submit(p)
		}
		eng.Close()
	}()

	correct, total := 0, 0
	for rep := range eng.Results() {
		if rep.Err != nil {
			log.Fatal(rep.Err)
		}
		total++
		if rep.Malware == (rep.Label == prog.Malware) {
			correct++
		}
	}

	st := eng.Stats()
	fmt.Printf("\nsurvived the stream:\n%s", st)
	fmt.Printf("verdict accuracy under faults: %.1f%% (%d/%d)\n\n",
		100*float64(correct)/float64(total), correct, total)

	fmt.Println("what happened:")
	fmt.Printf("  - every window accounted for: %d classified + %d dropped, 0 lost\n",
		st.Windows, st.DroppedWindows)
	fmt.Printf("  - %d quarantines pulled the faulty detectors; switching weights\n", st.Quarantines)
	fmt.Println("    renormalized over the survivors (graceful degradation, §7)")
	fmt.Printf("  - %d half-open probe restored the recovered detector to the pool\n", st.Restores)
}
