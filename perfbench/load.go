package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"rhmd/internal/prog"
	"rhmd/internal/scenario"
)

// The measured phase is cut into equal slices of at most sliceSpan,
// each preceded by a drain and a settled GC, so no slice pays for the
// garbage or backlog of the one before.
//
// An open loop of unique programs also compiles its corpus slice by
// slice, between slices, and holds one chunk at a time: a program is
// ~18 KB of live heap, and marking a larger pre-generated corpus slows
// the serving goroutines enough to set the latency tail (a 1,000-program
// chunk, 19 MB, sent the p99 from 8 ms to 30 ms on some runs). That cost
// comes from pre-generating inputs, not from the system under test.
const sliceSpan = 2 * time.Second

// submission is one program handed to the engine and its outcome. It
// keeps no pointer to the program, so a finished chunk can be freed.
type submission struct {
	key       progKey
	malwareGT bool // ground-truth label
	evasive   bool
	instrs    int // static program size
	base      time.Time
	done      time.Time
	shed      bool
	delivered bool
	failed    bool // delivered with Report.Err set
	malware   bool
}

// driver issues load from one goroutine and matches verdicts to
// submissions on another.
type driver struct {
	run runner
	// free holds one entry per closed-loop slot not in use, stamped with
	// the time it was freed; nil in an open loop.
	free chan time.Time

	mu       sync.Mutex
	subs     []submission
	inflight map[string][]int // program name → indices into subs awaiting a verdict
	stray    int              // verdicts that matched no submission

	outstanding atomic.Int64
	collected   chan struct{}
}

func newDriver(run runner, slots int) *driver {
	d := &driver{
		run:       run,
		inflight:  map[string][]int{},
		collected: make(chan struct{}),
	}
	if slots > 0 {
		d.free = make(chan time.Time, slots)
		for i := 0; i < slots; i++ {
			d.free <- time.Time{}
		}
	}
	return d
}

func (d *driver) start(ctx context.Context) {
	d.run.Start(ctx)
	go d.collect()
}

// collect consumes the result stream until the engine closes it.
func (d *driver) collect() {
	defer close(d.collected)
	for r := range d.run.Results() {
		now := time.Now()
		d.mu.Lock()
		q := d.inflight[r.Program]
		if len(q) == 0 {
			d.stray++
			d.mu.Unlock()
			continue
		}
		if len(q) == 1 {
			delete(d.inflight, r.Program)
		} else {
			d.inflight[r.Program] = q[1:]
		}
		s := &d.subs[q[0]]
		s.done, s.delivered, s.failed, s.malware = now, true, r.Err != nil, r.Malware
		d.mu.Unlock()
		d.release()
	}
}

func (d *driver) release() {
	d.outstanding.Add(-1)
	if d.free != nil {
		d.free <- time.Now()
	}
}

// submit registers the submission before handing it over, since its
// verdict can arrive before Submit returns.
func (d *driver) submit(e *scenario.Event, base time.Time) {
	p := e.Program
	d.mu.Lock()
	i := len(d.subs)
	d.subs = append(d.subs, submission{key: keyOf(p), malwareGT: p.Label == prog.Malware, evasive: e.Evasive,
		instrs: p.StaticInstructions(), base: base})
	d.inflight[p.Name] = append(d.inflight[p.Name], i)
	d.mu.Unlock()
	d.outstanding.Add(1)
	if d.run.Submit(p) {
		return
	}
	d.mu.Lock()
	q := d.inflight[p.Name]
	for k, j := range q {
		if j == i {
			q = append(q[:k], q[k+1:]...)
			break
		}
	}
	if len(q) == 0 {
		delete(d.inflight, p.Name)
	} else {
		d.inflight[p.Name] = q
	}
	d.subs[i].shed = true
	d.mu.Unlock()
	d.release()
}

// mark returns the index the next submission will get.
func (d *driver) mark() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.subs)
}

// closedLoop keeps cap(free) submissions outstanding for dur, cycling
// events from index next. It returns the next unused index, the phase's
// start, and how long each submission left after its slot was freed (or
// the phase began), in ms.
func (d *driver) closedLoop(events []scenario.Event, next int, dur time.Duration) (int, time.Time, []float64) {
	t0 := time.Now()
	stop := time.NewTimer(dur)
	defer stop.Stop()
	var late []float64
	for {
		var freed time.Time
		select {
		case freed = <-d.free:
		case <-stop.C:
			return next, t0, late
		}
		now := time.Now()
		late = append(late, ms(now.Sub(later(freed, t0))))
		d.submit(&events[next%len(events)], now)
		next++
	}
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// openLoop submits events at absolute due times t0 + k·gap, so
// oversleeping one gap does not delay the rest of the schedule. It
// returns t0 and how late each submission left, in ms.
func (d *driver) openLoop(events []scenario.Event, gap time.Duration) (time.Time, []float64) {
	t0 := time.Now()
	late := make([]float64, 0, len(events))
	for k := range events {
		due := t0.Add(time.Duration(k) * gap)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		late = append(late, ms(time.Since(due)))
		d.submit(&events[k], due)
	}
	return t0, late
}

// drain waits until no submission is outstanding or timeout passes (a
// withheld undurable verdict never arrives).
func (d *driver) drain(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for d.outstanding.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// finish closes the engine and waits for its result stream to end.
func (d *driver) finish(timeout time.Duration) error {
	d.run.Close()
	select {
	case <-d.collected:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("result stream still open %v after Close", timeout)
	}
}

// heldMB is the heap the system keeps, such as a cache: live after a
// full GC once the run has drained, less the driver's own submission
// log. It waits out the engine's per-window deadline timers first, which
// hold their memory until they fire, so it does not swing with the
// throughput of the last windowDeadline. Per-verdict garbage is what
// alloc_kb_per_verdict counts.
func (d *driver) heldMB() float64 {
	time.Sleep(windowDeadline + 100*time.Millisecond)
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	d.mu.Lock()
	own := uint64(cap(d.subs)) * uint64(unsafe.Sizeof(submission{}))
	d.mu.Unlock()
	return float64(m.HeapAlloc-min(own, m.HeapAlloc)) / (1 << 20)
}

// poller samples a value on a ticker in its own goroutine and keeps the
// maximum.
type poller struct {
	stop, done chan struct{}
	max        uint64
}

func startPoller(every time.Duration, read func() uint64) *poller {
	p := &poller{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if v := read(); v > p.max {
				p.max = v
			}
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// Stop ends the poller and returns the maximum it saw.
func (p *poller) Stop() uint64 {
	close(p.stop)
	<-p.done
	return p.max
}

// outcome is one measured phase, reduced.
type outcome struct {
	attempted, shed, delivered, errs, missing, mismatched int

	// vps pools every measured slice; p50Ms and p99Ms are medians over
	// the slices of each slice's percentile. Latency runs from due time
	// (open loop) or send time (closed loop) to delivery, over latN
	// samples.
	vps, p50Ms, p99Ms float64
	latN              int
	genLateMs         []float64 // behind due time (open loop) or slot release (closed loop)
	accuracy          float64
	evasive           int
	evasiveHit        int
	allocKB           float64
	heapPeakMB        float64
	depthMax          uint64
	repeatShare       float64
	evasiveShare      float64
	meanInstrs        float64
	distinct          int
}

func (o *outcome) failed() int { return o.shed + o.errs + o.missing + o.mismatched }

// slice is one measured stretch: submissions [first, end) and the time
// deliveries are counted over.
type slice struct {
	first, end int
	t0, t1     time.Time
}

// drive runs a warm-up and the measured phase against a fresh stack,
// checks every verdict against ref (extending it for each further
// open-loop chunk) and reduces the measured phase. poll, when non-nil,
// is sampled every millisecond while measuring.
func (w workload) drive(sys *system, ref map[progKey]bool, warm, dur time.Duration, poll func() uint64) (*outcome, error) {
	slots := 0
	if w.rate == 0 {
		slots = 2 * nproc()
	}
	d := newDriver(sys.run, slots)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d.start(ctx)

	o := &outcome{}
	var alloc uint64
	var measured []slice
	measure := func(run func() slice) {
		d.drain(10 * time.Second)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var depth *poller
		if poll != nil {
			depth = startPoller(time.Millisecond, poll)
		}
		s := run()
		d.drain(30 * time.Second)
		if depth != nil {
			o.depthMax = max(o.depthMax, depth.Stop())
		}
		runtime.ReadMemStats(&m1)
		alloc += m1.TotalAlloc - m0.TotalAlloc
		measured = append(measured, s)
	}

	events := sys.corpus.Events
	slices := w.slices(dur)
	if w.rate == 0 {
		next, _, _ := d.closedLoop(events, 0, warm)
		per := dur / time.Duration(slices)
		for c := 0; c < slices; c++ {
			measure(func() slice {
				first := d.mark()
				var t0 time.Time
				var late []float64
				next, t0, late = d.closedLoop(events, next, per)
				o.genLateMs = append(o.genLateMs, late...)
				return slice{first: first, end: d.mark(), t0: t0, t1: t0.Add(per)}
			})
		}
	} else {
		gap := time.Duration(float64(time.Second) / w.rate)
		warmN := w.warmEvents(warm)
		d.openLoop(events[:warmN], gap)
		for c := 0; c < slices; c++ {
			part := events[warmN:]
			if c > 0 {
				next, err := w.compile(sys.seed, c, slices, w.sliceEvents(dur))
				if err != nil {
					return nil, err
				}
				if err := reference(ref, sys.pool, next.Events, w.traceLen); err != nil {
					return nil, err
				}
				part = next.Events
			}
			measure(func() slice {
				first := d.mark()
				t0, late := d.openLoop(part, gap)
				o.genLateMs = append(o.genLateMs, late...)
				return slice{first: first, end: d.mark(), t0: t0}
			})
		}
	}
	o.heapPeakMB = d.heldMB()
	if err := d.finish(60 * time.Second); err != nil {
		return nil, err
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stray > 0 {
		return nil, fmt.Errorf("%d verdicts matched no submission", d.stray)
	}
	seen := map[progKey]bool{}
	for _, s := range d.subs[:measured[0].first] {
		seen[s.key] = true
	}
	var p50, p99 []float64
	var counted int
	var measuredFor time.Duration
	correct, repeats, evasive, instrs := 0, 0, 0, 0
	for _, sl := range measured {
		last := sl.t0
		var lat []float64
		for _, s := range d.subs[sl.first:sl.end] {
			o.attempted++
			if seen[s.key] {
				repeats++
			}
			seen[s.key] = true
			instrs += s.instrs
			if s.evasive {
				evasive++
			}
			switch {
			case s.shed:
				o.shed++
				continue
			case !s.delivered:
				o.missing++
				continue
			case s.failed:
				o.errs++
				continue
			}
			o.delivered++
			lat = append(lat, ms(s.done.Sub(s.base)))
			if sl.t1.IsZero() || !s.done.After(sl.t1) {
				counted++
			}
			if s.done.After(last) {
				last = s.done
			}
			if s.malware != ref[s.key] {
				o.mismatched++
			}
			if s.malware == s.malwareGT {
				correct++
			}
			if s.evasive {
				o.evasive++
				if s.malware {
					o.evasiveHit++
				}
			}
		}
		if sl.t1.IsZero() {
			sl.t1 = last // open loop: the slice ends with its last verdict
		}
		measuredFor += sl.t1.Sub(sl.t0)
		p50 = append(p50, quantile(lat, 0.50))
		p99 = append(p99, quantile(lat, 0.99))
		o.latN += len(lat)
	}
	o.vps = ratio(float64(counted), measuredFor.Seconds())
	o.p50Ms, o.p99Ms = median(p50), median(p99)
	o.accuracy = ratio(float64(correct), float64(o.delivered))
	o.allocKB = ratio(float64(alloc)/1024, float64(o.delivered))
	o.repeatShare = ratio(float64(repeats), float64(o.attempted))
	o.evasiveShare = ratio(float64(evasive), float64(o.attempted))
	o.meanInstrs = ratio(float64(instrs), float64(o.attempted))
	o.distinct = len(seen)
	return o, nil
}

// slices is how many slices a measured phase of dur is cut into.
func (w workload) slices(dur time.Duration) int {
	return max(1, int(math.Ceil(float64(dur)/float64(sliceSpan))))
}

// sliceEvents is the number of submissions per open-loop slice.
func (w workload) sliceEvents(dur time.Duration) int {
	return int(math.Ceil(dur.Seconds() * w.rate / float64(w.slices(dur))))
}

// warmEvents is the number of open-loop warm-up submissions.
func (w workload) warmEvents(warm time.Duration) int { return int(warm.Seconds() * w.rate) }
