package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"orcf/internal/core"
)

// options is one run's command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    float64
	dir      string
	ops      int // the run's fixed op count, derived from seconds by run
}

// scaled shrinks a fleet size or warm-up length for -scale smoke runs, never
// below floor.
func (o options) scaled(v, floor int) int {
	return max(floor, int(math.Round(float64(v)*o.scale)))
}

// workload is one closed loop: a single caller issues op i+1 only after op i
// returned.
type workload interface {
	// setup generates the inputs from the seed, builds the system and warms
	// it up to the point where the first timed op can run.
	setup() error
	// op runs one timed operation, recording spans when tr is non-nil.
	op(i int, tr *tracer) error
	// check runs off the clock after every spec.checkEvery-th op: it samples the
	// forecast error and verifies outputs, returning how many checks failed.
	// In a traced run it also times the calls that are not part of an op.
	check(i int, tr *tracer) int
	// finish verifies the final outputs.
	finish() report
	// layers adds the workload's per-layer metrics after a traced run.
	layers(tr *tracer, ops int, m map[string]float64) error
	close()
}

const (
	setupRepeats = 3
	segments     = 10
)

// report is what a workload knows at the end of its timed section.
type report struct {
	digest   uint64  // final assignments + centroids
	rmse     float64 // h=5 per-node forecast error
	txFreq   float64 // mean realised transmission frequency
	heapBase uint64  // live heap once the inputs existed, before the system
	failed   int     // final output checks that failed
	notes    []string
}

// pipeline is what every workload keeps about the core.System it drives.
type pipeline struct {
	in     *inputs
	last   *core.StepResult
	rmse   rmseAcc
	phases *phaseTimes   // traced run only
	stored storedSamples // traced run only
	base   uint64        // live heap once the inputs existed, before the system
}

func newPipeline(o options) pipeline {
	if o.trace {
		return pipeline{phases: new(phaseTimes)}
	}
	return pipeline{}
}

// sample is the off-clock check of the workloads that hold the System: it
// scores a forecast made when row lastRow was the newest one consumed, and in
// a traced run records the store and times the calls no op makes.
func (p *pipeline) sample(sys *core.System, lastRow int, tr *tracer) int {
	f, err := sys.Forecast(rmseHorizon)
	if err != nil {
		return 1
	}
	p.rmse.sample(p.in, lastRow, f)
	return p.probe(sys, tr)
}

// probe is the traced run's part of a check.
func (p *pipeline) probe(sys *core.System, tr *tracer) int {
	if tr == nil {
		return 0
	}
	p.stored.add(sys.Stored())
	return probeCore(sys, tr)
}

// report starts a workload's final report with what the System knows.
func (p *pipeline) report(sys *core.System) report {
	r := report{rmse: p.rmse.value(), txFreq: sys.MeanFrequency(), heapBase: p.base}
	if p.last == nil {
		r.failed++
		return r
	}
	r.digest = digestStep(p.last)
	return r
}

// spec is a workload's frozen definition.
type spec struct {
	name string
	// opsPerSecond is the op rate of the 2-core reference box; the fixed op
	// count of a run is this times -seconds, so a run of the benchmark's
	// run_seconds lasts about that long there and does the same work
	// everywhere.
	opsPerSecond float64
	// tail is the percentile latency_tail_ms takes in each segment of the
	// timed section, chosen so that at run_seconds the segments together
	// hold at least twenty samples beyond it.
	tail float64
	// checkEvery is how many ops pass between off-clock checks: every 50th
	// step or round, which is every second epoch of zoo_durable.
	checkEvery int
	new        func(o options, rep int) workload
}

var specs = []spec{
	{"step_scalar", 1350, 0.95, 50, func(o options, _ int) workload { return newStep(o, false) }},
	{"step_joint_d4", 250, 0.95, 50, func(o options, _ int) workload { return newStep(o, true) }},
	{"zoo_durable", 15, 0.90, 2, newZoo},
	{"ingest_serve", 72, 0.95, 10, newIngest},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// allocBytes is the cumulative heap allocation, read without stopping the
// world.
func allocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// liveHeap forces a collection and returns the bytes that survived it. It
// collects twice because a sync.Pool (encoding/json keeps its buffers in one)
// gives up its contents only at the second collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// run executes one workload and returns its result line.
func run(o options, log func(format string, args ...any)) (*result, error) {
	sp, ok := findSpec(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	ops := max(2, int(math.Round(sp.opsPerSecond*o.seconds)))
	repeats := setupRepeats
	if o.trace {
		ops, repeats = max(2, ops/2), 1
	}
	o.ops = ops

	host, err := newHostProbe()
	if err != nil {
		return nil, fmt.Errorf("mapping the host probe's buffer: %w", err)
	}
	defer host.close()

	// Set-up runs several times so that setup_s is a median; the last
	// instance is the one that gets measured. Each is scaled by the host's
	// slowdown just before and after it (see host.go).
	var w workload
	var setups, rawSetups []float64
	for rep := 0; rep < repeats; rep++ {
		if w != nil {
			w.close()
		}
		runtime.GC()
		slow := host.slowdown()
		t0 := time.Now()
		w = sp.new(o, rep)
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("%s set-up: %w", sp.name, err)
		}
		d := time.Since(t0).Seconds()
		slow = (slow + host.slowdown()) / 2
		setups, rawSetups = append(setups, d/slow), append(rawSetups, d)
	}
	defer w.close()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// The timed section is cut into equal segments and the timing metrics
	// are medians over them, so that a stall of the machine (another tenant,
	// a burst of collections) moves a segment, not the result. The host's
	// slowdown is sampled at every segment boundary.
	segs := min(segments, ops)
	lat := make([]float64, 0, ops) // ms
	onCPU := make([]float64, 0, segs+1)
	slowAt := make([]float64, 0, segs+1)
	var tracedSec, plainSec float64
	failed := 0
	var offCPU, offAlloc float64
	runtime.GC()
	cpu0, alloc0 := cpuSeconds(), allocBytes()
	boundary := func() {
		c := cpuSeconds()
		slowAt = append(slowAt, host.slowdown())
		offCPU += cpuSeconds() - c
		onCPU = append(onCPU, cpuSeconds()-cpu0-offCPU)
	}
	for i := 0; i < ops; i++ {
		if i == len(onCPU)*ops/segs {
			boundary()
		}
		// A traced run records every other op, so that the same process
		// yields the traced and the untraced cost of an op.
		var opTr *tracer
		if i%2 == 1 {
			opTr = tr
		}
		t0 := time.Now()
		root := opTr.begin("op")
		err := w.op(i, opTr)
		opTr.end(root)
		d := time.Since(t0).Seconds()
		lat = append(lat, d*1e3)
		if opTr != nil {
			tracedSec += d
		} else {
			plainSec += d
		}
		if err != nil {
			failed++
			log("op %d failed: %v", i, err)
		}
		if (i+1)%sp.checkEvery == 0 || i == ops-1 {
			c, a := cpuSeconds(), allocBytes()
			failed += w.check(i, tr)
			offCPU += cpuSeconds() - c
			offAlloc += allocBytes() - a
		}
	}
	boundary()
	alloc := allocBytes() - alloc0 - offAlloc
	heap := liveHeap()
	rep := w.finish()
	for _, n := range rep.notes {
		log("%s", n)
	}
	failed += rep.failed
	log("%s seed=%d ops=%d digest=%016x", sp.name, o.seed, ops, rep.digest)

	res := &result{Correct: failed == 0, Attempted: ops, Failed: min(failed, ops), digest: rep.digest}
	if !o.trace {
		rate, cpu, tail := make([]float64, segs), make([]float64, segs), make([]float64, segs)
		slow, rawRate := make([]float64, segs), make([]float64, segs)
		for k := range rate {
			lo, hi := k*ops/segs, (k+1)*ops/segs
			slow[k] = (slowAt[k] + slowAt[k+1]) / 2
			var ms float64
			for i := lo; i < hi; i++ {
				ms += lat[i]
				lat[i] /= slow[k]
			}
			n := float64(hi - lo)
			rawRate[k] = n / ms * 1e3
			rate[k] = rawRate[k] * slow[k]
			cpu[k] = (onCPU[k+1] - onCPU[k]) * 1e3 / n / slow[k]
			tail[k] = percentile(sortedCopy(lat[lo:hi]), sp.tail)
		}
		log("host slowdown per segment: %.3g", slow)
		log("raw: setup_s %.4g  ops_per_s %.5g (median of segments)  host slowdown %.3g (median)",
			median(rawSetups), median(rawRate), median(slow))
		res.Metrics, err = fill(endToEnd, map[string]float64{
			"setup_s":         median(setups),
			"ops_per_s":       median(rate),
			"latency_p50_ms":  median(lat),
			"latency_tail_ms": median(tail),
			"cpu_ms_per_op":   median(cpu),
			"alloc_kb_per_op": alloc / 1e3 / float64(ops),
			"heap_live_mb":    (float64(heap) - float64(rep.heapBase)) / 1e6,
			"rmse":            rep.rmse,
			"tx_freq":         rep.txFreq,
		})
		return res, err
	}

	m := map[string]float64{
		"bench.spans":         float64(len(tr.spans)),
		"bench.host_slowdown": median(slowAt),
		"bench.tx_freq_err":   math.Abs(rep.txFreq - budget),
		"bench.failed_ratio":  float64(res.Failed) / float64(ops),
	}
	if plainSec > 0 && tracedSec > 0 {
		m["bench.trace_overhead_ratio"] = (tracedSec / float64(ops/2)) / (plainSec / float64(ops-ops/2))
	}
	if err := w.layers(tr, ops, m); err != nil {
		return nil, fmt.Errorf("%s per-layer probes: %w", sp.name, err)
	}
	logSelfTimes(tr, log)
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	path := fmt.Sprintf("%s/spans-%s.json", o.dir, sp.name)
	if err := tr.write(path); err != nil {
		return nil, err
	}
	log("%d spans written to %s", len(tr.spans), path)
	res.Metrics, err = fill(perLayer, m)
	return res, err
}

// logSelfTimes prints where an op's time went: each span name's self time as
// a share of the root spans' total. Spans recorded outside an op (the probes
// of check) are left out.
func logSelfTimes(tr *tracer, log func(string, ...any)) {
	totals := totalsByName(tr.spans)
	root := totals["op"]
	if root.total == 0 {
		return
	}
	names := make([]string, 0, len(totals))
	for name, t := range totals {
		if t.inOp {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		t := totals[name]
		log("self %-28s %6.2f%% of op  (%d spans, mean %.4f ms)", name,
			100*float64(t.self)/float64(root.total), t.count, t.meanMs())
	}
}

// phaseTimes is the traced run's core.Config.PhaseObserver: it sums what
// Step reports for each of its sub-phases.
type phaseTimes struct {
	sum   [core.NumStepPhases]time.Duration
	steps int
}

func (p *phaseTimes) ObserveStepPhase(phase core.StepPhase, d time.Duration) {
	p.sum[phase] += d
	if phase == core.PhasePublish {
		p.steps++
	}
}

// reset forgets the warm-up steps, which are not part of the means.
func (p *phaseTimes) reset() {
	if p != nil {
		*p = phaseTimes{}
	}
}

// addTo reports the mean of each phase over the observed steps.
func (p *phaseTimes) addTo(m map[string]float64) {
	if p == nil || p.steps == 0 {
		return
	}
	for ph := 0; ph < core.NumStepPhases; ph++ {
		m["core.phase_"+core.StepPhase(ph).String()+"_ms"] =
			float64(p.sum[ph]) / float64(p.steps) / 1e6
	}
}

// observer returns p as a PhaseObserver, or a nil interface for a nil p so
// that the untraced run keeps Step free of clock reads.
func (p *phaseTimes) observer() core.PhaseObserver {
	if p == nil {
		return nil
	}
	return p
}
