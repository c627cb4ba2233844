package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"xbgas/internal/core"
	"xbgas/internal/obs"
	"xbgas/internal/xbrtime"
)

// options are one run's inputs: the driver's four flags plus what the
// self-test overrides.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	outDir  string // trace files go here; "" writes none

	// Self-test knobs; zero values are the benchmark's own settings.
	lockCycles int     // overrides workload.lockCycles
	setups     int     // least timed set-ups per run (default 3)
	setupFor   float64 // keep setting up until this many seconds are spent (default 1)
	probeReps  float64 // scales probe repetitions (default 1)
	corrupt    func(pe *xbrtime.PE, ci int)
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run of one workload reports. The last line of
// standard output is its JSON form.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	notes []string
	// pprofCoverage is the share of CPU samples whose leaf function a
	// layer bucket claimed (traced runs only).
	pprofCoverage float64
}

func (r *runResult) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *runResult) count(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

// fill turns a value map into the reported metrics: every name of defs
// appears exactly once, reading 0 where this workload does not measure it.
func (r *runResult) fill(defs []metricDef, vals map[string]float64) error {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{v, d.Unit}
		delete(vals, d.Name)
	}
	for name := range vals {
		return fmt.Errorf("metric %s is not declared", name)
	}
	r.Correct = r.Failed == 0
	return nil
}

func (o options) withDefaults(w *workload) options {
	if o.lockCycles == 0 {
		o.lockCycles = w.lockCycles
	}
	if o.setups == 0 {
		o.setups = 3
	}
	if o.setupFor == 0 {
		o.setupFor = 1
	}
	if o.probeReps == 0 {
		o.probeReps = 1
	}
	return o
}

// maxSetups caps the set-up repetitions of one run.
const maxSetups = 25

// lowerQuartile is the statistic every host wall figure reports. On a
// shared machine interference only ever adds time, so the samples are
// skewed to the right and their lower quartile repeats from run to run
// about three times better than their median (which the traced run
// reports beside the p90).
func lowerQuartile(samples []float64) float64 { return quantile(samples, 0.25) }

// hostWall is the wall figure of a timed pass. A rooted mix costs a
// different amount from each root, and the roots rotate with the cycle,
// so the samples of a pass are a few interleaved populations (one per
// root phase; the phases repeat every `period` samples). The lower
// quartile is taken within each population and the populations are
// averaged; with too few samples for that, over all of them.
func hostWall(samples []float64, period int) float64 {
	if period <= 1 || len(samples) < 4*period {
		return lowerQuartile(samples)
	}
	sum := 0.0
	for phase := 0; phase < period; phase++ {
		var population []float64
		for i := phase; i < len(samples); i += period {
			population = append(population, samples[i])
		}
		sum += lowerQuartile(population)
	}
	return sum / float64(period)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runEndToEnd is a --trace 0 run: the lockstep pass, the auto-over-best
// trials, set-up (timed) and the timed pass, all with observability off.
func runEndToEnd(w *workload, opt options) (*runResult, error) {
	opt = opt.withDefaults(w)
	res := &runResult{}
	orc := newOracle(w, opt.seed)

	// One runtime is alive at a time, and each is dropped and collected
	// before the next is built: the process's peak RSS is then that of
	// its largest phase and not an accident of when the collector ran.
	lock, err := newRunner(orc, true, nil)
	if err != nil {
		return nil, fmt.Errorf("lockstep set-up: %w", err)
	}
	lr, err := lock.lockstep(opt.lockCycles, opt.corrupt)
	if err != nil {
		return nil, fmt.Errorf("lockstep pass: %w", err)
	}
	res.count(lr.ops+w.opsPerCycle(), lr.failed)
	lock = nil
	runtime.GC()

	// The planner trials get a runtime and inputs of their own, from a
	// fixed seed: the ratio is then a property of the planner choice
	// alone and reads the same whatever --seed rotated in the passes.
	trials, err := newRunner(newOracle(w, 0), true, nil)
	if err != nil {
		return nil, fmt.Errorf("planner-trial set-up: %w", err)
	}
	ar, err := trials.autoOverBest()
	if err != nil {
		return nil, fmt.Errorf("auto-over-best: %w", err)
	}
	res.count(ar.ops+w.opsPerCycle(), ar.failed)
	res.notes = append(res.notes, ar.notes...)
	trials = nil
	runtime.GC()

	// Set-up is repeated and its median reported: one sample of a step
	// that takes 3-500 ms is too noisy to hold to a bound. The plan and
	// decision caches are process-wide and already warm here.
	var free runner
	var setups []float64
	for spent := 0.0; len(setups) < opt.setups || (spent < opt.setupFor && len(setups) < maxSetups); {
		free = nil
		runtime.GC()
		t0 := time.Now()
		r, err := newRunner(orc, false, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
		free = r
	}
	res.count(len(setups)*w.opsPerCycle(), 0) // the warm-up calls

	tr, err := free.timed(seconds(opt.seconds), 3, nil)
	if err != nil {
		return nil, fmt.Errorf("timed pass: %w", err)
	}
	res.count(tr.ops, tr.failed)

	res.note("ops: %d set-ups, lockstep %d, timed %d in %d samples (us/op p10 %.3f p25 %.3f p50 %.3f p75 %.3f p90 %.3f), %.2f allocs/op",
		len(setups), lr.measuredOps, tr.timedOps, len(tr.samplesUs), quantile(tr.samplesUs, 0.1), quantile(tr.samplesUs, 0.25),
		median(tr.samplesUs), quantile(tr.samplesUs, 0.75), quantile(tr.samplesUs, 0.9), float64(tr.host.mallocs)/float64(tr.timedOps))
	err = res.fill(endToEnd, map[string]float64{
		"setup_s":                 median(setups),
		"sim_cycles_per_op":       float64(lr.makespan) / float64(lr.measuredOps),
		"sim_auto_over_best":      ar.ratio,
		"host_wall_us_per_op":     hostWall(tr.samplesUs, w.rootPeriod()),
		"host_cpu_us_per_op":      float64(tr.host.cpuNs) / 1e3 / float64(tr.timedOps),
		"host_lockstep_us_per_op": lowerQuartile(lr.samplesUs),
		"host_peak_rss_mib":       peakRSSMiB(),
	})
	return res, err
}

// runTraced is a --trace 1 run: a short reference timed pass, the
// lockstep pass for the exact counts, then the traced pass (harness
// spans, obs recorder, CPU profile) and the layer micro-probes.
func runTraced(w *workload, opt options) (*runResult, error) {
	opt = opt.withDefaults(w)
	res := &runResult{}
	orc := newOracle(w, opt.seed)
	vals := map[string]float64{}
	passLen := seconds(opt.seconds / 4)

	free, err := newRunner(orc, false, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ref, err := free.timed(passLen, 3, nil)
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	res.count(ref.ops+w.opsPerCycle(), ref.failed)

	// The same pass on two host threads (one on a 1-CPU machine): the
	// only place a second thread is measured.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	par, err := free.timed(passLen, 3, nil)
	runtime.GOMAXPROCS(hostThreads)
	if err != nil {
		return nil, fmt.Errorf("two-thread pass: %w", err)
	}
	res.count(par.ops, par.failed)
	period := w.rootPeriod()
	vals["goruntime.wall_2p_over_1p"] = hostWall(par.samplesUs, period) / hostWall(ref.samplesUs, period)

	// A kernel builds its runtime out of reach, so its put/get/barrier
	// counts come from a metrics-only recorder; a collective runtime's
	// counters are read directly.
	var lockRec *obs.Recorder
	if w.kernel() != "" {
		lockRec = obs.NewRecorder(obs.Options{Metrics: true})
	}
	lock, err := newRunner(orc, true, lockRec)
	if err != nil {
		return nil, fmt.Errorf("lockstep set-up: %w", err)
	}
	lr, err := lock.lockstep(opt.lockCycles, opt.corrupt)
	if err != nil {
		return nil, fmt.Errorf("lockstep pass: %w", err)
	}
	res.count(lr.ops+w.opsPerCycle(), lr.failed)
	lockCounts(vals, w, lr)
	if e, ok := lock.(*collEnv); ok {
		if err := cellModel(vals, res, e, lr); err != nil {
			return nil, err
		}
	}

	rec := obs.NewRecorder(obs.Options{Trace: true, Metrics: true})
	traced, err := newRunner(orc, false, rec)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	spans := newSpanLog()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	tr, err := traced.timed(passLen, 3, spans)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	res.count(tr.ops+w.opsPerCycle(), tr.failed)

	leaves, err := leafSamples(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	shares, coverage, unclaimed := layerShares(leaves)
	res.pprofCoverage = coverage
	if len(unclaimed) > 0 {
		res.note("profile: no layer claims %v", unclaimed)
	}
	for _, l := range layers {
		vals[l+".host_self_share"] = shares[l]
	}
	critShares(vals, rec)

	for _, c := range w.cells {
		us := spans.medianUs(c.name)
		if c.kind == opBarrier {
			vals["xbrtime.barrier64_host_us"] = us
		} else {
			vals["core."+c.name+".host_us"] = us
		}
	}
	vals["obs.trace_overhead_frac"] = hostWall(tr.samplesUs, period)/hostWall(ref.samplesUs, period) - 1
	vals["xbrtime.freerun_sim_skew"] = (float64(ref.simCycles) / float64(ref.timedOps)) /
		(float64(lr.makespan) / float64(lr.measuredOps))
	if msgs := vals["fabric.msgs_per_op"] * float64(tr.timedOps); msgs > 0 {
		vals["fabric.host_ns_per_msg"] = float64(tr.host.cpuNs) * shares["fabric"] / msgs
	}
	vals["bench.harness_self_share"] = spans.selfShare("batch")
	vals["bench.host_wall_us_p50"] = median(ref.samplesUs)
	vals["bench.host_wall_us_p90"] = quantile(ref.samplesUs, 0.9)
	vals["bench.samples"] = float64(len(ref.samplesUs))
	vals["goruntime.allocs_per_op"] = float64(ref.host.mallocs) / float64(ref.timedOps)
	vals["goruntime.alloc_bytes_per_op"] = float64(ref.host.allocBytes) / float64(ref.timedOps)
	if ref.host.cpuNs > 0 {
		vals["goruntime.gc_cpu_frac"] = ref.host.gcCPUSec / (float64(ref.host.cpuNs) / 1e9)
	}

	// The probes run after the profile stops, so the layer shares are
	// the workload's alone.
	probes := &probeSet{spans: spans, out: vals, reps: opt.probeReps}
	if err := probes.run(w); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	if w.pes == 64 {
		vals["xbrtime.rss_kib_per_pe"] = peakRSSMiB() * 1024 / float64(w.pes)
	}
	vals["bench.fail_frac"] = float64(res.Failed) / float64(res.Attempted)

	if opt.outDir != "" {
		if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := spans.write(filepath.Join(opt.outDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	tn := core.CurrentTuning()
	res.note("tuning: version %d fabric %q calibrated %q chunk override %d",
		tn.Version, tn.Fabric, tn.CalibratedAt, core.ChunkBytes())
	res.note("ops: reference %d in %d samples, lockstep %d, traced %d; %d spans; profile coverage %.3f",
		ref.timedOps, len(ref.samplesUs), lr.measuredOps, tr.timedOps, len(spans.spans), coverage)
	return res, res.fill(perLayer(), vals)
}

// lockCounts turns the lockstep pass's counter deltas into the exact
// per-op counts of every layer.
func lockCounts(vals map[string]float64, w *workload, lr lockResult) {
	ops := float64(lr.measuredOps)
	c := lr.counts
	vals["fabric.msgs_per_op"] = float64(c.msgs) / ops
	vals["fabric.bytes_per_op"] = float64(c.bytes) / ops
	vals["fabric.contention_cycles_per_op"] = float64(c.contention) / ops
	vals["fabric.intra_msg_share"] = ratio(c.intraMsgs, c.msgs)
	vals["fabric.peak_queue_cycles"] = float64(c.peakQueue)
	vals["fabric.dropped"] = float64(c.dropped)
	vals["xbrtime.puts_per_op"] = float64(c.puts) / ops
	vals["xbrtime.gets_per_op"] = float64(c.gets) / ops
	vals["xbrtime.put_elems_per_op"] = float64(c.putElems) / ops
	vals["xbrtime.get_elems_per_op"] = float64(c.getElems) / ops
	vals["xbrtime.barriers_per_op"] = float64(c.barriers) / ops
	vals["mem.accesses_per_op"] = float64(c.memAcc) / ops
	vals["mem.sim_cycles_per_op"] = float64(c.memCyc) / ops
	vals["mem.tlb_miss_ratio"] = ratio(c.tlbMiss, c.tlbHit+c.tlbMiss)
	vals["mem.l1_miss_ratio"] = ratio(c.l1Miss, c.l1Hit+c.l1Miss)
	vals["mem.l2_miss_ratio"] = ratio(c.l2Miss, c.l2Hit+c.l2Miss)
	if w.kernel() != "" && lr.makespan > 0 {
		mops := float64(lr.kernelOps) * 1e3 / float64(lr.makespan) // ops per cycle at the 1 GHz model clock
		vals["bench.sim_mops"] = mops
		vals["bench.sim_mops_per_pe"] = mops / float64(w.pes)
		vals["bench.verify_errors"] = float64(lr.verifyErrors)
	}
}

// cellModel reports every cell's lockstep cycles and the cost model's
// worst relative error against them, for the plan that ran.
func cellModel(vals map[string]float64, res *runResult, e *collEnv, lr lockResult) error {
	tn := core.CurrentTuning()
	worst := 0.0
	for ci := range e.w.cells {
		c := &e.w.cells[ci]
		measured := float64(lr.cellCycles[ci]) / float64(lr.cellOps)
		coll, ok := c.kind.collective()
		if !ok {
			vals["xbrtime.barrier64_sim_cycles"] = measured
			continue
		}
		vals["core."+c.name+".sim_cycles"] = measured
		algo := e.resolvedPlanner(c)
		seg := core.SelectSegments(coll, algo, e.w.pes, c.nelems, dtI64.Width)
		plan, err := core.CompilePlanFor(coll, algo, e.w.pes, seg, e.shape())
		if err != nil {
			return fmt.Errorf("plan for %s: %w", c.name, err)
		}
		predicted := core.PlanCostShape(plan, tn, e.shape(), c.nelems, dtI64.Width)
		relErr := math.Abs(predicted-measured) / measured
		worst = math.Max(worst, relErr)
		res.note("%s: plan %s, model %.0f vs lockstep %.0f cycles (err %.3f)", c.name, plan.Label(), predicted, measured, relErr)
	}
	vals["core.model_err_max"] = worst
	return nil
}

// critShares sums the measured critical paths of every collective call
// the recorder saw and reports each step category's share of them.
func critShares(vals map[string]float64, rec *obs.Recorder) {
	var byCat [obs.NumStepCats]uint64
	var total uint64
	for _, run := range rec.Runs() {
		for k := 0; k < run.NumCalls(); k++ {
			path, ok := run.ExtractCallPath(k)
			if !ok {
				continue
			}
			for cat, cycles := range path.ByCat() {
				byCat[cat] += cycles
				total += cycles
			}
		}
	}
	for cat, cycles := range byCat {
		vals["core.crit_"+critCats[cat]+"_share"] = ratio(cycles, total)
	}
}
