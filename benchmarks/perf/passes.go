package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"xbgas/internal/bench"
	"xbgas/internal/core"
	"xbgas/internal/obs"
	"xbgas/internal/xbrtime"
)

// runner is a workload set up on one runtime configuration. The three
// passes of a run each get their own runner: lockstep, free-running
// with observability off, free-running with it on.
type runner interface {
	// lockstep runs the fixed-count pass and returns the virtual-clock
	// numbers and exact counts.
	lockstep(cycles int, corrupt func(pe *xbrtime.PE, ci int)) (lockResult, error)
	// timed runs batches for at least d (and at least minBatches) and
	// returns the host-clock numbers. With spans, PE 0 records a span
	// per batch and per call.
	timed(d time.Duration, minBatches int, spans *spanLog) (timedResult, error)
	// autoOverBest runs every auto call once per pinned planner, in
	// lockstep, and returns the worst auto÷best ratio.
	autoOverBest() (autoResult, error)
}

type lockResult struct {
	ops, failed int       // every op the pass made, checked cycles included
	measuredOps int       // ops inside the counted loop
	makespan    uint64    // virtual cycles of the counted loop
	cellCycles  []uint64  // [cell] summed completion intervals over the loop
	cellOps     int       // calls per cell in the loop
	samplesUs   []float64 // host wall us per op, one sample per mix cycle (kernel run)
	counts      simCounts
	// Kernel workloads only: summed bench.Result fields over the loop.
	kernelOps, verifyErrors uint64
}

type timedResult struct {
	ops, failed int // every op the pass made, checked cycles included
	timedOps    int // ops inside the timed loop
	samplesUs   []float64
	host        hostSnap // delta over the timed loop
	simCycles   uint64   // free-running virtual cycles of the timed loop
}

type autoResult struct {
	ratio       float64
	ops, failed int
	notes       []string // per auto cell: what auto resolved to, and the best pinned planner
}

// newRunner is the set-up step for either kind of workload.
func newRunner(o *oracle, deterministic bool, rec *obs.Recorder) (runner, error) {
	if o.w.kernel() != "" {
		k := &kernEnv{w: o.w, deterministic: deterministic, rec: rec}
		// One warm-up run fills the process-wide plan and decision caches.
		if _, err := k.run(""); err != nil {
			return nil, err
		}
		return k, nil
	}
	return newCollEnv(o, deterministic, rec)
}

// ---- collective workloads ----

func (e *collEnv) failures() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.failed)
}

func (e *collEnv) lockstep(cycles int, corrupt func(pe *xbrtime.PE, ci int)) (lockResult, error) {
	nc := len(e.w.cells)
	res := lockResult{measuredOps: cycles * nc, cellOps: cycles, cellCycles: make([]uint64, nc)}
	h := &opHooks{corrupt: corrupt}
	if err := e.rt.Run(func(pe *xbrtime.PE) error { return e.checkedCycle(pe, 0, 0, h) }); err != nil {
		return res, err
	}
	// The counted loop is closed: no harness barrier or poison between
	// calls, so the counts are the collectives' own. Outputs are still
	// compared with the oracle after every call.
	log := newClockLog(e.w.pes, (cycles+1)*nc)
	hm := &opHooks{clocks: log, corrupt: corrupt}
	before, c0 := snapshot(e.rt), e.rt.MaxClock()
	err := e.rt.Run(func(pe *xbrtime.PE) error {
		last := time.Now()
		for cyc := 1; cyc <= cycles; cyc++ {
			if err := e.cycle(pe, cyc, cyc*nc, true, hm); err != nil {
				return err
			}
			if pe.MyPE() == 0 {
				now := time.Now()
				res.samplesUs = append(res.samplesUs, float64(now.Sub(last))/1e3/float64(nc))
				last = now
			}
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	res.makespan = e.rt.MaxClock() - c0
	res.counts = snapshot(e.rt).sub(before)
	for cyc := 1; cyc <= cycles; cyc++ {
		for ci := range e.w.cells {
			res.cellCycles[ci] += log.span(cyc*nc + ci)
		}
	}
	last := cycles + 1
	if err := e.rt.Run(func(pe *xbrtime.PE) error { return e.checkedCycle(pe, last, last*nc, h) }); err != nil {
		return res, err
	}
	res.ops, res.failed = (cycles+2)*nc, e.failures()
	return res, nil
}

func (e *collEnv) timed(d time.Duration, minBatches int, spans *spanLog) (timedResult, error) {
	nc := len(e.w.cells)
	opsPerBatch := e.w.batchCycles * nc
	failedBefore := e.failures()
	var res timedResult
	var stop atomic.Bool
	err := e.rt.Run(func(pe *xbrtime.PE) error {
		lead := pe.MyPE() == 0
		h := &opHooks{spans: spans, parent: -1}
		if err := e.checkedCycle(pe, 0, 0, h); err != nil {
			return err
		}
		var t0, last time.Time
		var h0 hostSnap
		var c0 uint64
		if lead {
			h0, c0 = takeHostSnap(), pe.Now()
			t0 = time.Now()
			last = t0
		}
		cyc := 1
		for b := 1; ; b++ {
			if lead && spans != nil {
				h.parent = spans.begin("batch", -1)
			}
			for k := 0; k < e.w.batchCycles; k++ {
				if err := e.cycle(pe, cyc, cyc*nc, false, h); err != nil {
					return err
				}
				cyc++
			}
			// The barrier publishes PE 0's decision to stop: it is
			// stored before PE 0 arrives and read after the release.
			if lead && b >= minBatches && time.Since(t0) >= d {
				stop.Store(true)
			}
			if err := pe.Barrier(); err != nil {
				return err
			}
			if lead {
				now := time.Now()
				res.samplesUs = append(res.samplesUs, float64(now.Sub(last))/1e3/float64(opsPerBatch))
				last = now
				if spans != nil {
					spans.end(h.parent)
				}
			}
			if stop.Load() {
				break
			}
		}
		if lead {
			res.host = takeHostSnap().sub(h0)
			res.simCycles = pe.Now() - c0
			res.timedOps = (cyc - 1) * nc
			h.parent = -1
		}
		return e.checkedCycle(pe, cyc, cyc*nc, h)
	})
	res.ops = res.timedOps + 2*nc
	res.failed = e.failures() - failedBefore
	return res, err
}

// candidates lists the pinned planners a cell's call can be re-run
// with: every registered planner that implements the collective.
// scatter-allgather handles stride-1 broadcasts only.
func candidates(c *cell) []core.Algorithm {
	coll, ok := c.kind.collective()
	if !ok || c.algo != core.AlgoAuto {
		return nil
	}
	var out []core.Algorithm
	for _, name := range core.PlannerNames() {
		algo := core.Algorithm(name)
		pl, ok := core.LookupPlanner(algo)
		if !ok || !pl.Supports(coll) || (algo == core.AlgoScatterAllgather && c.stride != 1) {
			continue
		}
		out = append(out, algo)
	}
	return out
}

func (e *collEnv) autoOverBest() (autoResult, error) {
	type trial struct {
		ci   int
		algo core.Algorithm
	}
	var trials []trial
	for ci := range e.w.cells {
		if cands := candidates(&e.w.cells[ci]); len(cands) > 0 {
			trials = append(trials, trial{ci, core.AlgoAuto})
			for _, a := range cands {
				trials = append(trials, trial{ci, a})
			}
		}
	}
	res := autoResult{ops: len(trials)}
	if len(trials) == 0 {
		res.ratio = 1
		return res, nil
	}
	failedBefore := e.failures()
	log := newClockLog(e.w.pes, len(trials))
	err := e.rt.Run(func(pe *xbrtime.PE) error {
		me := pe.MyPE()
		for t, tr := range trials {
			// Every trial starts from aligned clocks and a poisoned
			// destination, so the trials of one cell differ only in
			// the planner. A cell keeps one root through its trials: a
			// ring broadcast that follows one from another root on the
			// same runtime returns stale data (see README, known gaps).
			if err := pe.Barrier(); err != nil {
				return err
			}
			e.poison(pe, tr.ci)
			if err := pe.Barrier(); err != nil {
				return err
			}
			root := e.o.root(tr.ci, 0)
			log.start[me][t] = pe.Now()
			err := e.call(pe, tr.ci, root, tr.algo)
			log.end[me][t] = pe.Now()
			if err != nil {
				return fmt.Errorf("%s with %s: %w", e.w.cells[tr.ci].name, tr.algo, err)
			}
			if !e.verify(pe, tr.ci, root) {
				e.markFailed(-1 - t)
			}
		}
		return pe.Barrier()
	})
	if err != nil {
		return res, err
	}
	res.failed = e.failures() - failedBefore
	for t := 0; t < len(trials); {
		ci := trials[t].ci
		auto := log.span(t)
		best, bestAlgo := uint64(0), core.Algorithm("")
		for t++; t < len(trials) && trials[t].ci == ci; t++ {
			if s := log.span(t); bestAlgo == "" || s < best {
				best, bestAlgo = s, trials[t].algo
			}
		}
		res.ratio = max(res.ratio, float64(auto)/float64(best))
		c := &e.w.cells[ci]
		res.notes = append(res.notes, fmt.Sprintf("%s: auto -> %s %d cycles; best pinned %s %d cycles",
			c.name, e.resolvedPlanner(c), auto, bestAlgo, best))
	}
	return res, nil
}

// resolvedPlanner names the planner a cell's call runs on this runtime.
func (e *collEnv) resolvedPlanner(c *cell) core.Algorithm {
	coll, ok := c.kind.collective()
	if !ok {
		return ""
	}
	return c.algo.SelectFor(coll, e.w.pes, c.nelems, dtI64.Width, e.shape())
}

// shape is the planner shape of the runtime's topology, as the entry
// points derive it.
func (e *collEnv) shape() core.Shape { return core.Shape{PerNode: e.rt.PE(0).PEsPerNode()} }

// ---- kernel workloads ----

// kernEnv runs one bench kernel per op; the kernel builds and drops
// its own runtime, so construction is part of every op.
type kernEnv struct {
	w             *workload
	deterministic bool
	rec           *obs.Recorder
}

func (k *kernEnv) run(algo core.Algorithm) (bench.Result, error) {
	cfg := xbrtime.Config{Deterministic: k.deterministic, Obs: k.rec}
	if k.w.gups != nil {
		p := *k.w.gups
		p.Algo, p.Runtime = algo, cfg
		return bench.RunGUPS(p, k.w.pes)
	}
	p := *k.w.is
	p.Algo, p.Runtime = algo, cfg
	return bench.RunIS(p, k.w.pes)
}

func (k *kernEnv) lockstep(cycles int, _ func(*xbrtime.PE, int)) (lockResult, error) {
	res := lockResult{ops: cycles, measuredOps: cycles}
	runsBefore := 0
	if k.rec != nil {
		runsBefore = len(k.rec.Runs())
	}
	for i := 0; i < cycles; i++ {
		t0 := time.Now()
		r, err := k.run("")
		if err != nil {
			return res, err
		}
		res.samplesUs = append(res.samplesUs, float64(time.Since(t0))/1e3)
		if !r.Verified {
			res.failed++
		}
		res.makespan += r.Cycles
		res.kernelOps += r.Ops
		res.verifyErrors += r.Errors
		res.counts.msgs += r.Messages
		res.counts.bytes += r.Bytes
		res.counts.contention += r.ContentionCycles
	}
	if k.rec != nil {
		// The kernel hides its runtime; the recorder's metric half is
		// the only public view of its put/get/barrier counts.
		for _, run := range k.rec.Runs()[runsBefore:] {
			if m := run.ClusterMetrics(); m != nil {
				res.counts.puts += m.Puts.Value()
				res.counts.gets += m.Gets.Value()
				res.counts.putElems += m.PutElems.Value()
				res.counts.getElems += m.GetElems.Value()
				res.counts.barriers += m.Barriers.Value()
			}
			if fm := run.FabricMetrics(); fm != nil {
				res.counts.intraMsgs += fm.ClassMsgs[0].Value()
			}
		}
	}
	return res, nil
}

func (k *kernEnv) timed(d time.Duration, minBatches int, spans *spanLog) (timedResult, error) {
	var res timedResult
	h0 := takeHostSnap()
	t0 := time.Now()
	last := t0
	for b := 1; ; b++ {
		batch := -1
		if spans != nil {
			batch = spans.begin("batch", -1)
		}
		for i := 0; i < k.w.batchCycles; i++ {
			sp := -1
			if spans != nil {
				sp = spans.begin(k.w.kernel(), batch)
			}
			r, err := k.run("")
			if sp >= 0 {
				spans.end(sp)
			}
			if err != nil {
				return res, err
			}
			if !r.Verified {
				res.failed++
			}
			res.simCycles += r.Cycles
			res.timedOps++
		}
		now := time.Now()
		res.samplesUs = append(res.samplesUs, float64(now.Sub(last))/1e3/float64(k.w.batchCycles))
		last = now
		if batch >= 0 {
			spans.end(batch)
		}
		if b >= minBatches && now.Sub(t0) >= d {
			break
		}
	}
	res.host = takeHostSnap().sub(h0)
	res.ops = res.timedOps
	return res, nil
}

// kernelCollectives are the collectives each kernel calls with its
// Algo parameter; a planner implementing none of them cannot change it.
var kernelCollectives = map[string][]core.Collective{
	"gups": {core.CollBroadcast, core.CollReduce},
	"is":   {core.CollBroadcast, core.CollReduce, core.CollGather},
}

func (k *kernEnv) autoOverBest() (autoResult, error) {
	res := autoResult{ratio: 1}
	auto, err := k.run(core.AlgoAuto)
	if err != nil {
		return res, err
	}
	res.ops++
	if !auto.Verified {
		res.failed++
	}
	var best uint64
	var bestAlgo core.Algorithm
	for _, name := range core.PlannerNames() {
		algo := core.Algorithm(name)
		pl, _ := core.LookupPlanner(algo)
		applies := false
		for _, coll := range kernelCollectives[k.w.kernel()] {
			applies = applies || pl.Supports(coll)
		}
		if !applies {
			continue
		}
		r, err := k.run(algo)
		if err != nil {
			return res, fmt.Errorf("%s with %s: %w", k.w.kernel(), algo, err)
		}
		res.ops++
		if !r.Verified {
			res.failed++
		}
		if bestAlgo == "" || r.Cycles < best {
			best, bestAlgo = r.Cycles, algo
		}
	}
	res.ratio = float64(auto.Cycles) / float64(best)
	res.notes = []string{fmt.Sprintf("%s: auto %d cycles; best pinned %s %d cycles", k.w.kernel(), auto.Cycles, bestAlgo, best)}
	return res, nil
}
