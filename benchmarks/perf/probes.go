package main

import (
	"errors"
	"fmt"
	"time"

	"xbgas/internal/core"
	"xbgas/internal/fabric"
	"xbgas/internal/mem"
	"xbgas/internal/xbrtime"
)

// Layer micro-probes: direct calls into one layer's public functions
// that replay the primitive a workload spends its time in. Each runs
// under a harness span in the traced run and yields a host figure, a
// virtual-cycle figure, or both. The host figures are noisy
// microbenchmarks; the cycle figures come from one goroutine driving
// the model (or a lockstep runtime) and repeat exactly. Probe inputs
// are fixed: they do not depend on --seed.

type probeSet struct {
	spans *spanLog
	out   map[string]float64
	reps  float64 // scales every repetition count; < 1 in the self-test
}

func (p *probeSet) n(base int) int {
	if n := int(float64(base) * p.reps); n > 1 {
		return n
	}
	return 1
}

// timed runs fn n times under one span and returns nanoseconds per call.
func (p *probeSet) timed(name string, n int, fn func()) float64 {
	sp := p.spans.begin("probe:"+name, -1)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	ns := float64(time.Since(t0)) / float64(n)
	p.spans.end(sp)
	return ns
}

// run dispatches the probes attached to a workload.
func (p *probeSet) run(w *workload) error {
	switch w.name {
	case "tree_small_8pe":
		return errors.Join(p.xbrtimeSmall(), p.barrierAndFlag(), p.planLookup())
	case "bw_move_8pe":
		p.memSequential()
		return errors.Join(p.fabricStreams(), p.xbrtimeBulk())
	case "bw_reduce_8pe":
		return errors.Join(p.elemsChunk(), p.combine())
	case "scaleout_grouped_64pe":
		return errors.Join(p.linkClasses(), p.scaleout64())
	case "gups_8pe":
		p.memRandom()
		return errors.Join(p.fabricSend(), p.xbrtimeNB())
	}
	return nil
}

// ---- mem ----

func (p *probeSet) memSequential() {
	h := mem.MustHierarchy(mem.DefaultConfig())
	const lines = elems1MiB * 8 / mem.LineSize
	h.TouchRange(xbrtime.SharedBase, mem.LineSize, mem.LineSize, lines, false, nil) // fill L2
	reps := p.n(40)
	c0 := h.Cycles()
	ns := p.timed("mem.TouchRange", reps, func() {
		h.TouchRange(xbrtime.SharedBase, mem.LineSize, mem.LineSize, lines, false, nil)
	})
	p.out["mem.touchrange_seq_host_ns_per_line"] = ns / lines
	p.out["mem.touchrange_seq_sim_cycles_per_line"] = float64(h.Cycles()-c0) / float64(reps*lines)
}

// memRandom replays GUPS's local side: 8-byte touches at random words
// of one PE's 2 MiB table slice. bench.RunGUPS hides its runtime, so
// this hierarchy's ratios also stand in for the mem.* counts on
// gups_8pe.
func (p *probeSet) memRandom() {
	h := mem.MustHierarchy(mem.DefaultConfig())
	const words = (1 << 21) / 8
	n := p.n(400000)
	x := uint64(0x2545F4914F6CDD1D)
	sp := p.spans.begin("probe:mem.Touch", -1)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		x = splitmix(x)
		h.Touch(xbrtime.SharedBase+(x%words)*8, 8, i&1 == 1)
	}
	ns := float64(time.Since(t0)) / float64(n)
	p.spans.end(sp)
	p.out["mem.touch_random_host_ns"] = ns
	p.out["mem.touch_random_sim_cycles"] = float64(h.Cycles()) / float64(n)
	p.out["mem.accesses_per_op"] = float64(h.Accesses()) / float64(n)
	p.out["mem.sim_cycles_per_op"] = float64(h.Cycles()) / float64(n)
	p.out["mem.tlb_miss_ratio"] = ratio(h.TLB().Misses(), h.TLB().Hits()+h.TLB().Misses())
	p.out["mem.l1_miss_ratio"] = ratio(h.L1().Misses(), h.L1().Hits()+h.L1().Misses())
	p.out["mem.l2_miss_ratio"] = ratio(h.L2().Misses(), h.L2().Hits()+h.L2().Misses())
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// ---- fabric ----

func (p *probeSet) fabricStreams() error {
	cfg := fabric.DefaultConfig()
	f, err := fabric.New(fabric.FullyConnected{N: 8}, cfg)
	if err != nil {
		return err
	}
	const elems = 4096
	costs := make([]uint64, elems)
	gap := cfg.IssueGap
	reps := p.n(300)
	var now, cycles uint64
	ns := p.timed("fabric.SendStream", reps, func() {
		_, last, serr := f.SendStream(fabric.Stream{
			Src: 0, Dst: 1, ElemBytes: 16, Start: now, PreCost: costs,
			Gap: gap, FlowWindow: xbrtime.DefaultInflightDepth * gap, Unrolled: true,
		})
		if serr != nil {
			err = serr
		}
		cycles += last - now
		now = last
	})
	p.out["fabric.sendstream4096_host_ns_per_msg"] = ns / elems
	p.out["fabric.sendstream4096_sim_cycles"] = float64(cycles) / float64(reps)
	cycles = 0
	ns = p.timed("fabric.FetchStream", reps, func() {
		_, last, ferr := f.FetchStream(fabric.Fetch{
			Src: 0, Dst: 1, ReqBytes: 8, RespBytes: 16, Start: now, PostCost: costs,
			Gap: gap, FlowWindow: xbrtime.DefaultInflightDepth * gap, Unrolled: true,
		})
		if ferr != nil {
			err = ferr
		}
		cycles += last - now
		now = last
	})
	p.out["fabric.fetchstream4096_host_ns_per_msg"] = ns / (2 * elems)
	p.out["fabric.fetchstream4096_sim_cycles"] = float64(cycles) / float64(reps)
	return err
}

func (p *probeSet) fabricSend() error {
	f, err := fabric.New(fabric.FullyConnected{N: 8}, fabric.DefaultConfig())
	if err != nil {
		return err
	}
	n := p.n(400000)
	var now, cycles uint64
	ns := p.timed("fabric.Send", n, func() {
		arrive, serr := f.Send(0, 1, 16, now)
		if serr != nil {
			err = serr
		}
		cycles += arrive - now
		now = arrive
	})
	p.out["fabric.send_host_ns"] = ns
	p.out["fabric.send_sim_cycles"] = float64(cycles) / float64(n)
	return err
}

func (p *probeSet) linkClasses() error {
	f, err := fabric.New(fabric.Grouped{PerNode: 8, N: 64}, fabric.DefaultConfig())
	if err != nil {
		return err
	}
	sp := p.spans.begin("probe:fabric.Send", -1)
	defer p.spans.end(sp)
	intra, err := f.Send(0, 1, 64, 0)
	if err != nil {
		return err
	}
	const later = 1 << 20 // far outside the first message's congestion window
	inter, err := f.Send(0, 8, 64, later)
	if err != nil {
		return err
	}
	p.out["fabric.send_intra_sim_cycles"] = float64(intra)
	p.out["fabric.send_inter_sim_cycles"] = float64(inter - later)
	return nil
}

// ---- xbrtime ----

// pair builds a 2-PE runtime with two symmetric buffers of the given
// element count, for one goroutine to drive PE 0 directly (the shape
// internal/bench's host microbenchmarks use).
func pair(elems int) (pe *xbrtime.PE, a, b uint64, err error) {
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: 2})
	if err != nil {
		return nil, 0, 0, err
	}
	bytes := uint64(elems * dtI64.Width)
	for r := 0; r < 2; r++ {
		if a, err = rt.PE(r).Malloc(bytes); err != nil {
			return nil, 0, 0, err
		}
		if b, err = rt.PE(r).Malloc(bytes); err != nil {
			return nil, 0, 0, err
		}
	}
	return rt.PE(0), a, b, nil
}

// transfer times a PE-0 call n times; it returns host ns and virtual
// cycles per call.
func (p *probeSet) transfer(name string, pe *xbrtime.PE, n int, fn func() error) (ns, cycles float64, err error) {
	c0 := pe.Now()
	ns = p.timed(name, n, func() {
		if ferr := fn(); ferr != nil {
			err = ferr
		}
	})
	return ns, float64(pe.Now()-c0) / float64(n), err
}

func (p *probeSet) xbrtimeSmall() error {
	pe, a, b, err := pair(512)
	if err != nil {
		return err
	}
	n := p.n(100000)
	ns, cyc, err1 := p.transfer("xbrtime.Put", pe, n, func() error { return pe.Put(dtI64, b, a, 1, 1, 1) })
	p.out["xbrtime.put_elem_host_ns"], p.out["xbrtime.put_elem_sim_cycles"] = ns, cyc
	ns, cyc, err2 := p.transfer("xbrtime.Get", pe, n, func() error { return pe.Get(dtI64, b, a, 1, 1, 1) })
	p.out["xbrtime.get_elem_host_ns"], p.out["xbrtime.get_elem_sim_cycles"] = ns, cyc
	ns, _, err3 := p.transfer("xbrtime.Put", pe, p.n(4000), func() error { return pe.Put(dtI64, b, a, elems2K, 2, 1) })
	p.out["xbrtime.put256_stride2_host_ns"] = ns
	return errors.Join(err1, err2, err3)
}

func (p *probeSet) xbrtimeBulk() error {
	const chunk = 4096 // 32 KiB of int64, core's default segment size
	pe, a, b, err := pair(chunk)
	if err != nil {
		return err
	}
	n := p.n(300)
	ns, cyc, err1 := p.transfer("xbrtime.PutChunk", pe, n, func() error { return pe.PutChunk(dtI64, b, a, chunk, 1) })
	p.out["xbrtime.putchunk32k_host_us"], p.out["xbrtime.putchunk32k_sim_cycles"] = ns/1e3, cyc
	ns, cyc, err2 := p.transfer("xbrtime.GetChunk", pe, n, func() error { return pe.GetChunk(dtI64, b, a, chunk, 1) })
	p.out["xbrtime.getchunk32k_host_us"], p.out["xbrtime.getchunk32k_sim_cycles"] = ns/1e3, cyc
	ns, _, _ = p.transfer("xbrtime.CopyChunk", pe, n, func() error { pe.CopyChunk(dtI64, b, a, chunk); return nil })
	p.out["xbrtime.copychunk32k_host_us"] = ns / 1e3
	ns, _, err3 := p.transfer("xbrtime.Put", pe, n, func() error { return pe.Put(dtI64, b, a, chunk, 1, 1) })
	p.out["xbrtime.put4096_host_us"] = ns / 1e3
	ns, _, err4 := p.transfer("xbrtime.Get", pe, n, func() error { return pe.Get(dtI64, b, a, chunk, 1, 1) })
	p.out["xbrtime.get4096_host_us"] = ns / 1e3
	return errors.Join(err1, err2, err3, err4)
}

func (p *probeSet) elemsChunk() error {
	const chunk = 4096
	pe, a, _, err := pair(chunk)
	if err != nil {
		return err
	}
	buf := make([]uint64, chunk)
	n := p.n(1000)
	ns, _, _ := p.transfer("xbrtime.ReadElemsChunk", pe, n, func() error { pe.ReadElemsChunk(dtI64, a, buf); return nil })
	p.out["xbrtime.readelemschunk_host_ns_per_elem"] = ns / chunk
	ns, _, _ = p.transfer("xbrtime.WriteElemsChunk", pe, n, func() error { pe.WriteElemsChunk(dtI64, a, buf); return nil })
	p.out["xbrtime.writeelemschunk_host_ns_per_elem"] = ns / chunk
	return nil
}

func (p *probeSet) xbrtimeNB() error {
	pe, a, b, err := pair(8)
	if err != nil {
		return err
	}
	n := p.n(100000)
	ns, _, err1 := p.transfer("xbrtime.PutNB", pe, n, func() error {
		h, err := pe.PutNB(dtI64, b, a, 1, 1, 1)
		pe.Wait(h)
		return err
	})
	p.out["xbrtime.putnb_elem_host_ns"] = ns
	ns, _, err2 := p.transfer("xbrtime.GetNB", pe, n, func() error {
		h, err := pe.GetNB(dtI64, b, a, 1, 1, 1)
		pe.Wait(h)
		return err
	})
	p.out["xbrtime.getnb_elem_host_ns"] = ns
	return errors.Join(err1, err2)
}

// spmd runs fn on every PE of an 8-PE runtime n times inside one Run
// and returns PE 0's host ns and virtual cycles per iteration.
func (p *probeSet) spmd(name string, deterministic bool, n int, prep func(pe *xbrtime.PE) (uint64, error),
	fn func(pe *xbrtime.PE, flags uint64) error) (ns, cycles float64, err error) {
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: 8, Deterministic: deterministic})
	if err != nil {
		return 0, 0, err
	}
	err = rt.Run(func(pe *xbrtime.PE) error {
		flags, err := prep(pe)
		if err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		lead := pe.MyPE() == 0
		sp := -1
		var t0 time.Time
		c0 := pe.Now()
		if lead {
			sp, t0 = p.spans.begin("probe:"+name, -1), time.Now()
		}
		for i := 0; i < n; i++ {
			if err := fn(pe, flags); err != nil {
				return err
			}
		}
		if lead {
			ns = float64(time.Since(t0)) / float64(n)
			p.spans.end(sp)
			cycles = float64(pe.Now()-c0) / float64(n)
		}
		return nil
	})
	return ns, cycles, err
}

// barrierAndFlag measures the two synchronisation primitives the small
// trees are made of: host time on a free-running runtime, virtual
// cycles on a lockstep one.
func (p *probeSet) barrierAndFlag() error {
	noPrep := func(*xbrtime.PE) (uint64, error) { return 0, nil }
	barrier := func(pe *xbrtime.PE, _ uint64) error { return pe.Barrier() }
	// One round trip: PE 0 signals PE 1 and waits for the answer.
	flagPrep := func(pe *xbrtime.PE) (uint64, error) { return pe.Malloc(16) }
	pingpong := func(pe *xbrtime.PE, flags uint64) error {
		switch pe.MyPE() {
		case 0:
			if err := pe.SignalAfter(xbrtime.Handle{}, flags, 1); err != nil {
				return err
			}
			return pe.WaitFlag(flags + 8)
		case 1:
			if err := pe.WaitFlag(flags); err != nil {
				return err
			}
			return pe.SignalAfter(xbrtime.Handle{}, flags+8, 0)
		}
		return nil
	}
	n := p.n(20000)
	var errs []error
	for _, det := range []bool{false, true} {
		ns, cyc, err := p.spmd("xbrtime.Barrier", det, n, noPrep, barrier)
		errs = append(errs, err)
		fns, fcyc, err := p.spmd("xbrtime.SignalAfter+WaitFlag", det, n, flagPrep, pingpong)
		errs = append(errs, err)
		if det {
			p.out["xbrtime.barrier8_sim_cycles"], p.out["xbrtime.flag_pingpong_sim_cycles"] = cyc, fcyc
		} else {
			p.out["xbrtime.barrier8_host_ns"], p.out["xbrtime.flag_pingpong_host_ns"] = ns, fns
		}
	}
	return errors.Join(errs...)
}

func (p *probeSet) scaleout64() error {
	var ms []float64
	for i := 0; i < p.n(7); i++ {
		sp := p.spans.begin("probe:xbrtime.New", -1)
		t0 := time.Now()
		_, err := xbrtime.New(xbrtime.Config{NumPEs: 64, TopoSpec: "grouped:8"})
		ms = append(ms, float64(time.Since(t0))/1e6)
		p.spans.end(sp)
		if err != nil {
			return err
		}
	}
	p.out["xbrtime.runtime_new64_host_ms"] = median(ms)

	pl, ok := core.LookupPlanner(core.AlgoHier)
	if !ok || pl.CompileShaped == nil {
		return fmt.Errorf("planner %q has no shaped compiler", core.AlgoHier)
	}
	// The registry caches compiled plans; calling the planner's hook
	// directly compiles afresh every time.
	ns := p.timed("core.Planner.CompileShaped", p.n(50), func() {
		pl.CompileShaped(core.CollAllReduce, 64, core.Shape{PerNode: 8})
	})
	p.out["core.plan_compile_hier64_host_us"] = ns / 1e3
	return nil
}

// ---- core ----

func (p *probeSet) planLookup() error {
	// The arguments of tree_small_8pe's one auto call.
	const pes, nelems, width = 8, elems64B, 8
	var plan *core.Plan
	var err error
	ns := p.timed("core.SelectFor+CompilePlanFor", p.n(200000), func() {
		algo := core.AlgoAuto.SelectFor(core.CollAllReduce, pes, nelems, width, core.Shape{})
		plan, err = core.CompilePlanFor(core.CollAllReduce, algo, pes, 1, core.Shape{})
	})
	if err != nil {
		return err
	}
	p.out["core.plan_lookup_host_ns"] = ns
	tn := core.CurrentTuning()
	p.out["core.plancost_host_ns"] = p.timed("core.PlanCostShape", p.n(100000), func() {
		core.PlanCostShape(plan, tn, core.Shape{}, nelems, width)
	})
	return nil
}

func (p *probeSet) combine() error {
	const elems = 4096
	var err error
	for _, t := range []struct {
		metric string
		dt     xbrtime.DType
	}{
		{"core.combine_sum_i64_host_ns_per_elem", xbrtime.TypeInt64},
		{"core.combine_sum_f64_host_ns_per_elem", xbrtime.TypeDouble},
	} {
		operand := func(i int) uint64 {
			if t.dt.Kind == xbrtime.KindFloat {
				return t.dt.FromFloat(float64(i) + 0.5)
			}
			return t.dt.FromInt(int64(i))
		}
		acc := operand(1)
		ns := p.timed("core.Combine", p.n(500), func() {
			for i := 0; i < elems; i++ {
				v, cerr := core.Combine(t.dt, core.OpSum, acc, operand(i))
				if cerr != nil {
					err = cerr
				}
				acc = v
			}
		})
		p.out[t.metric] = ns / elems
	}
	return err
}
