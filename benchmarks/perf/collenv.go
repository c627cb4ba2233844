package main

import (
	"fmt"
	"sync"

	"xbgas/internal/core"
	"xbgas/internal/obs"
	"xbgas/internal/xbrtime"
)

// poisonWord fills destinations before a checked cycle so a call that
// writes nothing cannot pass on a previous call's (identical) result.
const poisonWord = 0xDEADBEEF0BADF00D

var dtI64 = xbrtime.TypeInt64

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// oracle is the sequential reference for one (workload, seed): the
// input generator and, for the reducing cells, the element-wise sums.
// It is read-only once built and shared by every environment.
type oracle struct {
	w    *workload
	seed uint64
	keys [][]uint64 // [cell][pe] generator key
	sums [][]uint64 // [cell] wrapped int64 sums over PEs; nil unless the cell reduces
	msgs [][]int    // [cell] equal chunking of nelems over the PEs
	disp [][]int
}

func newOracle(w *workload, seed uint64) *oracle {
	o := &oracle{w: w, seed: seed}
	for ci, c := range w.cells {
		keys := make([]uint64, w.pes)
		for p := range keys {
			keys[p] = splitmix(seed*1000003 + uint64(ci)*257 + uint64(p))
		}
		o.keys = append(o.keys, keys)
		msgs, disp := make([]int, w.pes), make([]int, w.pes)
		off := 0
		for p := range msgs {
			msgs[p] = c.nelems / w.pes
			if p < c.nelems%w.pes {
				msgs[p]++
			}
			disp[p] = off
			off += msgs[p]
		}
		o.msgs, o.disp = append(o.msgs, msgs), append(o.disp, disp)
		var sums []uint64
		if c.kind.reduces() {
			sums = make([]uint64, c.nelems)
			for p := 0; p < w.pes; p++ {
				for i := range sums {
					sums[i] += o.val(ci, p, i)
				}
			}
		}
		o.sums = append(o.sums, sums)
	}
	return o
}

// val is element i of PE p's source buffer for cell ci.
func (o *oracle) val(ci, p, i int) uint64 { return splitmix(o.keys[ci][p] + uint64(i)) }

// root rotates the root of the rooted cells with the seed and the cycle.
func (o *oracle) root(ci, cyc int) int {
	if !o.w.cells[ci].kind.rooted() {
		return 0
	}
	return int((o.seed + uint64(cyc) + uint64(ci)) % uint64(o.w.pes))
}

// correct reports whether got, PE me's destination of cell ci after a
// call with the given root, holds what the sequential reference says.
// Elements the collective leaves undefined on this PE are not compared.
func (o *oracle) correct(ci, me, root int, got []uint64) bool {
	c := &o.w.cells[ci]
	msgs, disp, sums := o.msgs[ci], o.disp[ci], o.sums[ci]
	switch c.kind {
	case opBroadcast:
		for i, g := range got {
			if g != o.val(ci, root, i) {
				return false
			}
		}
	case opReduce, opAllReduce:
		if c.kind == opReduce && me != root {
			return true
		}
		for i, g := range got {
			if g != sums[i] {
				return false
			}
		}
	case opScatter:
		for j, g := range got[:msgs[me]] {
			if g != o.val(ci, root, disp[me]+j) {
				return false
			}
		}
	case opReduceScatter:
		for j, g := range got[:msgs[me]] {
			if g != sums[disp[me]+j] {
				return false
			}
		}
	case opGather, opAllGather:
		if c.kind == opGather && me != root {
			return true
		}
		for l := range msgs {
			for j, g := range got[disp[l] : disp[l]+msgs[l]] {
				if g != o.val(ci, l, j) {
					return false
				}
			}
		}
	}
	return true
}

// collEnv is one runtime with a collective workload's buffers allocated
// and filled.
type collEnv struct {
	w   *workload
	o   *oracle
	rt  *xbrtime.Runtime
	src []uint64 // [cell] symmetric addresses
	dst []uint64
	tmp [][]uint64 // [pe] host scratch for fills and checks

	mu     sync.Mutex
	failed map[int]bool // op ids whose output any PE found wrong
}

// opHooks are the optional observers of a cycle.
type opHooks struct {
	clocks  *clockLog                    // per-PE virtual clocks around every call
	spans   *spanLog                     // PE 0 wraps every call in a span under parent
	parent  int                          // span id of the enclosing batch
	corrupt func(pe *xbrtime.PE, ci int) // self-test: damage dest before the check
}

// clockLog holds every PE's virtual clock at the start and end of
// every op of a pass; a row belongs to one PE's goroutine.
type clockLog struct {
	start, end [][]uint64 // [pe][op]
}

func newClockLog(pes, ops int) *clockLog {
	l := &clockLog{start: make([][]uint64, pes), end: make([][]uint64, pes)}
	for p := range l.start {
		l.start[p], l.end[p] = make([]uint64, ops), make([]uint64, ops)
	}
	return l
}

// span is op's completion interval across the PEs: last end minus first
// start, the interval obs.CallPath tiles.
func (l *clockLog) span(op int) uint64 {
	lo, hi := l.start[0][op], l.end[0][op]
	for p := range l.start {
		if s := l.start[p][op]; s < lo {
			lo = s
		}
		if e := l.end[p][op]; e > hi {
			hi = e
		}
	}
	return hi - lo
}

// newCollEnv is the set-up step: build the runtime, allocate the
// symmetric buffers, fill the sources from the seed and make one
// warm-up call per cell so plan caches, auto decisions and scratch
// pools are full.
func newCollEnv(o *oracle, deterministic bool, rec *obs.Recorder) (*collEnv, error) {
	w := o.w
	rt, err := xbrtime.New(xbrtime.Config{
		NumPEs: w.pes, TopoSpec: w.topo, Deterministic: deterministic, Obs: rec,
	})
	if err != nil {
		return nil, err
	}
	e := &collEnv{
		w: w, o: o, rt: rt,
		src: make([]uint64, len(w.cells)), dst: make([]uint64, len(w.cells)),
		tmp:    make([][]uint64, w.pes),
		failed: map[int]bool{},
	}
	maxElems := 1
	for _, c := range w.cells {
		if c.nelems > maxElems {
			maxElems = c.nelems
		}
	}
	err = rt.Run(func(pe *xbrtime.PE) error {
		me := pe.MyPE()
		e.tmp[me] = make([]uint64, maxElems)
		src, dst := make([]uint64, len(w.cells)), make([]uint64, len(w.cells))
		for ci, c := range w.cells {
			if c.kind == opBarrier {
				continue
			}
			bytes := uint64((c.nelems-1)*c.stride+1) * uint64(dtI64.Width)
			for _, a := range []*uint64{&src[ci], &dst[ci]} {
				addr, err := pe.Malloc(bytes)
				if err != nil {
					return err
				}
				*a = addr
			}
			vals := e.tmp[me][:c.nelems]
			for i := range vals {
				vals[i] = o.val(ci, me, i)
			}
			pokeStrided(pe, src[ci], vals, c.stride)
		}
		if me == 0 {
			// Symmetric allocation: every PE computed the same addresses.
			// The barrier publishes them to the other PEs.
			copy(e.src, src)
			copy(e.dst, dst)
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		for ci, c := range w.cells {
			if err := e.call(pe, ci, o.root(ci, 0), c.algo); err != nil {
				return fmt.Errorf("warm-up %s: %w", c.name, err)
			}
		}
		return pe.Barrier()
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

func pokeStrided(pe *xbrtime.PE, addr uint64, vals []uint64, stride int) {
	if stride == 1 {
		pe.PokeElems(dtI64, addr, vals)
		return
	}
	step := uint64(stride * dtI64.Width)
	for i, v := range vals {
		pe.Poke(dtI64, addr+uint64(i)*step, v)
	}
}

func peekStrided(pe *xbrtime.PE, addr uint64, vals []uint64, stride int) {
	if stride == 1 {
		pe.PeekElems(dtI64, addr, vals)
		return
	}
	step := uint64(stride * dtI64.Width)
	for i := range vals {
		vals[i] = pe.Peek(dtI64, addr+uint64(i)*step)
	}
}

// call makes cell ci's collective call on pe.
func (e *collEnv) call(pe *xbrtime.PE, ci, root int, algo core.Algorithm) error {
	c := &e.w.cells[ci]
	src, dst := e.src[ci], e.dst[ci]
	msgs, disp := e.o.msgs[ci], e.o.disp[ci]
	switch c.kind {
	case opBroadcast:
		return core.BroadcastWith(algo, pe, dtI64, dst, src, c.nelems, c.stride, root)
	case opReduce:
		return core.ReduceWith(algo, pe, dtI64, core.OpSum, dst, src, c.nelems, c.stride, root)
	case opScatter:
		return core.ScatterWith(algo, pe, dtI64, dst, src, msgs, disp, c.nelems, root)
	case opGather:
		return core.GatherWith(algo, pe, dtI64, dst, src, msgs, disp, c.nelems, root)
	case opAllReduce:
		return core.AllReduceWith(pe, algo, dtI64, core.OpSum, dst, src, c.nelems, c.stride)
	case opAllGather:
		return core.AllGatherWith(pe, algo, dtI64, dst, src, msgs, disp, c.nelems)
	case opReduceScatter:
		return core.ReduceScatterWith(pe, algo, dtI64, core.OpSum, dst, src, c.nelems)
	case opBarrier:
		return pe.Barrier()
	}
	return fmt.Errorf("unknown op kind %d", c.kind)
}

// verify compares pe's destination of cell ci with the oracle.
func (e *collEnv) verify(pe *xbrtime.PE, ci, root int) bool {
	c := &e.w.cells[ci]
	if c.kind == opBarrier {
		return true
	}
	me := pe.MyPE()
	got := e.tmp[me][:c.nelems]
	peekStrided(pe, e.dst[ci], got, c.stride)
	return e.o.correct(ci, me, root, got)
}

// poison overwrites pe's destination of cell ci.
func (e *collEnv) poison(pe *xbrtime.PE, ci int) {
	c := &e.w.cells[ci]
	if c.kind == opBarrier {
		return
	}
	vals := e.tmp[pe.MyPE()][:c.nelems]
	for i := range vals {
		vals[i] = poisonWord
	}
	pokeStrided(pe, e.dst[ci], vals, c.stride)
}

func (e *collEnv) markFailed(op int) {
	e.mu.Lock()
	e.failed[op] = true
	e.mu.Unlock()
}

// cycle runs the mix once on pe. firstOp is the op id of the cycle's
// first cell (ids index hooks.clocks and name failures). With check,
// every destination is compared with the oracle when its call returns.
func (e *collEnv) cycle(pe *xbrtime.PE, cyc, firstOp int, check bool, h *opHooks) error {
	me := pe.MyPE()
	for ci := range e.w.cells {
		c := &e.w.cells[ci]
		op := firstOp + ci
		root := e.o.root(ci, cyc)
		sp := -1
		if h.clocks != nil {
			h.clocks.start[me][op] = pe.Now()
		}
		if h.spans != nil && me == 0 {
			sp = h.spans.begin(c.name, h.parent)
		}
		err := e.call(pe, ci, root, c.algo)
		if sp >= 0 {
			h.spans.end(sp)
		}
		if h.clocks != nil {
			h.clocks.end[me][op] = pe.Now()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		if check {
			if h.corrupt != nil {
				h.corrupt(pe, ci)
			}
			if !e.verify(pe, ci, root) {
				e.markFailed(op)
			}
		}
	}
	return nil
}

// checkedCycle poisons every destination between two barriers and then
// runs one fully checked cycle. The barriers make the poison safe: no
// PE is still inside an earlier call when destinations are overwritten.
func (e *collEnv) checkedCycle(pe *xbrtime.PE, cyc, firstOp int, h *opHooks) error {
	if err := pe.Barrier(); err != nil {
		return err
	}
	for ci := range e.w.cells {
		e.poison(pe, ci)
	}
	if err := pe.Barrier(); err != nil {
		return err
	}
	if err := e.cycle(pe, cyc, firstOp, true, h); err != nil {
		return err
	}
	return pe.Barrier()
}
