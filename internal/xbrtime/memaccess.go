package xbrtime

import "fmt"

// loadCPU is the pipeline cost of one local load/store instruction on
// top of the memory-hierarchy cost.
const loadCPU = 1

// ReadElem performs a timed local read of one element, returning its
// canonical value (sign-/zero-extended integer or raw IEEE bits).
func (pe *PE) ReadElem(dt DType, addr uint64) uint64 {
	raw, cost := pe.node.Load(addr, dt.Width)
	pe.Advance(cost + loadCPU)
	return dt.Canon(raw)
}

// WriteElem performs a timed local write of one element. The store
// keeps only the low dt.Width bytes of canon, so it needs no mask.
func (pe *PE) WriteElem(dt DType, addr uint64, canon uint64) {
	pe.Advance(pe.node.Store(addr, dt.Width, canon) + loadCPU)
}

// CopyElems copies n elements of type dt within the PE's own memory:
// element i is read at src + i·srcStride·width and written at
// dst + i·dstStride·width, in element order, under one lock; the bytes
// end exactly as after n ReadElem/WriteElem pairs (overlapping ranges
// smear as that loop does). On the element granule the clock and the
// hierarchy do too, priced in one Hierarchy.TouchCopy; with lines
// (stride 1 only) the read of src and then the write of dst are each
// priced once per cache line (touchLines).
func (pe *PE) CopyElems(dt DType, dst, src uint64, n, dstStride, srcStride int, lines bool) {
	if n <= 0 {
		return
	}
	w := uint64(dt.Width)
	ds, ss := uint64(dstStride)*w, uint64(srcStride)*w
	if bytes := uint64(n) * w; lines {
		pe.Advance(pe.touchLines(src, bytes, false) + pe.touchLines(dst, bytes, true))
	} else {
		pe.Advance(pe.node.Hier.TouchCopy(dst, src, dt.Width, ds, ss, n, false) + 2*loadCPU*uint64(n))
	}
	pe.node.LockedCopyElems(dst, src, dt.Width, ds, ss, n)
}

// updateBlock bounds, in elements, the host workspace a read-modify-write
// moves its elements through (sim.Node.LockedUpdate).
const updateBlock = 4096

// UpdateElem performs a timed read-modify-write of one element: it
// reads the canonical value at addr, writes f of it back and returns
// the value it read. The clock and the hierarchy end exactly as after
// ReadElem and then WriteElem at addr, priced in one
// Hierarchy.TouchCopy (the write, in the line just read, is counted)
// and done under one lock. f runs under the node's memory lock: it must
// not access the PE's memory.
func (pe *PE) UpdateElem(dt DType, addr uint64, f func(uint64) uint64) (old uint64) {
	pe.Advance(pe.node.Hier.TouchCopy(addr, addr, dt.Width, 0, 0, 1, false) + 2*loadCPU)
	x := pe.elems(1)
	pe.node.LockedUpdate(addr, addr, dt.Width, 0, 0, 1, x, x, func(xs, _ []uint64) {
		old = dt.Canon(xs[0])
		xs[0] = f(old)
	})
	return old
}

// UpdateElems is UpdateElem over n contiguous elements at addr, in
// element order: the clock, the hierarchy and the bytes end exactly as
// after n ReadElem/WriteElem pairs, priced in one Hierarchy.TouchCopy
// and done under one lock. f runs under the lock, as in UpdateElem.
func (pe *PE) UpdateElems(dt DType, addr uint64, n int, f func(uint64) uint64) {
	if n <= 0 {
		return
	}
	w := uint64(dt.Width)
	pe.Advance(pe.node.Hier.TouchCopy(addr, addr, dt.Width, w, w, n, false) + 2*loadCPU*uint64(n))
	xs := pe.elems(min(n, updateBlock))
	pe.node.LockedUpdate(addr, addr, dt.Width, w, w, n, xs, xs, func(xs, _ []uint64) {
		dt.canonElems(xs)
		for i, x := range xs {
			xs[i] = f(x)
		}
	})
}

// ReadElems performs a timed read of len(dst) contiguous elements at
// addr into canonical values. The clock and the hierarchy end exactly
// as after a ReadElem loop (ReadElemsChunk prices per line instead),
// priced in one Hierarchy.TouchRange and read under one lock.
func (pe *PE) ReadElems(dt DType, addr uint64, dst []uint64) {
	if len(dst) == 0 {
		return
	}
	w := uint64(dt.Width)
	pe.Advance(pe.node.Hier.TouchRange(addr, dt.Width, w, len(dst), false, nil) + loadCPU*uint64(len(dst)))
	pe.node.LockedReadElems(addr, dt.Width, w, len(dst), dst)
	dt.canonElems(dst)
}

// CombineElems folds n elements of src into dst within the PE's own
// memory, under one lock: f, a slice kernel on canonical words,
// rewrites each block xs of dst's elements (at dst + i·dstStride·width)
// from xs and the matching block ys of src's (at src +
// i·srcStride·width), element by element (sim.Node.LockedUpdate sizes
// the blocks). The bytes end exactly as after n rounds of ReadElem at
// dst, ReadElem at src and WriteElem at dst (overlapping ranges smear
// as that loop does). On the element granule the clock and the
// hierarchy do too, priced in one Hierarchy.TouchCopy; with lines
// (stride 1 only) the reads of dst and src and then the write of dst
// are each priced once per cache line (touchLines). The combine's own
// ALU cost is the caller's to charge. f runs under the lock, as in
// UpdateElem.
func (pe *PE) CombineElems(dt DType, dst, src uint64, n, dstStride, srcStride int, lines bool, f func(xs, ys []uint64)) {
	if n <= 0 {
		return
	}
	w := uint64(dt.Width)
	ds, ss := uint64(dstStride)*w, uint64(srcStride)*w
	if bytes := uint64(n) * w; lines {
		pe.Advance(pe.touchLines(dst, bytes, false) + pe.touchLines(src, bytes, false) + pe.touchLines(dst, bytes, true))
	} else {
		pe.Advance(pe.node.Hier.TouchCopy(dst, src, dt.Width, ds, ss, n, true) + 3*loadCPU*uint64(n))
	}
	b := min(n, updateBlock)
	buf := pe.elems(2 * b)
	pe.node.LockedUpdate(dst, src, dt.Width, ds, ss, n, buf[:b], buf[b:], func(xs, ys []uint64) {
		dt.canonElems(xs)
		dt.canonElems(ys)
		f(xs, ys)
	})
}

// Peek reads one element functionally (no cycle charge, no cache
// perturbation). Benchmarks use it for setup and verification.
func (pe *PE) Peek(dt DType, addr uint64) uint64 {
	return dt.Canon(pe.node.LockedRead(addr, dt.Width))
}

// Poke writes one element functionally (no cycle charge).
func (pe *PE) Poke(dt DType, addr uint64, canon uint64) {
	pe.node.LockedWrite(addr, dt.Width, canon&dt.mask())
}

// PeekElems reads len(dst) contiguous elements functionally (no cycle
// charge): dst[i] is the canonical value at addr + i*width.
func (pe *PE) PeekElems(dt DType, addr uint64, dst []uint64) {
	pe.node.LockedReadElems(addr, dt.Width, uint64(dt.Width), len(dst), dst)
	dt.canonElems(dst)
}

// PokeElems writes len(src) contiguous elements functionally.
func (pe *PE) PokeElems(dt DType, addr uint64, src []uint64) {
	masked := pe.elems(len(src))
	dt.maskElems(masked, src)
	pe.node.LockedWriteElems(addr, dt.Width, uint64(dt.Width), len(src), masked)
}

// PeekBytes copies len(dst) bytes out of the PE's memory functionally.
func (pe *PE) PeekBytes(addr uint64, dst []byte) { pe.node.LockedReadBytes(addr, dst) }

// PokeBytes copies src into the PE's memory functionally.
func (pe *PE) PokeBytes(addr uint64, src []byte) { pe.node.LockedWriteBytes(addr, src) }

// TraceEvent describes one remote transfer issued by a PE, as observed
// by a communication trace hook.
type TraceEvent struct {
	Kind   string // "put" or "get"
	Target int    // peer PE rank
	Nelems int
}

// SetCommTrace installs a hook observing every remote put/get the PE
// issues (nil disables). PE-local transfers and barrier traffic are not
// reported. The hook runs synchronously on the PE's goroutine; the
// schedule-conformance tests use it to check that collectives perform
// exactly the communication their algorithms specify.
func (pe *PE) SetCommTrace(fn func(TraceEvent)) { pe.commTrace = fn }

func (pe *PE) traceComm(kind string, target, nelems int) {
	if pe.commTrace != nil {
		pe.commTrace(TraceEvent{Kind: kind, Target: target, Nelems: nelems})
	}
}

// checkTarget validates a peer rank.
func (pe *PE) checkTarget(target int) error {
	if target < 0 || target >= pe.rt.cfg.NumPEs {
		return fmt.Errorf("xbrtime: PE %d addressed invalid peer %d of %d",
			pe.rank, target, pe.rt.cfg.NumPEs)
	}
	return nil
}

// checkTransfer validates the common put/get argument contract.
func checkTransfer(dt DType, nelems, stride int) error {
	if !dt.Valid() {
		return fmt.Errorf("xbrtime: invalid data type %+v", dt)
	}
	if nelems < 0 {
		return fmt.Errorf("xbrtime: negative element count %d", nelems)
	}
	if stride < 1 {
		return fmt.Errorf("xbrtime: stride %d; must be >= 1 element", stride)
	}
	return nil
}
