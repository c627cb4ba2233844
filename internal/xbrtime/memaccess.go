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
// dst + i·dstStride·width, in element order. The clock, the hierarchy
// and the bytes end exactly as after n ReadElem/WriteElem pairs
// (overlapping ranges smear as that loop does), priced in one
// Hierarchy.TouchCopy and moved under one lock.
func (pe *PE) CopyElems(dt DType, dst, src uint64, n, dstStride, srcStride int) {
	if n <= 0 {
		return
	}
	w := uint64(dt.Width)
	ds, ss := uint64(dstStride)*w, uint64(srcStride)*w
	pe.Advance(pe.node.Hier.TouchCopy(dst, src, dt.Width, ds, ss, n) + 2*loadCPU*uint64(n))
	pe.node.LockedCopyElems(dst, src, dt.Width, ds, ss, n)
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
