package xbrtime

import "xbgas/internal/mem"

// Timed bulk local accessors: the local-memory analogue of the line
// granule of remote transfers (chunk.go). The element-at-a-time
// ReadElem/WriteElem model the paper's scalar load/store loops — one
// hierarchy touch and one locked access per element — and the
// unsegmented trees keep them.
// Chunked plans instead move contiguous payload the way a vectorised
// memcpy would: one touch per 64-byte cache line and locked block
// transfers, so the host prices a line, not eight element accesses.
// Only stride-1 payload coalesces; strided layouts stay on the element
// accessors.

// touchLines charges the hierarchy for a contiguous byte range at cache
// line granularity and returns the total cycle cost including the
// per-line issue cost.
func (pe *PE) touchLines(addr, bytes uint64, write bool) uint64 {
	first, nLines := ChunkLines(addr, bytes)
	total := pe.node.Hier.TouchRange(first, mem.LineSize, mem.LineSize, nLines, write, nil)
	return total + uint64(nLines)*loadCPU
}

// CopyChunk copies nelems contiguous elements of type dt from src to
// dst through the timed hierarchy as line-granular bulk traffic. Its
// bytes move as CopyElems moves them (sim.Node.LockedCopyElems), so it
// equals nelems ReadElem/WriteElem pairs semantically, overlapping
// ranges included; the cost model differs as described above.
func (pe *PE) CopyChunk(dt DType, dst, src uint64, nelems int) {
	if nelems <= 0 {
		return
	}
	w := uint64(dt.Width)
	bytes := uint64(nelems) * w
	cost := pe.touchLines(src, bytes, false)
	cost += pe.touchLines(dst, bytes, true)
	pe.node.LockedCopyElems(dst, src, dt.Width, w, w, nelems)
	pe.Advance(cost)
}

// ReadElemsChunk performs a timed bulk read of len(dst) contiguous
// elements into canonical values, touching the hierarchy once per cache
// line.
func (pe *PE) ReadElemsChunk(dt DType, addr uint64, dst []uint64) {
	if len(dst) == 0 {
		return
	}
	bytes := uint64(len(dst)) * uint64(dt.Width)
	cost := pe.touchLines(addr, bytes, false)
	pe.node.LockedReadElems(addr, dt.Width, uint64(dt.Width), len(dst), dst)
	dt.canonElems(dst)
	pe.Advance(cost)
}

// WriteElemsChunk performs a timed bulk write of len(src) canonical
// elements, touching the hierarchy once per cache line.
func (pe *PE) WriteElemsChunk(dt DType, addr uint64, src []uint64) {
	if len(src) == 0 {
		return
	}
	bytes := uint64(len(src)) * uint64(dt.Width)
	cost := pe.touchLines(addr, bytes, true)
	masked := pe.elems(len(src))
	dt.maskElems(masked, src)
	pe.node.LockedWriteElems(addr, dt.Width, uint64(dt.Width), len(src), masked)
	pe.Advance(cost)
}

// BorrowWords returns a []uint64 of length n from the PE's host
// workspace pool (contents unspecified); pair each borrow with
// ReturnWords. The bulk combine path uses it for the per-peer partial
// buffers, so steady-state reductions allocate nothing.
func (pe *PE) BorrowWords(n int) []uint64 {
	pe.wordsOut++
	if k := len(pe.wordPool); k > 0 {
		s := pe.wordPool[k-1]
		pe.wordPool = pe.wordPool[:k-1]
		if cap(s) < n {
			return make([]uint64, n)
		}
		return s[:n]
	}
	return make([]uint64, n)
}

// ReturnWords gives a slice from BorrowWords back to the pool.
func (pe *PE) ReturnWords(s []uint64) {
	pe.wordsOut--
	pe.wordPool = append(pe.wordPool, s)
}
