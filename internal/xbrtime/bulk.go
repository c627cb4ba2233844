package xbrtime

import "xbgas/internal/mem"

// The line granule of PE-local access, the local twin of chunk.go: a
// Chunked plan's stride-1 copies and combines (CopyElems and
// CombineElems with lines) price each range once per 64-byte cache line
// it spans, as a vectorised memcpy touches memory, where the element
// granule prices every element as the paper's scalar load/store loops
// do. The granule changes the price, never the bytes. CopyChunk,
// ReadElemsChunk and WriteElemsChunk are line-granule accessors the
// host-cost probes time.

// touchLines charges the hierarchy for a contiguous byte range at cache
// line granularity and returns the total cycle cost including the
// per-line issue cost.
func (pe *PE) touchLines(addr, bytes uint64, write bool) uint64 {
	first, nLines := ChunkLines(addr, bytes)
	total := pe.node.Hier.TouchRange(first, mem.LineSize, mem.LineSize, nLines, write, nil)
	return total + uint64(nLines)*loadCPU
}

// CopyChunk is CopyElems of nelems contiguous elements on the line
// granule.
func (pe *PE) CopyChunk(dt DType, dst, src uint64, nelems int) {
	pe.CopyElems(dt, dst, src, nelems, 1, 1, true)
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
