package xbrtime

import (
	"xbgas/internal/mem"
	"xbgas/internal/sim"
)

// Chunk transfers: the bulk data path of the plan executor.
//
// The element-at-a-time Put/Get model the paper's xBGAS stubs — a
// scalar load, a remote store, one fabric message per element, with
// an 8-byte address header on every element. That is the right model
// for the paper's whole-message rounds, and the unsegmented trees keep
// it. A plan marked core.Plan.Chunked instead moves every stride-1
// range as one bulk stream, the way a chunked protocol engine would:
// contiguous payload is fetched line-by-line from the hierarchy (one
// touch per 64-byte line, not per element) and injected as line-sized
// packets, so the per-element header and issue overhead disappear and
// the host prices one cache line, not eight element loads. Strided
// ranges fall back to the element stream — only stride-1 payload
// coalesces into lines.

// chunkHeaderBytes is the per-packet address/command header of the
// bulk stream (one header per line instead of one per element).
const chunkHeaderBytes = 8

// stagingBytes bounds the host block the bulk paths move payload
// through, so a PE's host footprint does not grow with the largest
// range it ever copied.
const stagingBytes = 32 << 10

// moveBytes copies n bytes from src on node from to dst on node to, in
// address order through the PE's bounded staging block. Purely
// functional: the caller has already charged the hierarchy and fabric.
func (pe *PE) moveBytes(to *sim.Node, dst uint64, from *sim.Node, src, n uint64) {
	buf := pe.bytes(stagingBytes)
	for off := uint64(0); off < n; off += stagingBytes {
		b := buf
		if n-off < stagingBytes {
			b = buf[:n-off]
		}
		from.LockedReadBytes(src+off, b)
		to.LockedWriteBytes(dst+off, b)
	}
}

// PutChunkNB streams nelems contiguous elements of type dt from local
// address src to dest on PE target as line-granular bulk packets and
// returns without waiting for delivery. Semantically it equals
// PutNB(dt, dest, src, nelems, 1, target); the cost model differs as
// described above. Degenerate and diagnostic paths (self target, the
// Spike transport) delegate to the element stream.
func (pe *PE) PutChunkNB(dt DType, dest, src uint64, nelems, target int) (Handle, error) {
	if err := checkTransfer(dt, nelems, 1); err != nil {
		return Handle{}, err
	}
	if err := pe.checkTarget(target); err != nil {
		return Handle{}, err
	}
	if nelems == 0 {
		return Handle{}, nil
	}
	if target == pe.rank || pe.rt.cfg.Transport == TransportSpike {
		return pe.put(dt, dest, src, nelems, 1, target, true)
	}
	start := pe.clock
	pe.puts++
	pe.putElems += uint64(nelems)
	pe.traceComm("put", target, nelems)
	pe.lsYield()

	targetNode := pe.rt.machine.Nodes[target]
	pe.chargeOLB(target)

	bytes := uint64(nelems) * uint64(dt.Width)
	first, nLines := ChunkLines(src, bytes)
	costs := pe.costs(nLines)
	pe.node.Hier.TouchRange(first, mem.LineSize, mem.LineSize, nLines, false, costs)

	endIssue, lastArrive, err := pe.rt.timing.PutLines(pe.rank, target, pe.clock, costs)
	if err != nil {
		return Handle{}, err
	}
	pe.moveBytes(targetNode, dest, pe.node, src, bytes)
	pe.advanceTo(endIssue)
	h := Handle{completeAt: lastArrive, active: true}
	if pe.ObsEnabled() {
		pe.obsTransfer(true, start, h.completeAt, target, nelems)
	}
	return h, nil
}

// GetChunk is the blocking form of GetChunkNB: it pulls nelems
// contiguous elements from PE target as line-granular bulk fetches and
// waits until the data has landed.
func (pe *PE) GetChunk(dt DType, dest, src uint64, nelems, target int) error {
	h, err := pe.GetChunkNB(dt, dest, src, nelems, target)
	if err != nil {
		return err
	}
	pe.Wait(h)
	return nil
}

// GetChunkNB pulls nelems contiguous elements of type dt from address
// src on PE target into local dest as line-granular bulk fetches and
// returns without waiting for the data to land. Semantically it equals
// GetNB(dt, dest, src, nelems, 1, target) with the chunk cost model;
// the degenerate and diagnostic paths delegate as in PutChunkNB.
func (pe *PE) GetChunkNB(dt DType, dest, src uint64, nelems, target int) (Handle, error) {
	if err := checkTransfer(dt, nelems, 1); err != nil {
		return Handle{}, err
	}
	if err := pe.checkTarget(target); err != nil {
		return Handle{}, err
	}
	if nelems == 0 {
		return Handle{}, nil
	}
	if target == pe.rank || pe.rt.cfg.Transport == TransportSpike {
		return pe.get(dt, dest, src, nelems, 1, target, true)
	}
	start := pe.clock
	pe.gets++
	pe.getElems += uint64(nelems)
	pe.traceComm("get", target, nelems)
	pe.lsYield()

	targetNode := pe.rt.machine.Nodes[target]
	pe.chargeOLB(target)

	bytes := uint64(nelems) * uint64(dt.Width)
	first, nLines := ChunkLines(dest, bytes)
	costs := pe.costs(nLines)
	pe.node.Hier.TouchRange(first, mem.LineSize, mem.LineSize, nLines, true, costs)

	endIssue, lastDone, err := pe.rt.timing.GetLines(pe.rank, target, pe.clock, costs)
	if err != nil {
		return Handle{}, err
	}
	pe.moveBytes(pe.node, dest, targetNode, src, bytes)
	pe.advanceTo(endIssue)
	h := Handle{completeAt: lastDone, active: true}
	if pe.ObsEnabled() {
		pe.obsTransfer(false, start, h.completeAt, target, nelems)
	}
	return h, nil
}
