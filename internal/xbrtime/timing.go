package xbrtime

import (
	"xbgas/internal/fabric"
	"xbgas/internal/mem"
)

// Timing is the clock arithmetic of the runtime's remote primitives on
// one fabric: what a put or get stream, a flag store, a barrier arrival
// and a barrier release cost, as functions of the issuing clock. The PE
// methods call it and move the bytes; core's dry run of a plan calls it
// and moves nothing, so a replayed step and an executed step are
// charged by the same code. The local charges either side adds around a
// call are the exported constants below.
type Timing struct {
	Fabric   *fabric.Fabric
	gap      uint64 // sender occupancy per pipelined packet
	flow     uint64 // flow-control backlog bound: depth · gap
	unrollAt int
}

// Local cycle charges of the primitives. A cost-only replay adds them
// where the PE methods do.
const (
	LoadCPU      = loadCPU     // one load/store instruction on top of the hierarchy
	OLBHitCost   = olbHitCost  // object-ID translation per remote transfer, OLB warm
	FlagPollCPU  = flagPollCPU // one WaitFlag check
	BarrierCPU   = barrierCPU  // barrier bookkeeping per call
	MallocCycles = 20          // the symmetric allocator, per Malloc
	FreeCycles   = 10          // and per Free
)

// NewTiming binds the primitives to a fabric. inflightDepth and
// unrollThreshold are Config.InflightDepth and Config.UnrollThreshold
// (0 = the defaults).
func NewTiming(fab *fabric.Fabric, inflightDepth, unrollThreshold int) *Timing {
	if inflightDepth == 0 {
		inflightDepth = DefaultInflightDepth
	}
	if unrollThreshold == 0 {
		unrollThreshold = DefaultUnrollThreshold
	}
	gap := fab.Config().IssueGap
	if gap == 0 {
		// The fabric model sets no separate throughput gap: a packet
		// occupies the sender for its injection overhead.
		gap = fab.Config().InjectionOverhead
	}
	return &Timing{Fabric: fab, gap: gap, flow: uint64(inflightDepth) * gap, unrollAt: unrollThreshold}
}

// ChunkLines returns the first line-aligned address covering
// [addr, addr+bytes) and the number of cache lines it spans: the packet
// count of a bulk transfer and the touch count of a bulk local access.
func ChunkLines(addr, bytes uint64) (first uint64, n int) {
	first = addr &^ uint64(mem.LineSize-1)
	n = int((addr + bytes - first + mem.LineSize - 1) / mem.LineSize)
	return first, n
}

// headerBytes is the address/command header of a put packet and of a
// get request, on either granule; a line also travels behind one in a
// get's response.
const headerBytes = 8

// Put books a put stream src→dst issued at now. touch[i] is the
// hierarchy cost of reading packet i's payload at the source (the load
// instruction is added here, in place). On the element granule a packet
// is one width-byte element behind a header, and the stream is
// pipelined when non-blocking or at least the unroll threshold long;
// with lines it is one cache line behind a header, always pipelined. It
// returns the clock at which the sender has issued the last packet and
// the clock at which it lands.
func (t *Timing) Put(src, dst int, now uint64, width int, touch []uint64, nonblocking, lines bool) (issued, done uint64, err error) {
	payload, unrolled := t.granule(width, len(touch), nonblocking, lines)
	for i := range touch {
		touch[i] += loadCPU
	}
	return t.Fabric.SendStream(fabric.Stream{
		Src: src, Dst: dst, ElemBytes: headerBytes + payload,
		Start: now, PreCost: touch,
		Gap: t.gap, FlowWindow: t.flow, Unrolled: unrolled,
	})
}

// Get books a get stream: src requests each packet's payload from dst
// with a header-sized request and dst answers with it — a bare element,
// or a cache line behind a header. touch[i] is the hierarchy cost of
// writing packet i's payload at the destination once it has arrived.
// Granule, pipelining and results as Put.
func (t *Timing) Get(src, dst int, now uint64, width int, touch []uint64, nonblocking, lines bool) (issued, done uint64, err error) {
	resp, unrolled := t.granule(width, len(touch), nonblocking, lines)
	if lines {
		resp += headerBytes
	}
	return t.Fabric.FetchStream(fabric.Fetch{
		Src: src, Dst: dst, ReqBytes: headerBytes, RespBytes: resp,
		Start: now, ReqCost: loadCPU, PostCost: touch,
		Gap: t.gap, FlowWindow: t.flow, Unrolled: unrolled,
	})
}

// granule returns the payload of one packet of an n-packet stream and
// whether the stream is pipelined.
func (t *Timing) granule(width, n int, nonblocking, lines bool) (payload int, unrolled bool) {
	if lines {
		return mem.LineSize, true
	}
	return width, nonblocking || n >= t.unrollAt
}

// Signal books a completion-flag store src→dst issued at now that must
// not land before notBefore (the payload it trails). It returns the
// sender's clock after the store and the flag's arrival time. A
// PE-local flag is a plain store.
func (t *Timing) Signal(src, dst int, now, notBefore uint64) (next, arrive uint64, err error) {
	if src == dst {
		return now + loadCPU, notBefore, nil
	}
	arrive, err = t.Fabric.SendAfter(src, dst, 8, now, notBefore)
	return now + t.gap, arrive, err
}

// BarrierArrive returns when rank's arrival notice, sent at now,
// reaches the coordinating member of a central barrier.
func (t *Timing) BarrierArrive(rank, coordinator int, now uint64) (uint64, error) {
	if rank == coordinator {
		return now, nil
	}
	return t.Fabric.Send(rank, coordinator, 8, now)
}

// BarrierRelease books the release fan-out of a central barrier whose
// last arrival landed at release: members[0] coordinates and is free at
// once, the release messages to the others leave staggered at its
// injection rate and each pays fabric transit. rel receives every
// member's release time, in member order.
func (t *Timing) BarrierRelease(members []int, release uint64, rel func(member int, at uint64)) error {
	inject := t.Fabric.Config().InjectionOverhead
	for i, m := range members {
		at := release
		if i > 0 {
			var err error
			if at, err = t.Fabric.Send(members[0], m, 8, release+uint64(i)*inject); err != nil {
				return err
			}
		}
		rel(m, at)
	}
	return nil
}

// DissemSignal books round k of an n-PE dissemination barrier for rank:
// the signal to the peer 2^k ranks ahead, sent at now. It returns the
// peer and the signal's arrival time.
func (t *Timing) DissemSignal(rank, k, n int, now uint64) (peer int, arrive uint64, err error) {
	peer = (rank + (1 << k)) % n
	arrive, err = t.Fabric.Send(rank, peer, 8, now)
	return peer, arrive, err
}
