package xbrtime

import (
	"xbgas/internal/mem"
	"xbgas/internal/sim"
)

// Remote transfers: the paper's one put/get primitive (§3.3). Every put
// and get — blocking or not, on the element or the line granule
// (chunk.go) — runs transfer below; the granule decides only which
// touches price the local side and which packet Timing books.

// olbHitCost and olbMissCost charge the object-ID translation performed
// once per transfer when the stub loads the target's object ID into an
// e register.
const (
	olbHitCost  = 2
	olbMissCost = 20
)

// Handle identifies an outstanding non-blocking transfer.
type Handle struct {
	completeAt uint64
	active     bool
}

// Pending reports whether the handle still has an unwaited transfer.
func (h Handle) Pending() bool { return h.active }

// Wait blocks (in virtual time) until the transfer behind h completes:
// the clock advances to the transfer's completion time if it is later
// than now.
func (pe *PE) Wait(h Handle) {
	if h.active {
		pe.advanceTo(h.completeAt)
	}
}

// Put copies nelems elements of type dt from local address src to
// address dest on PE target, reading and writing every stride-th
// element (stride 1 = contiguous; the stride applies at both ends,
// paper §3.3). Put blocks until the last element is delivered.
func (pe *PE) Put(dt DType, dest, src uint64, nelems, stride int, target int) error {
	h, err := pe.put(dt, dest, src, nelems, stride, target, false, false)
	if err != nil {
		return err
	}
	pe.Wait(h)
	return nil
}

// PutNB is the non-blocking form of Put: it returns once the last
// element has been issued; Wait completes the transfer.
func (pe *PE) PutNB(dt DType, dest, src uint64, nelems, stride int, target int) (Handle, error) {
	return pe.put(dt, dest, src, nelems, stride, target, true, false)
}

// Get copies nelems elements of type dt from address src on PE target
// to local address dest, with the same stride contract as Put. Get
// blocks until the last element has arrived.
func (pe *PE) Get(dt DType, dest, src uint64, nelems, stride int, target int) error {
	h, err := pe.get(dt, dest, src, nelems, stride, target, false, false)
	if err != nil {
		return err
	}
	pe.Wait(h)
	return nil
}

// GetNB is the non-blocking form of Get.
func (pe *PE) GetNB(dt DType, dest, src uint64, nelems, stride int, target int) (Handle, error) {
	return pe.get(dt, dest, src, nelems, stride, target, true, false)
}

// put is Transfer's put, behind Put, PutNB, PutChunk and PutChunkNB.
func (pe *PE) put(dt DType, dest, src uint64, nelems, stride int, target int, nonblocking, lines bool) (Handle, error) {
	return pe.Transfer(true, dt, dest, src, nelems, stride, target, nonblocking, lines)
}

// get is Transfer's get, behind Get, GetNB, GetChunk and GetChunkNB.
func (pe *PE) get(dt DType, dest, src uint64, nelems, stride int, target int, nonblocking, lines bool) (Handle, error) {
	return pe.Transfer(false, dt, dest, src, nelems, stride, target, nonblocking, lines)
}

// Transfer is the one put/get path: a put (src local, dest on target)
// or a get (src on target, dest local) with Put's stride contract, on
// the element granule or with lines (stride 1 only) the line granule
// (chunk.go), booked as the NB forms book when nonblocking. It returns
// once the transfer is issued; Wait(h) completes it. It validates and
// counts the call, moves it — PE-local, on the Spike transport or over
// the native fabric — and records the obs event: a trace span over the
// issue window [start, pe.clock], and the full completion time (start
// to last arrival) in the latency histogram.
func (pe *PE) Transfer(put bool, dt DType, dest, src uint64, nelems, stride, target int, nonblocking, lines bool) (Handle, error) {
	if err := checkTransfer(dt, nelems, stride); err != nil {
		return Handle{}, err
	}
	if err := pe.checkTarget(target); err != nil || nelems == 0 {
		return Handle{}, err
	}
	start, kind := pe.clock, "get"
	if put {
		kind = "put"
		pe.puts++
		pe.putElems += uint64(nelems)
	} else {
		pe.gets++
		pe.getElems += uint64(nelems)
	}
	if target != pe.rank {
		pe.traceComm(kind, target, nelems)
	}
	var h Handle
	var err error
	switch spike := pe.rt.cfg.Transport == TransportSpike; {
	case spike && put:
		h, err = pe.spikePut(dt, dest, src, nelems, stride, target)
	case spike:
		h, err = pe.spikeGet(dt, dest, src, nelems, stride, target)
	case target == pe.rank:
		// PE-local transfer: plain loads and stores through the
		// hierarchy, priced per element on either granule.
		pe.CopyElems(dt, dest, src, nelems, stride, stride, false)
		h = Handle{completeAt: pe.clock, active: true}
	default:
		h, err = pe.remote(put, dt, dest, src, nelems, stride, target, nonblocking, lines)
	}
	if err == nil && pe.ObsEnabled() {
		pe.obsTransfer(put, start, h.completeAt, target, nelems)
	}
	return h, err
}

// remote moves a transfer over the native fabric. lines picks the
// granule (chunk.go; stride 1 only): one packet per element, or one per
// cache line.
func (pe *PE) remote(put bool, dt DType, dest, src uint64, nelems, stride, target int, nonblocking, lines bool) (Handle, error) {
	// In lockstep mode, transfers book the fabric in virtual-clock
	// order.
	pe.lsYield()
	pe.chargeOLB(target)

	// Price the local side up front — the source reads of a put, the
	// destination writes of a get — on the hierarchy (owned by this
	// PE's goroutine and untouched by the fabric bookings, so the costs
	// are the ones the reference loops compute interleaved), then book
	// the whole stream in one fabric critical section. The per-packet
	// issue/arrival recurrence is evaluated inside SendStream and
	// FetchStream and matches the element-at-a-time loops (refPutGet in
	// the tests) cycle for cycle.
	w, step := dt.Width, uint64(stride*dt.Width)
	book, local, from, to := pe.rt.timing.Get, dest, pe.rt.machine.Nodes[target], pe.node
	if put {
		book, local, from, to = pe.rt.timing.Put, src, to, from
	}
	costs := pe.price(local, w, step, nelems, !put, lines)
	issued, done, err := book(pe.rank, target, pe.clock, w, costs, nonblocking, lines)
	if err != nil {
		return Handle{}, err
	}
	pe.move(to, dest, from, src, w, step, nelems)
	pe.advanceTo(issued)
	return Handle{completeAt: done, active: true}, nil
}

// price charges the local side of a remote transfer — nelems
// width-byte elements step bytes apart at addr — on the hierarchy and
// returns the cost of each packet's touch: one per element, or with
// lines one per cache line the range spans (ChunkLines).
func (pe *PE) price(addr uint64, w int, step uint64, nelems int, write, lines bool) []uint64 {
	n := nelems
	if lines {
		addr, n = ChunkLines(addr, uint64(nelems*w))
		w, step = mem.LineSize, mem.LineSize
	}
	costs := pe.costs(n)
	pe.node.Hier.TouchRange(addr, w, step, n, write, costs)
	return costs
}

// stagingBytes bounds the host block a transfer moves stride-1 payload
// through, so a PE's host footprint does not grow with the largest
// range it ever moved.
const stagingBytes = 32 << 10

// move lands a remote transfer's payload: nelems width-byte elements,
// step bytes apart at both ends, from src on node from to dst on node
// to. One element moves as one value, a stride-1 range in address order
// through the PE's bounded staging block, a strided one element by
// element. Purely functional: the caller has already charged the
// hierarchy and the fabric.
func (pe *PE) move(to *sim.Node, dst uint64, from *sim.Node, src uint64, w int, step uint64, nelems int) {
	if nelems == 1 {
		to.LockedWrite(dst, w, from.LockedRead(src, w))
		return
	}
	if step != uint64(w) {
		vals := pe.elems(nelems)
		from.LockedReadElems(src, w, step, nelems, vals)
		to.LockedWriteElems(dst, w, step, nelems, vals)
		return
	}
	n := uint64(nelems * w)
	buf := pe.bytes(int(min(n, stagingBytes)))
	for off := uint64(0); off < n; off += stagingBytes {
		b := buf[:min(n-off, stagingBytes)]
		from.LockedReadBytes(src+off, b)
		to.LockedWriteBytes(dst+off, b)
	}
}

// chargeOLB models the object-ID translation for a remote transfer.
func (pe *PE) chargeOLB(target int) {
	_, hit, err := pe.node.OLB.Translate(sim.ObjectID(target))
	switch {
	case err != nil:
		// Machine construction registers every peer; a fault here is a
		// runtime bug, not a user error.
		panic(err)
	case hit:
		pe.Advance(olbHitCost)
	default:
		pe.Advance(olbMissCost)
	}
}

// WaitAll completes every pending transfer in hs: the clock advances to
// the latest completion time.
func (pe *PE) WaitAll(hs []Handle) {
	for _, h := range hs {
		pe.Wait(h)
	}
}
