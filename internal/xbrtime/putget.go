package xbrtime

import "xbgas/internal/sim"

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
	h, err := pe.put(dt, dest, src, nelems, stride, target, false)
	if err != nil {
		return err
	}
	pe.Wait(h)
	return nil
}

// PutNB is the non-blocking form of Put: it returns once the last
// element has been issued; Wait completes the transfer.
func (pe *PE) PutNB(dt DType, dest, src uint64, nelems, stride int, target int) (Handle, error) {
	return pe.put(dt, dest, src, nelems, stride, target, true)
}

// Get copies nelems elements of type dt from address src on PE target
// to local address dest, with the same stride contract as Put. Get
// blocks until the last element has arrived.
func (pe *PE) Get(dt DType, dest, src uint64, nelems, stride int, target int) error {
	h, err := pe.get(dt, dest, src, nelems, stride, target, false)
	if err != nil {
		return err
	}
	pe.Wait(h)
	return nil
}

// GetNB is the non-blocking form of Get.
func (pe *PE) GetNB(dt DType, dest, src uint64, nelems, stride int, target int) (Handle, error) {
	return pe.get(dt, dest, src, nelems, stride, target, true)
}

// put validates, records observability, and dispatches to putImpl. The
// trace span covers the issue window [start, pe.clock]; the latency
// histogram sees the full completion time (start to last arrival).
func (pe *PE) put(dt DType, dest, src uint64, nelems, stride int, target int, nonblocking bool) (Handle, error) {
	if !pe.ObsEnabled() {
		return pe.putImpl(dt, dest, src, nelems, stride, target, nonblocking)
	}
	start := pe.clock
	h, err := pe.putImpl(dt, dest, src, nelems, stride, target, nonblocking)
	if err == nil && h.active {
		pe.obsTransfer(true, start, h.completeAt, target, nelems)
	}
	return h, err
}

func (pe *PE) putImpl(dt DType, dest, src uint64, nelems, stride int, target int, nonblocking bool) (Handle, error) {
	if err := checkTransfer(dt, nelems, stride); err != nil {
		return Handle{}, err
	}
	if err := pe.checkTarget(target); err != nil {
		return Handle{}, err
	}
	if nelems == 0 {
		return Handle{}, nil
	}
	pe.puts++
	pe.putElems += uint64(nelems)
	if target != pe.rank {
		pe.traceComm("put", target, nelems)
	}

	if pe.rt.cfg.Transport == TransportSpike {
		return pe.spikePut(dt, dest, src, nelems, stride, target)
	}

	w := dt.Width
	step := uint64(stride * w)

	if target == pe.rank {
		// PE-local put: plain loads and stores through the hierarchy.
		// Timing first (the alternating read/write touches drive the
		// same cache transitions as the reference element loop), then
		// the data moves in one locked pass with the reference's
		// element-order overlap semantics.
		for i := 0; i < nelems; i++ {
			off := uint64(i) * step
			pe.Advance(pe.node.Hier.Touch(src+off, w, false) + loadCPU)
			pe.Advance(pe.node.Hier.Touch(dest+off, w, true) + loadCPU)
		}
		pe.node.LockedCopyElems(dest, src, w, step, nelems)
		return Handle{completeAt: pe.clock, active: true}, nil
	}

	// In lockstep mode, transfers book the fabric in virtual-clock
	// order.
	pe.lsYield()

	targetNode := pe.rt.machine.Nodes[target]
	pe.chargeOLB(target)

	// Price every source-element read on the local hierarchy (owned by
	// this PE's goroutine, so no lock is needed), read the values in
	// one locked pass, and book the whole element stream in one fabric
	// critical section. The per-element issue/arrival recurrence is
	// evaluated inside SendStream and matches the element-at-a-time
	// loop (refPutGet in the tests) cycle for cycle.
	costs := pe.costs(nelems)
	pe.node.Hier.TouchRange(src, w, step, nelems, false, costs)
	vals := pe.elems(nelems)
	pe.node.LockedReadElems(src, w, step, nelems, vals)

	endIssue, lastArrive, err := pe.rt.timing.PutElems(pe.rank, target, pe.clock, w, costs, nonblocking)
	if err != nil {
		return Handle{}, err
	}
	targetNode.LockedWriteElems(dest, w, step, nelems, vals)
	pe.advanceTo(endIssue)
	return Handle{completeAt: lastArrive, active: true}, nil
}

// get mirrors put's observability wrapper around getImpl.
func (pe *PE) get(dt DType, dest, src uint64, nelems, stride int, target int, nonblocking bool) (Handle, error) {
	if !pe.ObsEnabled() {
		return pe.getImpl(dt, dest, src, nelems, stride, target, nonblocking)
	}
	start := pe.clock
	h, err := pe.getImpl(dt, dest, src, nelems, stride, target, nonblocking)
	if err == nil && h.active {
		pe.obsTransfer(false, start, h.completeAt, target, nelems)
	}
	return h, err
}

func (pe *PE) getImpl(dt DType, dest, src uint64, nelems, stride int, target int, nonblocking bool) (Handle, error) {
	if err := checkTransfer(dt, nelems, stride); err != nil {
		return Handle{}, err
	}
	if err := pe.checkTarget(target); err != nil {
		return Handle{}, err
	}
	if nelems == 0 {
		return Handle{}, nil
	}
	pe.gets++
	pe.getElems += uint64(nelems)
	if target != pe.rank {
		pe.traceComm("get", target, nelems)
	}

	if pe.rt.cfg.Transport == TransportSpike {
		return pe.spikeGet(dt, dest, src, nelems, stride, target)
	}

	w := dt.Width
	step := uint64(stride * w)

	if target == pe.rank {
		// PE-local get mirrors the PE-local put.
		for i := 0; i < nelems; i++ {
			off := uint64(i) * step
			pe.Advance(pe.node.Hier.Touch(src+off, w, false) + loadCPU)
			pe.Advance(pe.node.Hier.Touch(dest+off, w, true) + loadCPU)
		}
		pe.node.LockedCopyElems(dest, src, w, step, nelems)
		return Handle{completeAt: pe.clock, active: true}, nil
	}

	pe.lsYield()

	targetNode := pe.rt.machine.Nodes[target]
	pe.chargeOLB(target)

	// Price the destination-element writes up front (the hierarchy is
	// owned by this PE and untouched by the fabric bookings, so the
	// per-element costs are the same the reference loop would compute
	// interleaved), then book every request/response round trip in one
	// fabric critical section and move the data in two locked passes.
	costs := pe.costs(nelems)
	pe.node.Hier.TouchRange(dest, w, step, nelems, true, costs)

	endIssue, lastDone, err := pe.rt.timing.GetElems(pe.rank, target, pe.clock, w, costs, nonblocking)
	if err != nil {
		return Handle{}, err
	}
	vals := pe.elems(nelems)
	targetNode.LockedReadElems(src, w, step, nelems, vals)
	pe.node.LockedWriteElems(dest, w, step, nelems, vals)
	pe.advanceTo(endIssue)
	return Handle{completeAt: lastDone, active: true}, nil
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
