package xbrtime

import (
	"fmt"
	"testing"
)

// transferImpl is one implementation of the transfer pair, in the
// signature of PE.put and PE.get.
type transferImpl struct {
	put, get func(pe *PE, dt DType, dest, src uint64, nelems, stride, target int, nonblocking bool) (Handle, error)
}

// streamPutGet is the shipped implementation: one batched fabric stream
// per transfer.
var streamPutGet = transferImpl{
	put: func(pe *PE, dt DType, dest, src uint64, nelems, stride, target int, nonblocking bool) (Handle, error) {
		return pe.put(dt, dest, src, nelems, stride, target, nonblocking, false)
	},
	get: func(pe *PE, dt DType, dest, src uint64, nelems, stride, target int, nonblocking bool) (Handle, error) {
		return pe.get(dt, dest, src, nelems, stride, target, nonblocking, false)
	},
}

// refPutGet is the original element-at-a-time implementation, kept as
// the oracle the stream path must match cycle for cycle: it books the
// fabric one message per element (two for a get) and evaluates the
// issue/arrival recurrence inline.
var refPutGet = transferImpl{put: refPut, get: refGet}

// Put is the blocking form over im.put, as PE.Put is over PE.put.
func (im transferImpl) Put(pe *PE, dt DType, dest, src uint64, nelems, stride, target int) error {
	h, err := im.put(pe, dt, dest, src, nelems, stride, target, false)
	if err != nil {
		return err
	}
	pe.Wait(h)
	return nil
}

// Get is the blocking form over im.get.
func (im transferImpl) Get(pe *PE, dt DType, dest, src uint64, nelems, stride, target int) error {
	h, err := im.get(pe, dt, dest, src, nelems, stride, target, false)
	if err != nil {
		return err
	}
	pe.Wait(h)
	return nil
}

// remoteTransfer reports whether the arguments describe a valid,
// non-empty transfer to another PE — the one case the reference loops
// implement. Errors, empty and PE-local transfers never reached them
// and stay with the shipped code.
func remoteTransfer(pe *PE, dt DType, nelems, stride, target int) bool {
	return checkTransfer(dt, nelems, stride) == nil && pe.checkTarget(target) == nil &&
		nelems > 0 && target != pe.rank
}

func refPut(pe *PE, dt DType, dest, src uint64, nelems, stride, target int, nonblocking bool) (Handle, error) {
	if !remoteTransfer(pe, dt, nelems, stride, target) {
		return pe.put(dt, dest, src, nelems, stride, target, nonblocking, false)
	}
	pe.puts++
	pe.putElems += uint64(nelems)
	pe.traceComm("put", target, nelems)
	pe.lsYield()

	w := dt.Width
	step := uint64(stride * w)
	fab := pe.rt.machine.Fabric
	targetNode := pe.rt.machine.Nodes[target]
	pe.chargeOLB(target)

	unrolled := nonblocking || nelems >= pe.rt.cfg.UnrollThreshold
	gap := pe.rt.timing.gap
	transit := fab.TransitCost(pe.rank, target, 8+w)
	window := uint64(pe.rt.cfg.InflightDepth) * gap
	issue := pe.clock
	var lastArrive uint64
	for i := 0; i < nelems; i++ {
		off := uint64(i) * step
		// Source element read on the local hierarchy.
		cost := pe.node.Hier.Touch(src+off, w, false)
		raw := pe.node.LockedRead(src+off, w)
		issue += cost + loadCPU

		arrive, err := fab.Send(pe.rank, target, 8+w, issue)
		if err != nil {
			return Handle{}, err
		}
		if arrive > lastArrive {
			lastArrive = arrive
		}
		targetNode.LockedWrite(dest+off, w, raw)

		if unrolled {
			// Pipelined (unrolled) issue: the next store leaves as soon
			// as the NIC accepts another message — unless flow control
			// throttles the stream because more than InflightDepth
			// element stores are backed up in the network.
			issue += gap
			if backlog := arrive - transit; backlog > issue+window {
				issue = backlog - window
			}
		} else {
			// Strictly ordered element stores below the threshold.
			issue = arrive
		}
	}
	pe.advanceTo(issue)
	return Handle{completeAt: lastArrive, active: true}, nil
}

func refGet(pe *PE, dt DType, dest, src uint64, nelems, stride, target int, nonblocking bool) (Handle, error) {
	if !remoteTransfer(pe, dt, nelems, stride, target) {
		return pe.get(dt, dest, src, nelems, stride, target, nonblocking, false)
	}
	pe.gets++
	pe.getElems += uint64(nelems)
	pe.traceComm("get", target, nelems)
	pe.lsYield()

	w := dt.Width
	step := uint64(stride * w)
	fab := pe.rt.machine.Fabric
	targetNode := pe.rt.machine.Nodes[target]
	pe.chargeOLB(target)

	unrolled := nonblocking || nelems >= pe.rt.cfg.UnrollThreshold
	gap := pe.rt.timing.gap
	transit := fab.TransitCost(pe.rank, target, 8) + fab.TransitCost(target, pe.rank, w)
	window := uint64(pe.rt.cfg.InflightDepth) * gap
	issue := pe.clock
	var lastArrive uint64
	for i := 0; i < nelems; i++ {
		off := uint64(i) * step
		// Request out, data back.
		req, err := fab.Send(pe.rank, target, 8, issue+loadCPU)
		if err != nil {
			return Handle{}, err
		}
		data, err := fab.Send(target, pe.rank, w, req)
		if err != nil {
			return Handle{}, err
		}
		raw := targetNode.LockedRead(src+off, w)
		// Destination element write on the local hierarchy.
		cost := pe.node.Hier.Touch(dest+off, w, true)
		pe.node.LockedWrite(dest+off, w, raw)
		done := data + cost
		if done > lastArrive {
			lastArrive = done
		}
		if unrolled {
			// Pipelined requests with the same flow-control window as
			// the put path.
			issue += gap
			if backlog := data - transit; backlog > issue+window {
				issue = backlog - window
			}
		} else {
			issue = done
		}
	}
	pe.advanceTo(issue)
	return Handle{completeAt: lastArrive, active: true}, nil
}

// runEquivWorkload drives a contention-heavy mix of transfers through
// impl: every PE puts and gets against both neighbours with element
// counts straddling the unroll threshold, plus a non-blocking batch and
// barriers. It runs under the deterministic scheduler so the batched
// and reference implementations see identical booking orders and must
// produce identical clocks.
func runEquivWorkload(t *testing.T, npes int, impl transferImpl) ([]Stats, uint64, uint64, uint64) {
	t.Helper()
	rt := MustNew(Config{NumPEs: npes, Deterministic: true})
	defer rt.Close()

	const nelems = 512
	err := rt.Run(func(pe *PE) error {
		n := pe.NumPEs()
		buf, err := pe.Malloc(8 * nelems * 2)
		if err != nil {
			return err
		}
		land, err := pe.PrivateAlloc(8 * nelems * 2)
		if err != nil {
			return err
		}
		for i := 0; i < nelems; i++ {
			pe.Poke(TypeULong, buf+uint64(i)*8, uint64(pe.MyPE()*1000+i))
		}
		right := (pe.MyPE() + 1) % n
		left := (pe.MyPE() + n - 1) % n

		// Blocking puts below and above the unroll threshold.
		for _, cnt := range []int{1, 4, 7, 8, 64, nelems} {
			if err := impl.Put(pe, TypeULong, buf+8*nelems, buf, cnt, 1, right); err != nil {
				return err
			}
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		// Blocking gets, strided and contiguous.
		for _, cnt := range []int{3, 8, 100} {
			if err := impl.Get(pe, TypeULong, land, buf, cnt, 2, left); err != nil {
				return err
			}
		}
		// Non-blocking batch against both neighbours.
		h1, err := impl.put(pe, TypeUInt, buf+8*nelems, buf, 40, 1, left, true)
		if err != nil {
			return err
		}
		h2, err := impl.get(pe, TypeULong, land, buf, 40, 1, right, true)
		if err != nil {
			return err
		}
		pe.Wait(h1)
		pe.Wait(h2)
		// PE-local transfer for the local path.
		if err := impl.Put(pe, TypeULong, land+8*64, buf, 32, 1, pe.MyPE()); err != nil {
			return err
		}
		return pe.Barrier()
	})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}

	stats := make([]Stats, rt.NumPEs())
	for r := range stats {
		stats[r] = rt.PE(r).Stats()
	}
	fab := rt.Machine().Fabric
	return stats, fab.Messages(), fab.Bytes(), fab.ContentionCycles()
}

// TestStreamMatchesReference checks that the batched stream path books
// exactly the same virtual-time schedule as refPutGet: per-PE Stats and
// fabric aggregates agree cycle for cycle under the deterministic
// scheduler.
func TestStreamMatchesReference(t *testing.T) {
	for _, npes := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("npes=%d", npes), func(t *testing.T) {
			fast, fMsgs, fBytes, fCont := runEquivWorkload(t, npes, streamPutGet)
			ref, rMsgs, rBytes, rCont := runEquivWorkload(t, npes, refPutGet)
			for r := range fast {
				if fast[r] != ref[r] {
					t.Errorf("PE %d stats diverge: stream %+v reference %+v", r, fast[r], ref[r])
				}
			}
			if fMsgs != rMsgs || fBytes != rBytes || fCont != rCont {
				t.Errorf("fabric totals diverge: stream msgs=%d bytes=%d cont=%d, reference msgs=%d bytes=%d cont=%d",
					fMsgs, fBytes, fCont, rMsgs, rBytes, rCont)
			}
		})
	}
}

// TestStreamMatchesReferenceValues checks that both implementations
// deliver the same data.
func TestStreamMatchesReferenceValues(t *testing.T) {
	for name, impl := range map[string]transferImpl{"stream": streamPutGet, "reference": refPutGet} {
		rt := MustNew(Config{NumPEs: 2, Deterministic: true})
		err := rt.Run(func(pe *PE) error {
			buf, err := pe.Malloc(8 * 128)
			if err != nil {
				return err
			}
			for i := 0; i < 64; i++ {
				pe.Poke(TypeULong, buf+uint64(i)*8, uint64(pe.MyPE()+1)*100+uint64(i))
			}
			if err := pe.Barrier(); err != nil {
				return err
			}
			if pe.MyPE() == 0 {
				if err := impl.Put(pe, TypeULong, buf+8*64, buf, 64, 1, 1); err != nil {
					return err
				}
			}
			if err := pe.Barrier(); err != nil {
				return err
			}
			if pe.MyPE() == 1 {
				for i := 0; i < 64; i++ {
					want := uint64(100 + i)
					if got := pe.Peek(TypeULong, buf+8*64+uint64(i)*8); got != want {
						return fmt.Errorf("%s elem %d: got %d want %d", name, i, got, want)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.Close()
	}
}
