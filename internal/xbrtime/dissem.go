package xbrtime

import (
	"math/bits"
	"sync"
)

// BarrierAlgorithm selects the world-barrier implementation.
type BarrierAlgorithm uint8

// Barrier algorithms.
const (
	// BarrierCentral is the paper's "simple barrier": arrivals gather
	// at PE 0, which releases the group (default).
	BarrierCentral BarrierAlgorithm = iota
	// BarrierDissemination is the classic ⌈log₂N⌉-round dissemination
	// barrier: in round k every PE signals the peer 2^k ranks ahead and
	// waits for the peer 2^k ranks behind. No central bottleneck; an
	// ablation benchmark compares the two.
	BarrierDissemination
)

// String names the algorithm.
func (a BarrierAlgorithm) String() string {
	switch a {
	case BarrierCentral:
		return "central"
	case BarrierDissemination:
		return "dissemination"
	}
	return "unknown"
}

// dissemKey identifies one rendezvous slot: the receiver's rank and
// barrier epoch plus the round.
type dissemKey struct {
	epoch uint64
	round int
	dst   int
}

// dissemState carries the rendezvous slots of the dissemination
// barrier. Senders post their signal's arrival time; receivers wait for
// their slot and consume it.
type dissemState struct {
	mu     sync.Mutex
	conds  []sync.Cond // conds[r] is where PE r sleeps, all on mu
	slots  map[dissemKey]uint64
	broken bool
	// waiting records, per blocked PE, the exact slot it sleeps on, so
	// the sender that fills the slot wakes that PE alone and, in
	// lockstep mode, re-queues it with the scheduler immediately (see
	// lockstep.wake).
	waiting map[int]dissemKey
}

func newDissemState(n int) *dissemState {
	d := &dissemState{
		conds:   make([]sync.Cond, n),
		slots:   make(map[dissemKey]uint64),
		waiting: make(map[int]dissemKey),
	}
	for r := range d.conds {
		d.conds[r].L = &d.mu
	}
	return d
}

func (d *dissemState) breakBarrier() {
	d.mu.Lock()
	if !d.broken { // survivors of a failure each break again
		d.broken = true
		for r := range d.conds {
			d.conds[r].Signal()
		}
	}
	d.mu.Unlock()
}

// sleeper returns the slot PE rank is asleep on, if any.
func (d *dissemState) sleeper(rank int) (dissemKey, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	k, ok := d.waiting[rank]
	return k, ok
}

// dissemBarrier runs one dissemination barrier for pe.
func (pe *PE) dissemBarrier() error {
	d := pe.rt.dissem
	n := pe.rt.cfg.NumPEs
	rounds := bits.Len(uint(n - 1)) // ⌈log₂ n⌉
	epoch := pe.dissemEpoch
	pe.dissemEpoch++

	for k := 0; k < rounds; k++ {
		// In lockstep mode each round's signal books in clock order.
		pe.lsYield()
		dst, arrive, err := pe.rt.timing.DissemSignal(pe.rank, k, n, pe.clock)
		if err != nil {
			return err
		}
		d.mu.Lock()
		key := dissemKey{epoch, k, dst}
		d.slots[key] = arrive
		if wk, ok := d.waiting[dst]; ok && wk == key {
			// The peer sleeps on exactly this slot: re-queue it with the
			// lockstep scheduler at its resume clock before moving on.
			delete(d.waiting, dst)
			pe.lsWake(dst, arrive)
			d.conds[dst].Signal()
		}
		// Wait for the signal addressed to us in this round and epoch.
		me := dissemKey{epoch, k, pe.rank}
		blocked := false
		for {
			if d.broken {
				delete(d.waiting, pe.rank)
				d.mu.Unlock()
				if blocked {
					pe.lsUnblock()
				}
				return ErrBarrierBroken
			}
			if t, ok := d.slots[me]; ok {
				delete(d.slots, me)
				delete(d.waiting, pe.rank)
				d.mu.Unlock()
				pe.advanceTo(t)
				if blocked {
					pe.lsUnblock()
				}
				break
			}
			if !blocked {
				// Hand the execution token back before sleeping; record
				// which slot we sleep on so the sender can wake us.
				d.waiting[pe.rank] = me
				pe.lsBlock()
				blocked = true
			}
			d.conds[pe.rank].Wait()
		}
	}
	return nil
}
