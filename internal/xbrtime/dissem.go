package xbrtime

import "math/bits"

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
		d.post(pe, dst, dissemKey{epoch, k, dst}, arrive)
		// Wait for the signal addressed to us in this round and epoch.
		if _, ok := d.wait(pe, dissemKey{epoch, k, pe.rank}); !ok {
			return ErrBarrierBroken
		}
	}
	return nil
}
