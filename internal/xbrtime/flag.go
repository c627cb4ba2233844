package xbrtime

import "errors"

// ErrWaitBroken is returned from WaitFlag when another PE failed and
// the runtime released all flag waiters to avoid deadlocking the
// survivors (the flag analogue of ErrBarrierBroken).
var ErrWaitBroken = errors.New("xbrtime: flag wait broken by failing PE")

// flagPollCPU is the local cost of one completion-flag check: a load
// from the symmetric segment plus the branch of the poll loop.
const flagPollCPU = 8

// flagKey identifies one completion-flag word: the owning PE's rank and
// the word's symmetric address. The symmetric-heap contract (identical
// Malloc sequences on every PE) is what makes the address alone
// meaningful across ranks.
type flagKey struct {
	rank int
	addr uint64
}

// SignalAfter stores a completion flag to the word at symmetric address
// addr on PE target, ordered after the transfer behind h: the 8-byte
// flag message rides the fabric but is not delivered before h
// completes, modelling a flag store that trails its payload on the same
// ordered channel. h may be the zero Handle when the signal has no
// payload to trail (the sender's clock is then the only floor).
func (pe *PE) SignalAfter(h Handle, addr uint64, target int) error {
	if err := pe.checkTarget(target); err != nil {
		return err
	}
	notBefore := pe.clock
	if h.active && h.completeAt > notBefore {
		notBefore = h.completeAt
	}
	if target != pe.rank {
		// In lockstep mode the flag store books in clock order like any
		// other remote store.
		pe.lsYield()
	}
	next, arrive, err := pe.rt.timing.Signal(pe.rank, target, pe.clock, notBefore)
	if err != nil {
		return err
	}
	pe.clock = next
	pe.rt.flags.post(pe, target, flagKey{target, addr}, arrive)
	return nil
}

// WaitFlag blocks until the flag word at local symmetric address addr
// has been posted, consumes the post, and advances the clock to the
// signal's arrival time — the WaitUntil-style primitive segmented plans
// use for step-level dependencies.
func (pe *PE) WaitFlag(addr uint64) error {
	pe.Advance(flagPollCPU)
	by, ok := pe.rt.flags.wait(pe, flagKey{pe.rank, addr})
	if !ok {
		return ErrWaitBroken
	}
	pe.lastWaitBy = by
	return nil
}
