package xbrtime

import (
	"errors"
	"sync"
)

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

// flagCell is the host-side state of one flag word. Posts and consumes
// are counted rather than toggled so a cell can be reused across plan
// executions after the heap recycles its address; `at` carries the
// arrival time of the latest unconsumed post (plans pair every post
// with exactly one wait, so at most one post is outstanding per cell).
type flagCell struct {
	posted   uint64
	consumed uint64
	at       uint64
	by       int // rank of the latest poster (critical-path attribution)
}

// flagHub is the rendezvous for point-to-point completion flags, the
// dependency mechanism segmented plans use instead of per-round world
// barriers. It mirrors dissemState: senders post arrival times,
// receivers wait for their cell and consume it, and Run marks the hub
// broken when a PE fails so waiters unwind instead of deadlocking.
type flagHub struct {
	mu     sync.Mutex
	conds  []sync.Cond // conds[r] is where PE r sleeps, all on mu
	cells  map[flagKey]*flagCell
	broken bool
	// waiting records, per blocked PE, the flag it sleeps on, so the
	// signaller wakes that PE alone and, in lockstep mode, re-queues it
	// with the scheduler immediately (see lockstep.wake).
	waiting map[int]flagKey
}

func newFlagHub(n int) *flagHub {
	fh := &flagHub{
		conds:   make([]sync.Cond, n),
		cells:   make(map[flagKey]*flagCell),
		waiting: make(map[int]flagKey),
	}
	for r := range fh.conds {
		fh.conds[r].L = &fh.mu
	}
	return fh
}

func (fh *flagHub) breakAll() {
	fh.mu.Lock()
	if !fh.broken { // survivors of a failure each break again
		fh.broken = true
		for r := range fh.conds {
			fh.conds[r].Signal()
		}
	}
	fh.mu.Unlock()
}

// sleeper returns the flag PE rank is asleep on, if any.
func (fh *flagHub) sleeper(rank int) (flagKey, bool) {
	fh.mu.Lock()
	defer fh.mu.Unlock()
	k, ok := fh.waiting[rank]
	return k, ok
}

// post records one signal arriving at key at time `at` and wakes the
// waiter sleeping on it, if any.
func (fh *flagHub) post(pe *PE, k flagKey, at uint64) {
	fh.mu.Lock()
	c := fh.cells[k]
	if c == nil {
		c = &flagCell{}
		fh.cells[k] = c
	}
	c.posted++
	c.by = pe.rank
	if at > c.at {
		c.at = at
	}
	if wk, ok := fh.waiting[k.rank]; ok && wk == k {
		delete(fh.waiting, k.rank)
		pe.lsWake(k.rank, at)
		fh.conds[k.rank].Signal()
	}
	fh.mu.Unlock()
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
	fh := pe.rt.flags
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
	fh.post(pe, flagKey{target, addr}, arrive)
	return nil
}

// WaitFlag blocks until the flag word at local symmetric address addr
// has been posted, consumes the post, and advances the clock to the
// signal's arrival time — the WaitUntil-style primitive segmented plans
// use for step-level dependencies.
func (pe *PE) WaitFlag(addr uint64) error {
	fh := pe.rt.flags
	k := flagKey{pe.rank, addr}
	pe.Advance(flagPollCPU)
	fh.mu.Lock()
	c := fh.cells[k]
	if c == nil {
		c = &flagCell{}
		fh.cells[k] = c
	}
	blocked := false
	for {
		if fh.broken {
			delete(fh.waiting, pe.rank)
			fh.mu.Unlock()
			if blocked {
				pe.lsUnblock()
			}
			return ErrWaitBroken
		}
		if c.posted > c.consumed {
			c.consumed++
			t := c.at
			pe.lastWaitBy = c.by
			delete(fh.waiting, pe.rank)
			fh.mu.Unlock()
			pe.advanceTo(t)
			if blocked {
				pe.lsUnblock()
			}
			return nil
		}
		if !blocked {
			// Hand the execution token back before sleeping; record the
			// flag we sleep on so the signaller can wake us.
			fh.waiting[pe.rank] = k
			pe.lsBlock()
			blocked = true
		}
		fh.conds[pe.rank].Wait()
	}
}
