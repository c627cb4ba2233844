package xbrtime

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Lockstep execution (Config.Deterministic).
//
// The windowed fabric booking is insensitive to host scheduling up to
// congestion-window granularity, but *within* a window the queueing
// delay a message sees depends on how much service was booked before
// it — and free-running PE goroutines book in host arrival order. For
// exactly reproducible cycle totals the runtime therefore offers a
// lockstep mode: a single execution token circulates among the PEs,
// and at every point where a PE is about to touch shared simulation
// state (a remote transfer, a barrier signal) it re-queues and the
// token goes to the runnable PE with the smallest virtual clock
// (ties to the lowest rank). Every instruction of the PE functions
// executes while holding the token, so the interleaving — and with it
// every booking, every value, every statistic — is a pure function of
// the program, independent of GOMAXPROCS and goroutine scheduling.
//
// Hand-off. The token moves by direct hand-off: the PE that gives it up
// (yield, block, done) pops the next holder off a min-heap of the ready
// PEs itself, under mu, and wakes only that PE through its grant
// channel. A yielder that is still the minimum keeps the token without
// a goroutine switch. The ready set cannot change while the token is
// free — only the holder makes PEs ready (its own yield, a wake of a
// sleeper) — so picking at release time chooses exactly the PE a scan
// at any later moment would.
//
// Sleepers. A PE that blocks in a barrier or keyed wait (a flag, a
// dissemination slot: the Mailbox of a rendezvous) sleeps on that
// structure's condition variable, not on its grant. It gives the token
// up (block) with the structure's lock dropped and looks at its wait
// condition again before it sleeps. The waker marks it ready at its
// resume clock (wake), so the scheduler may grant it the token while
// its goroutine is still inside cond.Wait; the grant waits in the
// channel until the sleeper reaches unblock. A sleeper released by a
// *broken* barrier or rendezvous was never woken: unblock re-queues it
// and, if the token is free, dispatches.
//
// PE states. A PE is ready (wants the token), running (holds it, or has
// been granted it and not yet resumed), blocked (asleep inside a
// barrier or flag wait; the token moves on without it), or done.
const (
	lsReady uint8 = iota
	lsRunning
	lsBlocked
	lsDone
)

// ReadyPE is one entry of a ReadyQueue. No two entries share a rank,
// so (Clock, Rank) orders them strictly.
type ReadyPE struct {
	Clock uint64
	Rank  int
}

// Before reports whether a runs before b: smaller clock, ties to the
// lower rank.
func (a ReadyPE) Before(b ReadyPE) bool {
	return a.Clock < b.Clock || a.Clock == b.Clock && a.Rank < b.Rank
}

// ReadyQueue is a binary min-heap of ready PEs ordered by (clock, rank):
// the lockstep scheduler's run queue, and the event queue of core's dry
// run, which replays a plan in the same order on one goroutine. A PE
// leaves it only by being picked, so push and pop-min are the whole
// interface. (A linear scan over the PE states was 20 % of the CPU
// samples of the 1024-PE allreduce gate and 32 % of
// BenchmarkLockstepYield/1024pe.)
type ReadyQueue []ReadyPE

// Push adds e.
func (q *ReadyQueue) Push(e ReadyPE) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.Before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	*q = h
}

// Pop removes and returns the minimum. The queue must not be empty.
func (q *ReadyQueue) Pop() ReadyPE {
	h := *q
	n := len(h)
	min, last := h[0], h[n-1]
	*q = h[:n-1]
	if n > 1 {
		(*q).replaceMin(last)
	}
	return min
}

// Swap is Push(e) followed by Pop in one pass: it returns e itself,
// leaving the queue alone, when e runs before everything queued.
func (q ReadyQueue) Swap(e ReadyPE) ReadyPE {
	if len(q) == 0 || e.Before(q[0]) {
		return e
	}
	min := q[0]
	q.replaceMin(e)
	return min
}

// replaceMin overwrites the heap's root with e and restores the order.
func (q ReadyQueue) replaceMin(e ReadyPE) {
	i := 0
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if c+1 < len(q) && q[c+1].Before(q[c]) {
			c++
		}
		if !q[c].Before(e) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = e
}

// lockstep is the token scheduler. A runtime owns one and resets it at
// the start of every Run.
type lockstep struct {
	mu      sync.Mutex
	state   []uint8
	clock   []uint64 // per PE: the clock it was queued or blocked at
	ready   ReadyQueue
	blocked int // PEs in lsBlocked
	holder  int // rank marked running, -1 while the token is free
	// grant[r] carries the token to PE r. At most one grant per PE is
	// ever outstanding (a PE is granted only on ready→running and must
	// receive before it can become ready again), so sends never block.
	grant []chan struct{}
	// broken is set once the runtime has released its barriers and flag
	// waits; blocked PEs then re-queue on their own and a dispatch that
	// finds nobody ready is not a stall.
	broken bool
	// onStall runs when a block or done finds the token free, no PE
	// ready and at least one blocked: nobody can wake them. It runs
	// synchronously on the PE that gave the token up, after mu is
	// released and with no barrier or rendezvous lock held, so it may
	// take those locks and release the sleepers itself.
	onStall func()
}

func newLockstep(n int) *lockstep {
	ls := &lockstep{
		state: make([]uint8, n),
		clock: make([]uint64, n),
		ready: make(ReadyQueue, 0, n),
		grant: make([]chan struct{}, n),
	}
	for r := range ls.grant {
		ls.grant[r] = make(chan struct{}, 1)
	}
	return ls
}

// reset registers every PE ready at its clock and dispatches, so the
// first PE to run is determined before any goroutine is spawned.
func (ls *lockstep) reset(pes []*PE, onStall func()) {
	ls.mu.Lock()
	ls.ready = ls.ready[:0]
	for r, pe := range pes {
		ls.enqueue(r, pe.clock)
	}
	ls.blocked = 0
	ls.broken = false
	ls.onStall = onStall
	ls.dispatch()
	ls.mu.Unlock()
}

// enqueue marks rank ready at clock.
func (ls *lockstep) enqueue(rank int, clock uint64) {
	ls.state[rank] = lsReady
	ls.clock[rank] = clock
	ls.ready.Push(ReadyPE{clock, rank})
}

// dispatch hands the free token to the ready PE with the smallest
// (clock, rank), if any. Callers hold ls.mu and have given the token up.
// It reports a stall — nobody ready, somebody blocked — once; the
// caller runs onStall after releasing ls.mu.
func (ls *lockstep) dispatch() (stalled bool) {
	if len(ls.ready) > 0 {
		ls.run(ls.ready.Pop().Rank)
		return false
	}
	ls.holder = -1
	if ls.blocked > 0 && !ls.broken {
		ls.broken = true
		return true
	}
	return false
}

// run marks next as the token holder and wakes it.
func (ls *lockstep) run(next int) {
	ls.state[next] = lsRunning
	ls.holder = next
	ls.grant[next] <- struct{}{}
}

// markBroken tells the scheduler the runtime released its sleepers.
func (ls *lockstep) markBroken() {
	ls.mu.Lock()
	ls.broken = true
	ls.mu.Unlock()
}

// start waits for rank's first grant (reset marked the PE ready).
func (ls *lockstep) start(rank int) { <-ls.grant[rank] }

// yield re-queues rank at the given clock and returns once it holds the
// token again. PEs call it immediately before booking shared resources
// so bookings happen in virtual-clock order.
func (ls *lockstep) yield(rank int, clock uint64) {
	me := ReadyPE{clock, rank}
	ls.mu.Lock()
	next := ls.ready.Swap(me)
	if next == me {
		// Still the minimum: keep the token, no goroutine switch.
		ls.mu.Unlock()
		return
	}
	ls.state[rank] = lsReady
	ls.clock[rank] = clock
	ls.run(next.Rank)
	ls.mu.Unlock()
	<-ls.grant[rank]
}

// block releases the token without re-queuing: the PE is about to
// sleep on a barrier condition and cannot run until a peer wakes it.
// The clock is recorded so the waker can compute the resume clock.
// block never waits; when it finds a stall it runs onStall.
func (ls *lockstep) block(rank int, clock uint64) {
	ls.mu.Lock()
	ls.state[rank] = lsBlocked
	ls.clock[rank] = clock
	ls.blocked++
	stalled := ls.dispatch()
	ls.mu.Unlock()
	if stalled {
		ls.onStall()
	}
}

// wake marks a blocked PE ready at its resume clock (its blocked clock
// advanced to at least at). The *waker* calls it, while holding the
// token, at the moment it satisfies the wakee's wait condition — if the
// scheduler instead learned about the wakeup only when the wakee's
// goroutine got around to re-queuing itself, the token could visit a
// later-clocked PE in the meantime and the booking order would depend
// on host scheduling. No-op unless the PE is actually blocked.
func (ls *lockstep) wake(rank int, at uint64) {
	ls.mu.Lock()
	if ls.state[rank] == lsBlocked {
		ls.blocked--
		ls.enqueue(rank, max(ls.clock[rank], at))
	}
	ls.mu.Unlock()
}

// unblock reacquires the token after a barrier or flag sleep; clock is
// the PE's clock after the wait. Callers must not hold other locks.
func (ls *lockstep) unblock(rank int, clock uint64) {
	ls.mu.Lock()
	if ls.state[rank] == lsBlocked {
		// Released by a broken barrier or rendezvous, not by a waker.
		ls.blocked--
		ls.enqueue(rank, clock)
		if ls.holder < 0 {
			ls.dispatch()
		}
	} else if ls.clock[rank] != clock && !ls.broken {
		// The waker queued this PE at one clock and it resumes at
		// another: the token order would depend on host scheduling.
		panic("xbrtime: lockstep sleeper resumes at a clock its waker did not queue")
	}
	ls.mu.Unlock()
	<-ls.grant[rank]
}

// done retires rank permanently and passes the token on; when that
// leaves only sleepers it runs onStall.
func (ls *lockstep) done(rank int) {
	ls.mu.Lock()
	ls.state[rank] = lsDone
	stalled := ls.dispatch()
	ls.mu.Unlock()
	if stalled {
		ls.onStall()
	}
}

// ErrStalled is returned (wrapped, with one clause per sleeper) from a
// lockstep Run whose every unfinished PE is asleep in a barrier or flag
// wait: the program deadlocked.
var ErrStalled = errors.New("xbrtime: lockstep stall, every unfinished PE is blocked")

// diagnoseStall names what each blocked PE sleeps on. It runs on the
// PE whose block or done found the stall, so no PE is running, and
// every sleeper recorded its key before it gave the token up: the
// tables it reads are quiescent.
func (rt *Runtime) diagnoseStall() error {
	ls := rt.sched
	ls.mu.Lock()
	state := append([]uint8(nil), ls.state...)
	clock := append([]uint64(nil), ls.clock...)
	ls.mu.Unlock()
	var b strings.Builder
	for rank, st := range state {
		if st != lsBlocked {
			continue
		}
		fmt.Fprintf(&b, "; PE %d at cycle %d in ", rank, clock[rank])
		if k, ok := rt.flags.sleeper(rank); ok {
			fmt.Fprintf(&b, "WaitFlag(%#x)", k.addr)
		} else if k, ok := rt.dissem.sleeper(rank); ok {
			fmt.Fprintf(&b, "dissemination barrier %d round %d", k.epoch, k.round)
		} else {
			b.WriteString("a central barrier")
		}
	}
	return fmt.Errorf("%w%s", ErrStalled, b.String())
}

// lsYield re-queues the PE at its current clock if lockstep mode is
// active; otherwise it is free.
func (pe *PE) lsYield() {
	if ls := pe.rt.ls; ls != nil {
		ls.yield(pe.rank, pe.clock)
	}
}

// lsBlock releases the execution token before the PE sleeps on a wait
// guarded by mu, which the caller holds. In lockstep mode mu is dropped
// meanwhile — a stall found here is diagnosed and broken on this
// goroutine, under the waits' own locks — and lsBlock reports it: the
// caller must then look at its wait condition again before it sleeps.
func (pe *PE) lsBlock(mu *sync.Mutex) (dropped bool) {
	ls := pe.rt.ls
	if ls == nil {
		return false
	}
	mu.Unlock()
	ls.block(pe.rank, pe.clock)
	mu.Lock()
	return true
}

// lsWake re-queues a blocked peer at its resume clock. The caller holds
// the execution token and has just satisfied the peer's wait condition.
func (pe *PE) lsWake(rank int, at uint64) {
	if ls := pe.rt.ls; ls != nil {
		ls.wake(rank, at)
	}
}

// lsUnblock reacquires the execution token after a barrier wakeup.
// Must be called without the barrier lock held.
func (pe *PE) lsUnblock() {
	if ls := pe.rt.ls; ls != nil {
		ls.unblock(pe.rank, pe.clock)
	}
}
