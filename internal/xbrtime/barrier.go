package xbrtime

import (
	"errors"
	"fmt"
	"sync"
)

// ErrBarrierBroken is returned from Barrier when another PE failed and
// the runtime released the barrier to avoid deadlocking the survivors.
var ErrBarrierBroken = errors.New("xbrtime: barrier broken by failing PE")

// barrierCPU is the local bookkeeping cost charged per barrier call.
const barrierCPU = 30

// barrierState implements a sense-reversing centralised barrier over an
// arbitrary member set: every member reports arrival to the first
// member, which releases the group. The paper's runtime ships "a simple
// barrier" (§3.3); the centralised barrier is the simplest correct
// choice and its cost model (gather to root, then a staggered release
// fan-out) matches that structure. The world barrier is the instance
// over all PEs; teams (paper §7 future work) get their own instances.
type barrierState struct {
	mu      sync.Mutex
	cond    *sync.Cond
	members []int // global PE ranks; members[0] collects arrivals
	count   int
	sense   bool
	maxArr  uint64
	maxBy   int            // rank whose arrival set maxArr (this epoch)
	relBy   int            // rank whose arrival gated the last release
	rel     map[int]uint64 // global rank -> release time
	broken  bool
}

func newBarrierState(n int) *barrierState {
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	return newTeamBarrierState(members)
}

func newTeamBarrierState(members []int) *barrierState {
	b := &barrierState{members: members, rel: make(map[int]uint64, len(members))}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrierState) breakBarrier() {
	b.mu.Lock()
	b.broken = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Barrier synchronises all PEs: xbrtime_barrier(). On return, every
// PE's virtual clock is at or after the latest arrival time plus the
// release cost of the configured algorithm.
func (pe *PE) Barrier() error {
	if pe.rt.cfg.Barrier == BarrierDissemination {
		start := pe.clock
		pe.lastWaitBy = -1 // dissemination has no single releasing rank
		pe.barriers++
		pe.Advance(barrierCPU)
		var err error
		if pe.rt.cfg.NumPEs > 1 {
			err = pe.dissemBarrier()
		}
		if err == nil && pe.ObsEnabled() {
			pe.obsBarrier(start)
		}
		return err
	}
	return pe.barrierOn(pe.rt.barrier)
}

// barrierOn wraps barrierOnImpl with observability: one "barrier" span
// from arrival to release, plus the barrier latency histogram.
func (pe *PE) barrierOn(b *barrierState) error {
	if !pe.ObsEnabled() {
		return pe.barrierOnImpl(b)
	}
	start := pe.clock
	err := pe.barrierOnImpl(b)
	if err == nil {
		pe.obsBarrier(start)
	}
	return err
}

// barrierOnImpl runs the sense-reversing protocol on one barrier
// instance. The calling PE must be a member.
func (pe *PE) barrierOnImpl(b *barrierState) error {
	pe.barriers++
	pe.Advance(barrierCPU)
	n := len(b.members)
	if n == 1 {
		return nil
	}
	coordinator := b.members[0]

	// Arrival notification to the coordinating PE. In lockstep mode
	// the send happens in virtual-clock order like any other booking.
	pe.lsYield()
	arrive, err := pe.rt.timing.BarrierArrive(pe.rank, coordinator, pe.clock)
	if err != nil {
		return err
	}

	b.mu.Lock()
	if b.broken {
		b.mu.Unlock()
		return ErrBarrierBroken
	}
	localSense := !b.sense
	b.count++
	if arrive > b.maxArr {
		b.maxArr = arrive
		b.maxBy = pe.rank
	}
	if b.count == n {
		// The coordinator releases everyone. In lockstep mode the
		// waiters are asleep inside cond.Wait; hand each back to the
		// scheduler at its release clock now, so the token ordering never
		// depends on how quickly the woken goroutine runs. The last
		// arriver does the release, so the coordinating member itself
		// may be one of the sleepers.
		b.relBy = b.maxBy // critical-path attribution: who gated the epoch
		err := pe.rt.timing.BarrierRelease(b.members, b.maxArr, func(m int, at uint64) {
			b.rel[m] = at
			if m != pe.rank {
				pe.lsWake(m, at)
			}
		})
		if err != nil {
			b.mu.Unlock()
			return err
		}
		b.count = 0
		b.maxArr = 0
		b.maxBy = 0
		b.sense = localSense
		b.cond.Broadcast()
		rel := b.rel[pe.rank]
		pe.lastWaitBy = b.relBy
		b.mu.Unlock()
		pe.advanceTo(rel)
		return nil
	}
	// Waiter: hand the execution token back before sleeping so the
	// remaining PEs can reach the barrier, reacquire it on wakeup.
	pe.lsBlock(&b.mu)
	for b.sense != localSense && !b.broken {
		b.cond.Wait()
	}
	broken := b.broken
	rel := b.rel[pe.rank]
	pe.lastWaitBy = b.relBy
	b.mu.Unlock()
	pe.advanceTo(rel)
	pe.lsUnblock()
	if broken {
		return ErrBarrierBroken
	}
	return nil
}

// Team is an ordered subset of PEs that can synchronise and communicate
// collectively among themselves — the "integration of collective
// functionality between a subset of PEs" the paper lists as future work
// (§7). Team rank i is the PE at Members()[i]; team rank 0 coordinates
// the team barrier.
type Team struct {
	rt      *Runtime
	members []int
	index   map[int]int // global rank -> team rank
	barrier *barrierState
}

// NewTeam creates a team from the given global PE ranks. Ranks must be
// unique and valid; order defines team ranks.
func (rt *Runtime) NewTeam(members []int) (*Team, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("xbrtime: team needs at least one member")
	}
	index := make(map[int]int, len(members))
	for i, m := range members {
		if m < 0 || m >= rt.cfg.NumPEs {
			return nil, fmt.Errorf("xbrtime: team member %d outside 0..%d", m, rt.cfg.NumPEs-1)
		}
		if _, dup := index[m]; dup {
			return nil, fmt.Errorf("xbrtime: duplicate team member %d", m)
		}
		index[m] = i
	}
	t := &Team{
		rt:      rt,
		members: append([]int(nil), members...),
		index:   index,
		barrier: newTeamBarrierState(append([]int(nil), members...)),
	}
	rt.barriersMu.Lock()
	rt.barriers = append(rt.barriers, t.barrier)
	rt.barriersMu.Unlock()
	return t, nil
}

// WorldTeam returns a team containing every PE in rank order.
func (rt *Runtime) WorldTeam() *Team {
	members := make([]int, rt.cfg.NumPEs)
	for i := range members {
		members[i] = i
	}
	t, err := rt.NewTeam(members)
	if err != nil {
		panic(err) // full member set is always valid
	}
	return t
}

// Size returns the number of team members.
func (t *Team) Size() int { return len(t.members) }

// Member returns the global PE rank of team rank i.
func (t *Team) Member(i int) int { return t.members[i] }

// Rank returns pe's team rank, or false if pe is not a member.
func (t *Team) Rank(pe *PE) (int, bool) {
	r, ok := t.index[pe.rank]
	return r, ok
}

// Contains reports whether the global rank is a team member.
func (t *Team) Contains(globalRank int) bool {
	_, ok := t.index[globalRank]
	return ok
}

// TeamBarrier synchronises the team's members. Only members may call
// it, and every member must.
func (pe *PE) TeamBarrier(t *Team) error {
	if _, ok := t.Rank(pe); !ok {
		return fmt.Errorf("xbrtime: PE %d is not a member of the team", pe.rank)
	}
	return pe.barrierOn(t.barrier)
}
