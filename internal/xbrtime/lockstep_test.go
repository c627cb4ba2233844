package xbrtime

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// tokenSched is what a scheduler script drives: the hand-off scheduler
// and the reference both provide it.
type tokenSched interface {
	start(rank int)
	yield(rank int, clock uint64)
	block(rank int, clock uint64)
	wake(rank int, at uint64)
	unblock(rank int, clock uint64)
	done(rank int)
}

// refLockstep is the scheduler lockstep.go was first written as — one
// condition variable, a broadcast on every transition, every woken PE
// re-scanning all states — kept as the oracle for the token order.
type refLockstep struct {
	mu    sync.Mutex
	cond  *sync.Cond
	state []uint8
	clock []uint64
}

func newRefLockstep(n int) *refLockstep {
	ls := &refLockstep{state: make([]uint8, n), clock: make([]uint64, n)}
	ls.cond = sync.NewCond(&ls.mu)
	return ls
}

func (ls *refLockstep) chosen(rank int) bool {
	best := -1
	for r, st := range ls.state {
		switch st {
		case lsRunning:
			return false
		case lsReady:
			if best == -1 || ls.clock[r] < ls.clock[best] {
				best = r
			}
		}
	}
	return best == rank
}

func (ls *refLockstep) waitTurn(rank int) {
	ls.mu.Lock()
	for !ls.chosen(rank) {
		ls.cond.Wait()
	}
	ls.state[rank] = lsRunning
	ls.mu.Unlock()
}

func (ls *refLockstep) start(rank int) { ls.waitTurn(rank) }

func (ls *refLockstep) yield(rank int, clock uint64) {
	ls.mu.Lock()
	ls.state[rank] = lsReady
	ls.clock[rank] = clock
	ls.cond.Broadcast()
	for !ls.chosen(rank) {
		ls.cond.Wait()
	}
	ls.state[rank] = lsRunning
	ls.mu.Unlock()
}

func (ls *refLockstep) block(rank int, clock uint64) {
	ls.mu.Lock()
	ls.state[rank] = lsBlocked
	ls.clock[rank] = clock
	ls.cond.Broadcast()
	ls.mu.Unlock()
}

func (ls *refLockstep) wake(rank int, at uint64) {
	ls.mu.Lock()
	if ls.state[rank] == lsBlocked {
		ls.state[rank] = lsReady
		if ls.clock[rank] < at {
			ls.clock[rank] = at
		}
		ls.cond.Broadcast()
	}
	ls.mu.Unlock()
}

func (ls *refLockstep) unblock(rank int, clock uint64) { ls.yield(rank, clock) }

func (ls *refLockstep) done(rank int) {
	ls.mu.Lock()
	ls.state[rank] = lsDone
	ls.cond.Broadcast()
	ls.mu.Unlock()
}

// replayScript runs a seeded random yield/block/wake/done program of n
// PEs on s and returns the sequence of token holders. Every decision is
// taken while holding the token from the PE's own generator and from
// state only token holders touch, so the program is a pure function of
// the seed and the holder sequence a pure function of the scheduler.
// Sleepers park the way barrier waiters do: on a condition variable
// under a lock, re-queued by the waker through s.wake.
func replayScript(s tokenSched, n, steps int, seed int64) []int {
	var (
		mu       sync.Mutex // the "barrier lock" sleepers park under
		conds    = make([]sync.Cond, n)
		sleeping = make([]bool, n)
		resume   = make([]uint64, n)
		awake    = n // PEs neither asleep nor done
		holders  []int
	)
	for r := range conds {
		conds[r].L = &mu
	}
	// wakeOne re-queues sleeper x; the caller holds the token and mu.
	wakeOne := func(x int, at uint64) {
		sleeping[x] = false
		awake++
		if resume[x] < at {
			resume[x] = at
		}
		s.wake(x, at)
		conds[x].Signal()
	}
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(me)))
			clock := uint64(0)
			s.start(me)
			holders = append(holders, me)
			for i := 0; i < steps; i++ {
				clock += uint64(rng.Intn(40))
				switch op := rng.Intn(10); {
				case op < 2 && awake > 1: // sleep until a peer wakes us
					mu.Lock()
					sleeping[me] = true
					resume[me] = clock
					awake--
					s.block(me, clock)
					for sleeping[me] {
						conds[me].Wait()
					}
					clock = resume[me]
					mu.Unlock()
					s.unblock(me, clock)
				case op < 5: // wake a sleeper, if there is one
					mu.Lock()
					first := rng.Intn(n)
					for d := 0; d < n; d++ {
						if x := (first + d) % n; sleeping[x] {
							wakeOne(x, clock+uint64(rng.Intn(60)))
							break
						}
					}
					mu.Unlock()
					s.yield(me, clock)
				default:
					s.yield(me, clock)
				}
				holders = append(holders, me)
			}
			// The last PE awake must not leave sleepers behind.
			mu.Lock()
			if awake == 1 {
				for x := range sleeping {
					if sleeping[x] {
						wakeOne(x, clock)
					}
				}
			}
			awake--
			mu.Unlock()
			s.done(me)
		}(rank)
	}
	wg.Wait()
	return holders
}

// TestLockstepMatchesReference replays the same scripts on the hand-off
// scheduler and on the broadcast-and-rescan reference: the token must
// visit the same PEs in the same order.
func TestLockstepMatchesReference(t *testing.T) {
	for _, n := range []int{2, 8, 64} {
		steps := 2000 / n
		for seed := int64(1); seed <= 6; seed++ {
			want := replayScript(newRefLockstep(n), n, steps, seed)
			ls := newLockstep(n)
			pes := make([]*PE, n)
			for r := range pes {
				pes[r] = &PE{rank: r}
			}
			ls.reset(pes, func() { t.Errorf("n=%d seed=%d: script stalled", n, seed) })
			got := replayScript(ls, n, steps, seed)
			if len(want) != n*(steps+1) {
				t.Fatalf("n=%d seed=%d: reference logged %d holders, want %d", n, seed, len(want), n*(steps+1))
			}
			if !reflect.DeepEqual(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Fatalf("n=%d seed=%d: token order diverges at transfer %d of %d", n, seed, i, len(want))
			}
		}
	}
}

// TestLockstepTokenExclusive increments a plain counter from every PE
// between the scheduling points of a put / flag ping-pong / barrier
// mix. Only the token orders the increments, so under -race any two
// holders at once are a reported data race (run with -race -count=10),
// and a lost update shows in the total.
func TestLockstepTokenExclusive(t *testing.T) {
	const n, rounds = 64, 6
	for _, alg := range []BarrierAlgorithm{BarrierCentral, BarrierDissemination} {
		rt := MustNew(Config{NumPEs: n, Deterministic: true, Barrier: alg})
		counter := 0
		err := rt.Run(func(pe *PE) error {
			me := pe.MyPE()
			buf, err := pe.Malloc(64)
			if err != nil {
				return err
			}
			flag, err := pe.Malloc(8)
			if err != nil {
				return err
			}
			for i := 0; i < rounds; i++ {
				counter++
				pe.Advance(uint64(me*7+i) % 13)
				right := (me + 1) % n
				h, err := pe.PutNB(TypeInt64, buf, buf+8, 1, 1, right)
				if err != nil {
					return err
				}
				counter++
				if err := pe.SignalAfter(h, flag, right); err != nil {
					return err
				}
				if err := pe.WaitFlag(flag); err != nil {
					return err
				}
				counter++
				pe.Wait(h)
				if err := pe.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if want := n * rounds * 3; counter != want {
			t.Errorf("%s: counter = %d, want %d", alg, counter, want)
		}
	}
}

// waitGoroutines waits for the goroutine count to drop back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 200 {
			t.Fatalf("%d goroutines still alive, %d before Run", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFailingPEReleasesSleepers: a PE that returns an error while its
// peers sleep in a barrier or a flag wait releases every one of them,
// on both clocks, and Run reports the failure, not a release.
func TestFailingPEReleasesSleepers(t *testing.T) {
	boom := errors.New("boom")
	const n = 5
	team := []int{4, 3, 2, 1, 0} // PE 3 is a member and never arrives
	sleeps := []struct {
		name    string
		barrier BarrierAlgorithm
		sleep   func(pe *PE, tm *Team, flag uint64) error
		release error
	}{
		{"central", BarrierCentral, func(pe *PE, _ *Team, _ uint64) error { return pe.Barrier() }, ErrBarrierBroken},
		{"dissemination", BarrierDissemination, func(pe *PE, _ *Team, _ uint64) error { return pe.Barrier() }, ErrBarrierBroken},
		{"team", BarrierCentral, func(pe *PE, tm *Team, _ uint64) error { return pe.TeamBarrier(tm) }, ErrBarrierBroken},
		{"flag", BarrierCentral, func(pe *PE, _ *Team, flag uint64) error { return pe.WaitFlag(flag) }, ErrWaitBroken},
	}
	for _, s := range sleeps {
		for _, det := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/lockstep=%v", s.name, det), func(t *testing.T) {
				base := runtime.NumGoroutine()
				rt := MustNew(Config{NumPEs: n, Deterministic: det, Barrier: s.barrier})
				tm, err := rt.NewTeam(team)
				if err != nil {
					t.Fatal(err)
				}
				err = rt.Run(func(pe *PE) error {
					flag, err := pe.Malloc(16)
					if err != nil {
						return err
					}
					if err := pe.Barrier(); err != nil { // one good epoch first
						return err
					}
					if pe.MyPE() == 3 {
						pe.Advance(5000) // fail after the others are asleep
						if err := pe.Put(TypeInt64, flag+8, flag+8, 1, 1, 0); err != nil {
							return err
						}
						return boom
					}
					err = s.sleep(pe, tm, flag)
					if !errors.Is(err, s.release) {
						t.Errorf("PE %d: sleep returned %v, want %v", pe.MyPE(), err, s.release)
					}
					return err
				})
				if !errors.Is(err, boom) {
					t.Errorf("Run = %v, want the failing PE's error", err)
				}
				waitGoroutines(t, base)
			})
		}
	}
}

// TestLockstepStallDiagnosed: a lockstep program whose live PEs all
// sleep on something nobody will signal returns ErrStalled, naming each
// sleeper, instead of hanging.
func TestLockstepStallDiagnosed(t *testing.T) {
	cases := []struct {
		name    string
		barrier BarrierAlgorithm
		prog    func(pe *PE, tm *Team, flag uint64) error
		want    []string
	}{
		{"flag", BarrierCentral, func(pe *PE, _ *Team, flag uint64) error {
			if pe.MyPE() == 1 {
				return pe.WaitFlag(flag) // nobody posts it
			}
			return nil
		}, []string{"PE 1 at cycle ", "WaitFlag(0x"}},
		{"central", BarrierCentral, func(pe *PE, _ *Team, _ uint64) error {
			if pe.MyPE() == 0 {
				return nil // skips the barrier
			}
			return pe.Barrier()
		}, []string{"PE 1 at cycle ", "PE 2 at cycle ", "a central barrier"}},
		{"dissemination", BarrierDissemination, func(pe *PE, _ *Team, _ uint64) error {
			if pe.MyPE() == 2 {
				return nil
			}
			return pe.Barrier()
		}, []string{"PE 0 at cycle ", "dissemination barrier 0 round "}},
		{"team", BarrierCentral, func(pe *PE, tm *Team, _ uint64) error {
			if pe.MyPE() == 2 {
				return pe.TeamBarrier(tm) // PE 0 never joins
			}
			return nil
		}, []string{"PE 2 at cycle ", "a central barrier"}},
		{"mixed", BarrierCentral, func(pe *PE, _ *Team, flag uint64) error {
			if pe.MyPE() == 0 {
				return pe.WaitFlag(flag)
			}
			return pe.Barrier()
		}, []string{"PE 0 at cycle ", "WaitFlag(0x", "PE 2 at cycle ", "a central barrier"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			rt := MustNew(Config{NumPEs: 3, Deterministic: true, Barrier: c.barrier})
			tm, err := rt.NewTeam([]int{0, 2})
			if err != nil {
				t.Fatal(err)
			}
			result := make(chan error, 1)
			go func() {
				result <- rt.Run(func(pe *PE) error {
					flag, err := pe.Malloc(8)
					if err != nil {
						return err
					}
					return c.prog(pe, tm, flag)
				})
			}()
			select {
			case err = <-result:
			case <-time.After(30 * time.Second):
				t.Fatal("stalled program hung instead of returning a diagnosis")
			}
			if !errors.Is(err, ErrStalled) {
				t.Fatalf("Run = %v, want ErrStalled", err)
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("diagnosis %q does not mention %q", err, w)
				}
			}
			waitGoroutines(t, base)
		})
	}
}

var benchClock uint64

// BenchmarkLockstepYield measures one token transfer: every PE advances
// its clock by the same amount and yields, so the token goes round
// robin and each yield hands it to another goroutine.
func BenchmarkLockstepYield(b *testing.B) {
	for _, n := range []int{8, 64, 1024} {
		b.Run(fmt.Sprintf("%dpe", n), func(b *testing.B) {
			rt := MustNew(Config{NumPEs: n, Deterministic: true})
			per := b.N/n + 1
			b.ReportAllocs()
			b.ResetTimer()
			if err := rt.Run(func(pe *PE) error {
				for i := 0; i < per; i++ {
					pe.Advance(1)
					pe.lsYield()
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			benchClock = rt.MaxClock()
		})
	}
}
