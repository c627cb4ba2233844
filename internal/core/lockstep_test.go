package core

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"xbgas/internal/fabric"
	"xbgas/internal/xbrtime"
)

// lockstepMix runs a collective mix — pipelined broadcast and allreduce
// (flag waits), a hierarchical allreduce and a tree reduce (barriers) —
// on a 16-PE grouped lockstep runtime and returns the stats report and
// every PE's final clock.
func lockstepMix(t *testing.T, barrier xbrtime.BarrierAlgorithm) (string, []uint64) {
	t.Helper()
	const n, per, nelems = 16, 4, 40
	dt := xbrtime.TypeInt64
	rt, err := xbrtime.New(xbrtime.Config{
		NumPEs:        n,
		Topology:      fabric.Grouped{PerNode: per, N: n},
		Deterministic: true,
		Barrier:       barrier,
	})
	if err != nil {
		t.Fatal(err)
	}
	clocks := make([]uint64, n)
	if err := rt.Run(func(pe *xbrtime.PE) error {
		me := pe.MyPE()
		dest, err := pe.Malloc(nelems * 8)
		if err != nil {
			return err
		}
		src, err := pe.Malloc(nelems * 8)
		if err != nil {
			return err
		}
		for i := 0; i < nelems; i++ {
			pe.Poke(dt, src+uint64(i)*8, uint64(me*3+i))
		}
		pe.Advance(uint64(me%5) * 11) // skewed arrival
		if err := Broadcast(pe, dt, dest, src, nelems, 1, 3); err != nil {
			return err
		}
		if err := AllReduce(pe, dt, OpSum, dest, src, nelems, 1); err != nil {
			return err
		}
		if err := AllReduceWith(pe, AlgoHier, dt, OpMax, dest, src, nelems, 1); err != nil {
			return err
		}
		if err := Reduce(pe, dt, OpSum, dest, src, nelems, 1, 5); err != nil {
			return err
		}
		if me == 5 {
			if got, want := pe.Peek(dt, dest), uint64(3*n*(n-1)/2); got != want {
				t.Errorf("reduce at root = %d, want %d", got, want)
			}
		}
		clocks[me] = pe.Now()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rt.StatsReport(), clocks
}

// TestLockstepIndependentOfGOMAXPROCS: the token order, hence every
// statistic and clock, is the same whether the host runs the PE
// goroutines on one thread or on four.
func TestLockstepIndependentOfGOMAXPROCS(t *testing.T) {
	SetChunkBytes(64) // 8 elements a segment: the mix pipelines
	defer SetChunkBytes(0)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, barrier := range []xbrtime.BarrierAlgorithm{xbrtime.BarrierCentral, xbrtime.BarrierDissemination} {
		runtime.GOMAXPROCS(1)
		report1, clocks1 := lockstepMix(t, barrier)
		runtime.GOMAXPROCS(4)
		report4, clocks4 := lockstepMix(t, barrier)
		if report1 != report4 {
			t.Errorf("%s: StatsReport differs between GOMAXPROCS 1 and 4:\n%s\n---\n%s", barrier, report1, report4)
		}
		for r := range clocks1 {
			if clocks1[r] != clocks4[r] {
				t.Errorf("%s: PE %d finishes at cycle %d on one thread, %d on four", barrier, r, clocks1[r], clocks4[r])
			}
		}
	}
}

// TestLockstepStallKeepsPoolsBalanced: PE 1 enters a pipelined broadcast
// PE 0 never joins, so it sleeps on a flag nobody posts. The scheduler
// must return the diagnosis instead of hanging, and PE 1 must unwind
// with its workspace pools balanced and the plan's flag block freed.
func TestLockstepStallKeepsPoolsBalanced(t *testing.T) {
	SetChunkBytes(8)
	defer SetChunkBytes(0)

	const nelems = 8
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: 2, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu            sync.Mutex
		execErr       error
		ints, handles int
		leaked        uint64
	)
	err = rt.Run(func(pe *xbrtime.PE) error {
		dest, err := pe.Malloc(nelems * 8)
		if err != nil {
			return err
		}
		src, err := pe.Malloc(nelems * 8)
		if err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			return nil
		}
		before := pe.SharedUsed()
		err = Broadcast(pe, xbrtime.TypeInt64, dest, src, nelems, 1, 0)
		mu.Lock()
		execErr = err
		ints, handles = pe.WorkspaceOutstanding()
		leaked = pe.SharedUsed() - before
		mu.Unlock()
		return err
	})
	if !errors.Is(err, xbrtime.ErrStalled) {
		t.Fatalf("Run = %v, want ErrStalled", err)
	}
	if !errors.Is(execErr, xbrtime.ErrWaitBroken) {
		t.Errorf("stalled broadcast returned %v, want ErrWaitBroken", execErr)
	}
	if ints != 0 || handles != 0 {
		t.Errorf("workspace pools imbalanced after the stall: ints=%d handles=%d", ints, handles)
	}
	if leaked != 0 {
		t.Errorf("symmetric heap leaked %d bytes after the stall (flag block not freed?)", leaked)
	}
}
