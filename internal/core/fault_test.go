package core

import (
	"strings"
	"testing"

	"xbgas/internal/xbrtime"
)

// TestBroadcastSurvivesLinkFaultCleanly injects a link failure under a
// running broadcast and asserts the error propagates out of Run on
// every PE instead of deadlocking: the failing PE reports the fabric
// error; the survivors are released with ErrBarrierBroken.
func TestBroadcastSurvivesLinkFaultCleanly(t *testing.T) {
	const nPEs = 4
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: nPEs})
	if err != nil {
		t.Fatal(err)
	}
	// In the 4-PE broadcast tree from root 0, virtual rank 0 puts to 2
	// in round 0. Cut that link before anything starts.
	rt.Machine().Fabric.SetLinkState(0, 2, false)

	err = rt.Run(func(pe *xbrtime.PE) error {
		dest, err := pe.Malloc(8)
		if err != nil {
			return err
		}
		src, err := pe.PrivateAlloc(8)
		if err != nil {
			return err
		}
		return Broadcast(pe, xbrtime.TypeInt64, dest, src, 1, 1, 0)
	})
	if err == nil {
		t.Fatal("broadcast over a partitioned fabric must fail")
	}
	if !strings.Contains(err.Error(), "down") && !strings.Contains(err.Error(), "barrier") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestReduceSurvivesLinkFaultCleanly does the same for the get-based
// reduction (the get issues two fabric sends; cutting the reverse
// direction breaks the data response).
func TestReduceSurvivesLinkFaultCleanly(t *testing.T) {
	const nPEs = 4
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: nPEs})
	if err != nil {
		t.Fatal(err)
	}
	// Round 0 of the reduction has virtual rank 0 getting from 1: the
	// data flows 1 -> 0. Cut it.
	rt.Machine().Fabric.SetLinkState(1, 0, false)
	err = rt.Run(func(pe *xbrtime.PE) error {
		src, err := pe.Malloc(8)
		if err != nil {
			return err
		}
		dest, err := pe.PrivateAlloc(8)
		if err != nil {
			return err
		}
		return Reduce(pe, xbrtime.TypeInt64, OpSum, dest, src, 1, 1, 0)
	})
	if err == nil {
		t.Fatal("reduction over a partitioned fabric must fail")
	}
}

// TestFaultThenRecovery restores the link and checks the runtime is
// still usable for a fresh collective (state was not corrupted by the
// failed attempt — barring the broken barrier, which is permanent for
// a runtime instance, so a new runtime is used).
func TestFaultThenRecovery(t *testing.T) {
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	fab := rt.Machine().Fabric
	fab.SetLinkState(0, 1, false)
	err = rt.Run(func(pe *xbrtime.PE) error {
		buf, err := pe.Malloc(8)
		if err != nil {
			return err
		}
		src, err := pe.PrivateAlloc(8)
		if err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			return pe.Put(xbrtime.TypeInt64, buf, src, 1, 1, 1)
		}
		return nil
	})
	if err == nil {
		t.Fatal("put over a down link must fail")
	}
	if fab.Dropped() == 0 {
		t.Error("dropped counter not incremented")
	}

	// Fresh runtime, restored world: everything works again.
	rt2, err := xbrtime.New(xbrtime.Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = rt2.Run(func(pe *xbrtime.PE) error {
		buf, err := pe.Malloc(8)
		if err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			src, _ := pe.PrivateAlloc(8)
			pe.Poke(xbrtime.TypeInt64, src, 41)
			return pe.Put(xbrtime.TypeInt64, buf, src, 1, 1, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
