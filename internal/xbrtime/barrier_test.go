package xbrtime

import (
	"errors"
	"testing"
)

func TestDisseminationBarrierSynchronises(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8} {
		n := n
		rt := MustNew(Config{NumPEs: n, Barrier: BarrierDissemination})
		clocks := make([]uint64, n)
		err := rt.Run(func(pe *PE) error {
			pe.Advance(uint64(pe.MyPE()) * 50_000)
			for round := 0; round < 3; round++ {
				if err := pe.Barrier(); err != nil {
					return err
				}
			}
			clocks[pe.MyPE()] = pe.Now()
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// After a full barrier, every PE's clock is at or beyond the
		// slowest pre-barrier clock (the skew of the slowest PE).
		slowest := uint64((n - 1) * 50_000)
		for rank, c := range clocks {
			if c < slowest {
				t.Errorf("n=%d PE %d released at %d, before slowest skew %d",
					n, rank, c, slowest)
			}
		}
	}
}

func TestDisseminationBarrierOrdering(t *testing.T) {
	// A value written before the barrier must be visible after it: the
	// barrier provides the happens-before edge.
	rt := MustNew(Config{NumPEs: 4, Barrier: BarrierDissemination})
	err := rt.Run(func(pe *PE) error {
		buf, err := pe.Malloc(8)
		if err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		src, _ := pe.PrivateAlloc(8)
		pe.Poke(TypeInt64, src, uint64(pe.MyPE()+500))
		peer := (pe.MyPE() + 1) % 4
		if err := pe.Put(TypeInt64, buf, src, 1, 1, peer); err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		want := uint64((pe.MyPE()+3)%4 + 500)
		if got := pe.Peek(TypeInt64, buf); got != want {
			t.Errorf("PE %d saw %d, want %d", pe.MyPE(), got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDisseminationBarrierBreaks(t *testing.T) {
	rt := MustNew(Config{NumPEs: 3, Barrier: BarrierDissemination})
	boom := errors.New("boom")
	err := rt.Run(func(pe *PE) error {
		if pe.MyPE() == 2 {
			return boom
		}
		err := pe.Barrier()
		if !errors.Is(err, ErrBarrierBroken) {
			t.Errorf("PE %d: barrier returned %v", pe.MyPE(), err)
		}
		return err
	})
	if !errors.Is(err, boom) && !errors.Is(err, ErrBarrierBroken) {
		t.Fatalf("Run = %v", err)
	}
}

func TestBarrierAlgorithmNames(t *testing.T) {
	if BarrierCentral.String() != "central" || BarrierDissemination.String() != "dissemination" {
		t.Error("algorithm names wrong")
	}
	if BarrierAlgorithm(9).String() != "unknown" {
		t.Error("unknown algorithm name")
	}
}

func TestDisseminationCheaperThanCentralAtScale(t *testing.T) {
	// log2(n) parallel rounds versus a 2-phase centralised gather/release:
	// at 8 PEs the dissemination barrier should not be slower.
	lat := func(algo BarrierAlgorithm) uint64 {
		rt := MustNew(Config{NumPEs: 8, Barrier: algo})
		var cycles uint64
		err := rt.Run(func(pe *PE) error {
			if err := pe.Barrier(); err != nil { // warm up
				return err
			}
			start := pe.Now()
			for i := 0; i < 10; i++ {
				if err := pe.Barrier(); err != nil {
					return err
				}
			}
			if pe.MyPE() == 0 {
				cycles = pe.Now() - start
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return cycles
	}
	central := lat(BarrierCentral)
	dissem := lat(BarrierDissemination)
	if dissem > central {
		t.Errorf("dissemination (%d cyc) slower than central (%d cyc) at 8 PEs",
			dissem, central)
	}
}

func TestCommTraceObservesRemoteOnly(t *testing.T) {
	rt := MustNew(Config{NumPEs: 2})
	var events []TraceEvent
	err := rt.Run(func(pe *PE) error {
		buf, err := pe.Malloc(64)
		if err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		if pe.MyPE() != 0 {
			return nil
		}
		pe.SetCommTrace(func(ev TraceEvent) { events = append(events, ev) })
		src, _ := pe.PrivateAlloc(64)
		if err := pe.Put(TypeInt64, buf, src, 4, 1, 1); err != nil {
			return err
		}
		if err := pe.Get(TypeInt64, src, buf, 2, 1, 1); err != nil {
			return err
		}
		// Self-put must not be traced.
		if err := pe.Put(TypeInt64, buf, src, 1, 1, 0); err != nil {
			return err
		}
		pe.SetCommTrace(nil)
		if err := pe.Put(TypeInt64, buf, src, 1, 1, 1); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %+v", events)
	}
	if events[0] != (TraceEvent{Kind: "put", Target: 1, Nelems: 4}) {
		t.Errorf("event 0 = %+v", events[0])
	}
	if events[1] != (TraceEvent{Kind: "get", Target: 1, Nelems: 2}) {
		t.Errorf("event 1 = %+v", events[1])
	}
}
