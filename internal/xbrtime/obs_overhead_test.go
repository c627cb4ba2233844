package xbrtime

import "testing"

// The overhead guard promised in docs/OBSERVABILITY.md: with no
// recorder in Config.Obs every instrumentation site must reduce to a
// single nil test, so the put/get, barrier and flag hot paths stay at
// 0 allocs/op exactly as before the observability layer existed.

func TestDisabledObsPutGetZeroAllocs(t *testing.T) {
	rt := MustNew(Config{NumPEs: 2})
	defer rt.Close()
	pe := rt.PE(0)
	const nelems = 64
	buf, err := pe.Malloc(8 * nelems * 2)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := buf, buf+8*nelems
	if err := pe.Put(TypeULong, dst, src, nelems, 1, 1); err != nil {
		t.Fatal(err) // warm-up: fault in any lazy state before counting
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := pe.Put(TypeULong, dst, src, nelems, 1, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("put with obs disabled: %.1f allocs/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		if err := pe.Get(TypeULong, dst, src, nelems, 1, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("get with obs disabled: %.1f allocs/op, want 0", allocs)
	}
}

func TestDisabledObsBarrierZeroAllocs(t *testing.T) {
	// A single-PE runtime lets one goroutine drive the barrier entry
	// point (and its ObsEnabled guard) without SPMD partners.
	rt := MustNew(Config{NumPEs: 1})
	defer rt.Close()
	pe := rt.PE(0)
	if err := pe.Barrier(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := pe.Barrier(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("barrier with obs disabled: %.1f allocs/op, want 0", allocs)
	}
}

func TestDisabledObsFlagZeroAllocs(t *testing.T) {
	// One PE signals its own flag word and takes the post: the post, the
	// take and the dropped-then-recreated table cell allocate nothing.
	rt := MustNew(Config{NumPEs: 1})
	defer rt.Close()
	pe := rt.PE(0)
	flag, err := pe.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := func() {
		if err := pe.SignalAfter(Handle{}, flag, 0); err != nil {
			t.Fatal(err)
		}
		if err := pe.WaitFlag(flag); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Errorf("SignalAfter+WaitFlag with obs disabled: %.1f allocs/op, want 0", allocs)
	}
}
