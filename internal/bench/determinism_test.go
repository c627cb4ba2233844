package bench

import (
	"runtime"
	"testing"

	"xbgas/internal/core"
	"xbgas/internal/xbrtime"
)

// detKey is the full reproducibility signature of one run.
type detKey struct {
	Cycles, Ops, Errors               uint64
	Messages, Bytes, ContentionCycles uint64
}

func keyOf(r Result) detKey {
	return detKey{
		Cycles: r.Cycles, Ops: r.Ops, Errors: r.Errors,
		Messages: r.Messages, Bytes: r.Bytes, ContentionCycles: r.ContentionCycles,
	}
}

// TestDeterministicGUPSReproducible guards the reproducibility contract
// the perf work relies on: with Config.Deterministic set, identical
// configuration and seed produce identical cycle totals, message counts,
// and contention — across repeated runs and across host parallelism
// levels (GOMAXPROCS=1 vs many).
func TestDeterministicGUPSReproducible(t *testing.T) {
	p := GUPSParams{
		TableWords:   1 << 14,
		UpdatesPerPE: 512,
		Lookahead:    32,
		Verify:       true,
		Runtime:      xbrtime.Config{Deterministic: true},
	}
	const nPEs = 4

	run := func() detKey {
		r, err := RunGUPS(p, nPEs)
		if err != nil {
			t.Fatalf("RunGUPS: %v", err)
		}
		return keyOf(r)
	}

	want := run()
	for rep := 0; rep < 2; rep++ {
		if got := run(); got != want {
			t.Fatalf("rep %d diverged: got %+v want %+v", rep, got, want)
		}
	}

	old := runtime.GOMAXPROCS(1)
	got := run()
	runtime.GOMAXPROCS(old)
	if got != want {
		t.Fatalf("GOMAXPROCS=1 diverged: got %+v want %+v", got, want)
	}
}

// TestDeterministicCollectiveReproducible runs a collective under both
// barrier algorithms in deterministic mode and checks repeatability.
func TestDeterministicCollectiveReproducible(t *testing.T) {
	for _, algo := range []xbrtime.BarrierAlgorithm{
		xbrtime.BarrierCentral, xbrtime.BarrierDissemination,
	} {
		spec := CollectiveSpec{
			Op:     OpBroadcast,
			PEs:    8,
			Nelems: 256,
			Iters:  3,
			Runtime: xbrtime.Config{
				Deterministic: true,
				Barrier:       algo,
			},
		}
		first, err := RunCollective(spec)
		if err != nil {
			t.Fatalf("barrier=%v: %v", algo, err)
		}
		for rep := 0; rep < 2; rep++ {
			r, err := RunCollective(spec)
			if err != nil {
				t.Fatalf("barrier=%v rep %d: %v", algo, rep, err)
			}
			if keyOf(r) != keyOf(first) {
				t.Fatalf("barrier=%v rep %d diverged: got %+v want %+v",
					algo, rep, keyOf(r), keyOf(first))
			}
		}
	}
}

// TestISLockstepPinned pins NAS IS's simulated numbers in lockstep
// mode, with uniform and Gaussian keys on 1, 2 and 8 PEs, to the
// values the kernel's ReadElem/WriteElem loops produced. A host-only
// change to the kernel's local accesses (one call per read-modify-write,
// a timed range read) must leave every field as it is. The 8-PE
// uniform row under the kernel's default algorithm is the is_8pe
// workload's sim_cycles_per_op; the row under auto takes the combine
// steps of the plans auto picks.
func TestISLockstepPinned(t *testing.T) {
	for _, c := range []struct {
		pes      int
		gaussian bool
		algo     core.Algorithm
		want     detKey
	}{
		{1, false, "", detKey{Cycles: 22302557, Ops: 196608, Errors: 0, Messages: 0, Bytes: 0, ContentionCycles: 0}},
		{1, true, "", detKey{Cycles: 20299913, Ops: 196608, Errors: 0, Messages: 0, Bytes: 0, ContentionCycles: 0}},
		{2, false, "", detKey{Cycles: 10774308, Ops: 196608, Errors: 0, Messages: 98039, Bytes: 1567984, ContentionCycles: 1589101}},
		{2, true, "", detKey{Cycles: 10195507, Ops: 196608, Errors: 0, Messages: 98042, Bytes: 1568032, ContentionCycles: 1573586}},
		{8, false, "", detKey{Cycles: 4409098, Ops: 196608, Errors: 0, Messages: 174726, Bytes: 2782272, ContentionCycles: 30822603}},
		{8, true, "", detKey{Cycles: 5874982, Ops: 196608, Errors: 0, Messages: 175374, Bytes: 2792640, ContentionCycles: 30739684}},
		{8, false, core.AlgoAuto, detKey{Cycles: 4394666, Ops: 196608, Errors: 0, Messages: 173142, Bytes: 2769600, ContentionCycles: 30630173}},
	} {
		p := DefaultISParams()
		p.GaussianKeys, p.Algo = c.gaussian, c.algo
		p.Runtime.Deterministic = true
		r, err := RunIS(p, c.pes)
		if err != nil {
			t.Fatalf("%d PEs, gaussian=%v, algo %s: %v", c.pes, c.gaussian, p.Algo, err)
		}
		if got := keyOf(r); got != c.want {
			t.Errorf("%d PEs, gaussian=%v, algo %s: %+v, want %+v", c.pes, c.gaussian, p.Algo, got, c.want)
		}
	}
}

// TestGUPSLockstepPinned pins GUPS's simulated numbers in lockstep mode
// on 1, 2 and 8 PEs under the default parameters. A host-only change to
// the kernel's local read-modify-writes or to the put/get path it
// issues must leave every field as it is. The 8-PE row under the
// kernel's default algorithm is the gups_8pe workload's
// sim_cycles_per_op; the row under auto takes the seed broadcast auto
// picks.
func TestGUPSLockstepPinned(t *testing.T) {
	for _, c := range []struct {
		pes  int
		algo core.Algorithm
		want detKey
	}{
		{1, "", detKey{Cycles: 583564, Ops: 2048, Errors: 0, Messages: 0, Bytes: 0, ContentionCycles: 0}},
		{2, "", detKey{Cycles: 370029, Ops: 4096, Errors: 0, Messages: 11949, Bytes: 127408, ContentionCycles: 18975}},
		{8, "", detKey{Cycles: 538647, Ops: 16384, Errors: 2, Messages: 86007, Bytes: 916848, ContentionCycles: 24430457}},
		{8, core.AlgoAuto, detKey{Cycles: 538756, Ops: 16384, Errors: 2, Messages: 85979, Bytes: 916624, ContentionCycles: 24574973}},
	} {
		p := DefaultGUPSParams()
		p.Algo = c.algo
		p.Runtime.Deterministic = true
		r, err := RunGUPS(p, c.pes)
		if err != nil {
			t.Fatalf("%d PEs, algo %s: %v", c.pes, p.Algo, err)
		}
		if got := keyOf(r); got != c.want {
			t.Errorf("%d PEs, algo %s: %+v, want %+v", c.pes, p.Algo, got, c.want)
		}
	}
}
