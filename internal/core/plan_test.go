package core

import (
	"sync"
	"testing"

	"xbgas/internal/xbrtime"
)

// ---------------------------------------------------------------------
// Plan-cache properties.
// ---------------------------------------------------------------------

// TestPlanCacheReuse pins the caching contract: one plan per
// (collective, algorithm, nPEs) shape, shared by every call — and
// because plans live in virtual-rank space, every root reuses the same
// plan object (the root enters only at execution time).
func TestPlanCacheReuse(t *testing.T) {
	p1, err := CompilePlan(CollBroadcast, AlgoBinomial, 8)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := CompilePlan(CollBroadcast, AlgoBinomial, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("same shape must return the same cached *Plan")
	}
	if p3, _ := CompilePlan(CollBroadcast, AlgoBinomial, 9); p3 == p1 {
		t.Error("different nPEs must compile a different plan")
	}
	if p4, _ := CompilePlan(CollBroadcast, AlgoLinear, 8); p4 == p1 {
		t.Error("different algorithm must compile a different plan")
	}
	if p5, _ := CompilePlan(CollReduce, AlgoBinomial, 8); p5 == p1 {
		t.Error("different collective must compile a different plan")
	}
}

// TestPlanCacheConcurrent compiles the same shape from many goroutines
// and requires one canonical winner — the insert must be race-safe and
// first-wins so concurrently obtained plans are pointer-identical.
func TestPlanCacheConcurrent(t *testing.T) {
	const workers = 16
	plans := make([]*Plan, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := CompilePlan(CollGather, AlgoBinomial, 13)
			if err == nil {
				plans[i] = p
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if plans[i] == nil || plans[i] != plans[0] {
			t.Fatalf("worker %d got plan %p, want %p", i, plans[i], plans[0])
		}
	}
}

func TestCompilePlanErrors(t *testing.T) {
	if _, err := CompilePlan(CollBroadcast, AlgoBinomial, 0); err == nil {
		t.Error("nPEs=0 must fail")
	}
	if _, err := CompilePlan(CollBroadcast, Algorithm("fft"), 4); err == nil {
		t.Error("unregistered algorithm must fail")
	}
	if _, err := CompilePlan(CollAlltoall, AlgoLinear, 4); err == nil {
		t.Error("registered algorithm without this collective must fail")
	}
}

// ---------------------------------------------------------------------
// Executor hot path: with the plan cached and observability disabled, a
// collective call must allocate nothing on the host (the plan-engine
// analogue of the put/get overhead guards in internal/xbrtime).
// ---------------------------------------------------------------------

func TestCachedPlanExecZeroAllocs(t *testing.T) {
	pe, a := onePE(t)
	for _, e := range entryPoints() {
		// Warm-up compiles and caches the plan (and the auto decision)
		// and faults in lazy state.
		if err := e.call(pe, e.algo, &a); err != nil {
			t.Fatalf("%s: %v", &e, err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := e.call(pe, e.algo, &a); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("cached-plan %s with obs disabled: %.1f allocs/op, want 0", &e, allocs)
		}
	}
}

// ---------------------------------------------------------------------
// Workspace pool balance: every borrow must be returned on success and
// error paths alike. The historical Alltoall leak (the deferred
// ReturnHandles captured the pre-append slice header) is pinned here.
// ---------------------------------------------------------------------

func TestAlltoallPoolBalance(t *testing.T) {
	const n = 4
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: n})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	type balance struct{ ints, handles int }
	var after []balance
	err = rt.Run(func(pe *xbrtime.PE) error {
		dest, err := pe.Malloc(8 * n)
		if err != nil {
			return err
		}
		src, err := pe.Malloc(8 * n)
		if err != nil {
			return err
		}
		if err := Alltoall(pe, xbrtime.TypeInt64, dest, src, 1); err != nil {
			return err
		}

		// Error path: a negative element count passes through the
		// executor (the public entry point rejects it) and makes the
		// first non-blocking put fail after the handle slice is
		// borrowed; the executor must still return it.
		p, err := CompilePlan(CollAlltoall, AlgoDirect, n)
		if err != nil {
			return err
		}
		if execErr := Execute(pe, p, ExecArgs{
			DT: xbrtime.TypeInt64, Dest: dest, Src: src,
			Nelems: -1, Stride: 1,
		}); execErr == nil {
			t.Error("negative-nelems execution must fail")
		}

		ints, handles := pe.WorkspaceOutstanding()
		mu.Lock()
		after = append(after, balance{ints, handles})
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range after {
		if b.ints != 0 || b.handles != 0 {
			t.Fatalf("workspace pools imbalanced after alltoall: ints=%d handles=%d",
				b.ints, b.handles)
		}
	}
}

// TestVectorCollectivePoolBalance covers the AdjVector borrow
// (adjustedDisplacements) through the executor's success path.
func TestVectorCollectivePoolBalance(t *testing.T) {
	const n = 5
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: n})
	if err != nil {
		t.Fatal(err)
	}
	msgs := []int{1, 1, 1, 1, 1}
	disp := []int{0, 1, 2, 3, 4}
	var mu sync.Mutex
	bad := false
	err = rt.Run(func(pe *xbrtime.PE) error {
		dest, err := pe.Malloc(8 * n)
		if err != nil {
			return err
		}
		src, err := pe.Malloc(8 * n)
		if err != nil {
			return err
		}
		if err := Scatter(pe, xbrtime.TypeInt64, dest, src, msgs, disp, n, 0); err != nil {
			return err
		}
		if err := Gather(pe, xbrtime.TypeInt64, dest, src, msgs, disp, n, 0); err != nil {
			return err
		}
		ints, handles := pe.WorkspaceOutstanding()
		if ints != 0 || handles != 0 {
			mu.Lock()
			bad = true
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad {
		t.Fatal("workspace pools imbalanced after vector collectives")
	}
}

// forEachSegPlan visits every plan the registry compiles for a
// segmented request: every planner × collective × n ∈ 2..16 ×
// segments ∈ {2, 3, 32}, unsegmented fall-backs included.
func forEachSegPlan(visit func(p *Plan)) {
	for _, name := range PlannerNames() {
		for _, coll := range Collectives() {
			for n := 2; n <= 16; n++ {
				for _, segs := range []int{2, 3, 32} {
					p, err := CompilePlanSeg(coll, Algorithm(name), n, segs)
					if err != nil {
						continue // the planner does not implement coll
					}
					visit(p)
				}
			}
		}
	}
}

// TestFlagPlansAreChunked pins the one-predicate rule at its source:
// every flag-pipelined plan is Chunked, so the executor and the cost
// model never need to ask about FlagWords to pick a data path.
func TestFlagPlansAreChunked(t *testing.T) {
	flagged := 0
	forEachSegPlan(func(p *Plan) {
		if p.FlagWords == 0 {
			return
		}
		flagged++
		if !p.Chunked {
			t.Errorf("%s n=%d: %d flag words but not Chunked", p.Label(), p.NPEs, p.FlagWords)
		}
	})
	if flagged == 0 {
		t.Fatal("no flag-pipelined plan compiled")
	}
}
