package core

import (
	"strings"
	"sync"
	"testing"

	"xbgas/internal/xbrtime"
)

// ---------------------------------------------------------------------
// Segmented (pipelined) plans: value correctness across
// roots/strides/uneven segment splits, transfer-count conservation
// against the unsegmented plans, the pipeline-depth cost model, chunk
// auto-selection, and pool/heap balance when a link fault breaks the
// pipeline mid-flight. Their schedule-vs-execution rows are in
// schedule_test.go.
// ---------------------------------------------------------------------

// TestSegmentedCollectiveValues forces segmentation through the public
// entry points (the -chunk override) and checks the data that lands,
// including a strided layout whose segment offsets must scale by the
// stride and an element count that does not divide evenly into
// segments.
func TestSegmentedCollectiveValues(t *testing.T) {
	SetChunkBytes(16) // 2 int64s per chunk: 9 elements -> 5 segments
	defer SetChunkBytes(0)

	const nelems, stride = 9, 2
	span := uint64((nelems-1)*stride + 1)
	dt := xbrtime.TypeInt64
	for _, n := range []int{2, 4, 7, 8, 13} {
		for _, root := range []int{0, n - 1} {
			rt, err := xbrtime.New(xbrtime.Config{NumPEs: n})
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var failures []string
			bad := func(msg string) {
				mu.Lock()
				failures = append(failures, msg)
				mu.Unlock()
			}
			err = rt.Run(func(pe *xbrtime.PE) error {
				me := pe.MyPE()
				dest, err := pe.Malloc(span * 8)
				if err != nil {
					return err
				}
				src, err := pe.Malloc(span * 8)
				if err != nil {
					return err
				}

				// Broadcast: strided payload from root.
				for i := 0; i < nelems; i++ {
					pe.Poke(dt, src+uint64(i*stride)*8, uint64(9000+i))
				}
				if err := Broadcast(pe, dt, dest, src, nelems, stride, root); err != nil {
					return err
				}
				for i := 0; i < nelems; i++ {
					if got := pe.Peek(dt, dest+uint64(i*stride)*8); got != uint64(9000+i) {
						bad("broadcast wrong value")
					}
				}

				// Reduce: strided sum of per-PE contributions at root.
				for i := 0; i < nelems; i++ {
					pe.Poke(dt, src+uint64(i*stride)*8, uint64(100*me+i))
				}
				if err := Reduce(pe, dt, OpSum, dest, src, nelems, stride, root); err != nil {
					return err
				}
				if me == root {
					for i := 0; i < nelems; i++ {
						want := uint64(100*n*(n-1)/2 + i*n)
						if got := pe.Peek(dt, dest+uint64(i*stride)*8); got != want {
							bad("reduce wrong value")
						}
					}
				}

				// AllReduce: contiguous sum everywhere.
				for i := 0; i < nelems; i++ {
					pe.Poke(dt, src+uint64(i)*8, uint64(10*me+i))
				}
				if err := AllReduce(pe, dt, OpSum, dest, src, nelems, 1); err != nil {
					return err
				}
				for i := 0; i < nelems; i++ {
					want := uint64(10*n*(n-1)/2 + i*n)
					if got := pe.Peek(dt, dest+uint64(i)*8); got != want {
						bad("allreduce wrong value")
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
			if len(failures) > 0 {
				t.Fatalf("n=%d root=%d: %d bad values (%s...)", n, root, len(failures), failures[0])
			}
		}
	}
}

// TestSegmentedScatterValues covers the pipelined scatter's
// block-granularity data path (forced via the chunk override).
func TestSegmentedScatterValues(t *testing.T) {
	SetChunkBytes(8)
	defer SetChunkBytes(0)

	dt := xbrtime.TypeInt64
	for _, n := range []int{4, 7, 8} {
		const per = 2
		msgs := make([]int, n)
		disp := make([]int, n)
		for i := range msgs {
			msgs[i] = per
			disp[i] = per * i
		}
		total := per * n
		for _, root := range []int{0, n - 1} {
			rt, err := xbrtime.New(xbrtime.Config{NumPEs: n})
			if err != nil {
				t.Fatal(err)
			}
			bad := false
			var mu sync.Mutex
			err = rt.Run(func(pe *xbrtime.PE) error {
				me := pe.MyPE()
				dest, err := pe.Malloc(uint64(per) * 8)
				if err != nil {
					return err
				}
				src, err := pe.Malloc(uint64(total) * 8)
				if err != nil {
					return err
				}
				if me == root {
					for p := 0; p < n; p++ {
						for i := 0; i < per; i++ {
							pe.Poke(dt, src+uint64(disp[p]+i)*8, uint64(1000*p+i))
						}
					}
				}
				if err := Scatter(pe, dt, dest, src, msgs, disp, total, root); err != nil {
					return err
				}
				for i := 0; i < per; i++ {
					if got := pe.Peek(dt, dest+uint64(i)*8); got != uint64(1000*me+i) {
						mu.Lock()
						bad = true
						mu.Unlock()
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("scatter n=%d root=%d: %v", n, root, err)
			}
			if bad {
				t.Fatalf("scatter n=%d root=%d: wrong values landed", n, root)
			}
		}
	}
}

// TestSegmentedTransferConservation pins the cost model's traffic side:
// splitting a message into S segments multiplies every tree edge by S
// (each edge now carries S chunk-sized transfers) without creating or
// dropping edges; the pipelined scatter keeps the unsegmented edge set
// exactly (it pipelines by subtree block, not by chunk).
func TestSegmentedTransferConservation(t *testing.T) {
	type edge struct {
		kind     StepKind
		from, to int
	}
	tally := func(ts []Transfer) map[edge]int {
		m := map[edge]int{}
		for _, tr := range ts {
			m[edge{tr.Kind, tr.From, tr.To}]++
		}
		return m
	}
	for _, coll := range []Collective{CollBroadcast, CollReduce, CollAllReduce} {
		const n, s = 8, 4
		base, err := CompilePlan(coll, AlgoBinomial, n)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := CompilePlanSeg(coll, AlgoBinomial, n, s)
		if err != nil {
			t.Fatal(err)
		}
		if seg.Segments != s {
			t.Fatalf("%s: expected a %d-segment plan, got Segments=%d", coll, s, seg.Segments)
		}
		want, got := tally(base.Transfers()), tally(seg.Transfers())
		if len(want) != len(got) {
			t.Fatalf("%s: segmented plan has %d distinct edges, unsegmented %d", coll, len(got), len(want))
		}
		for e, c := range want {
			if got[e] != s*c {
				t.Errorf("%s edge %v: segmented count %d, want %d (S x %d)", coll, e, got[e], s*c, c)
			}
		}
	}

	base, err := CompilePlan(CollScatter, AlgoBinomial, 8)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := CompilePlanSeg(CollScatter, AlgoBinomial, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, got := tally(base.Transfers()), tally(seg.Transfers())
	if len(want) != len(got) {
		t.Fatalf("scatter: pipelined plan has %d distinct edges, baseline %d", len(got), len(want))
	}
	for e, c := range want {
		if got[e] != c {
			t.Errorf("scatter edge %v: pipelined count %d, want %d", e, got[e], c)
		}
	}
}

// TestPipelineDepthModel checks the log2(n)+S-1 projection: the
// segmented broadcast's compiled depth equals the analytic
// SegmentedDepth, degenerates to the unsegmented round count at S=1,
// and strictly beats S sequential tree traversals for S > 1, n > 1.
func TestPipelineDepthModel(t *testing.T) {
	for _, n := range []int{2, 5, 8, 16} {
		for _, s := range []int{2, 4, 8} {
			p, err := CompilePlanSeg(CollBroadcast, AlgoBinomial, n, s)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := p.PipelineDepth(), SegmentedDepth(n, s); got != want {
				t.Errorf("n=%d s=%d: PipelineDepth=%d, SegmentedDepth=%d", n, s, got, want)
			}
			// A one-deep tree (n=2) cannot overlap anything, so pipelining
			// only ties sequential there; any deeper tree must win.
			seq := s * CeilLog2(n)
			if d := p.PipelineDepth(); d > seq || (CeilLog2(n) > 1 && d >= seq) {
				t.Errorf("n=%d s=%d: pipelined depth %d not better than sequential %d", n, s, d, seq)
			}
		}
		base, err := CompilePlan(CollBroadcast, AlgoBinomial, n)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := base.PipelineDepth(), CeilLog2(n); got != want {
			t.Errorf("n=%d unsegmented: PipelineDepth=%d, want %d", n, got, want)
		}
		if got, want := SegmentedDepth(n, 1), CeilLog2(n); got != want {
			t.Errorf("SegmentedDepth(%d, 1)=%d, want %d", n, got, want)
		}
	}
}

// TestSelectSegments pins the auto-selection policy and the -chunk
// override semantics.
func TestSelectSegments(t *testing.T) {
	defer SetChunkBytes(0)
	cases := []struct {
		name  string
		chunk int
		coll  Collective
		algo  Algorithm
		nPEs  int
		elems int
		width int
		want  int
	}{
		{"small payload stays whole", 0, CollBroadcast, AlgoBinomial, 8, 1024, 8, 1},
		{"threshold engages", 0, CollBroadcast, AlgoBinomial, 8, 8192, 8, 2},
		{"1MiB clamps to MaxSegments", 0, CollBroadcast, AlgoBinomial, 8, 1 << 17, 8, MaxSegments},
		{"forced chunk", 256 << 10, CollBroadcast, AlgoBinomial, 8, 1 << 17, 8, 4},
		{"forced chunk below threshold", 4 << 10, CollBroadcast, AlgoBinomial, 8, 1024, 8, 2},
		{"negative disables", -1, CollBroadcast, AlgoBinomial, 8, 1 << 20, 8, 1},
		{"segments capped by nelems", 1, CollBroadcast, AlgoBinomial, 8, 4, 8, 4},
		{"reduce segments", 0, CollReduce, AlgoBinomial, 8, 1 << 14, 8, 4},
		{"allreduce segments", 0, CollAllReduce, AlgoBinomial, 8, 1 << 14, 8, 4},
		{"scatter normalises to 2", 0, CollScatter, AlgoBinomial, 8, 1 << 14, 8, 2},
		{"gather never segments", 0, CollGather, AlgoBinomial, 8, 1 << 20, 8, 1},
		{"linear never segments", 0, CollBroadcast, AlgoLinear, 8, 1 << 20, 8, 1},
		{"single PE never segments", 0, CollBroadcast, AlgoBinomial, 1, 1 << 20, 8, 1},
		{"single element never segments", 0, CollBroadcast, AlgoBinomial, 8, 1, 8, 1},
	}
	for _, tc := range cases {
		SetChunkBytes(tc.chunk)
		if got := SelectSegments(tc.coll, tc.algo, tc.nPEs, tc.elems, tc.width); got != tc.want {
			t.Errorf("%s: SelectSegments=%d, want %d", tc.name, got, tc.want)
		}
	}
}

// selectSegmentsReference is SelectSegments as it stood while it listed
// the segmenting planners by name; the registry-derived version must
// return the same factor for every call.
func selectSegmentsReference(coll Collective, algo Algorithm, nPEs, nelems, width int) int {
	if nPEs < 2 || nelems < 2 {
		return 1
	}
	switch algo {
	case AlgoBinomial:
		switch coll {
		case CollBroadcast, CollReduce, CollAllReduce, CollScatter:
		default:
			return 1
		}
	case AlgoRing:
		switch coll {
		case CollBroadcast, CollReduce:
		default:
			return 1
		}
	default:
		return 1
	}
	chunk := ChunkBytes()
	if chunk < 0 {
		return 1
	}
	bytes := nelems * width
	if chunk == 0 {
		if bytes < SegmentMinBytes {
			return 1
		}
		chunk = DefaultChunkBytes
	}
	s := (bytes + chunk - 1) / chunk
	if s > MaxSegments {
		s = MaxSegments
	}
	if s > nelems {
		s = nelems
	}
	if coll == CollScatter && s > 1 {
		s = 2
	}
	if s < 2 {
		return 1
	}
	return s
}

// TestSelectSegmentsMatchesReference: asking the registry which plans
// segment gives the listed answer for every planner (and for names the
// registry does not know), supported collective or not.
func TestSelectSegmentsMatchesReference(t *testing.T) {
	defer SetChunkBytes(0)
	algos := []Algorithm{AlgoAuto, "", "no-such-planner"}
	for _, name := range PlannerNames() {
		algos = append(algos, Algorithm(name))
	}
	for _, chunk := range []int{0, 4 << 10, -1} {
		SetChunkBytes(chunk)
		for _, algo := range algos {
			for _, coll := range Collectives() {
				for _, n := range []int{1, 2, 8, 64} {
					for _, bytes := range []int{8, 1 << 10, 64 << 10, 1 << 20} {
						got := SelectSegments(coll, algo, n, bytes/8, 8)
						if want := selectSegmentsReference(coll, algo, n, bytes/8, 8); got != want {
							t.Errorf("chunk=%d %s/%s n=%d bytes=%d: SelectSegments=%d, reference %d",
								chunk, coll, algo, n, bytes, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSegmentedPoolBalanceOnFault cuts a tree link under a pipelined
// broadcast: the failing PE errors out mid-pipeline with handles
// borrowed and flags posted, the waiters are released by the broken
// flag hub instead of deadlocking, and every PE must come back with
// its workspace pools balanced and the plan's flag block returned to
// the symmetric heap (satellite: executor error paths under
// segmentation).
func TestSegmentedPoolBalanceOnFault(t *testing.T) {
	SetChunkBytes(8) // 8 elements -> 8 segments
	defer SetChunkBytes(0)

	const n = 4
	const nelems = 8
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: n})
	if err != nil {
		t.Fatal(err)
	}
	// In the 4-PE tree from root 0, rank 0 puts segment 0 to rank 2
	// first; cutting that link fails the very first pipelined put.
	rt.Machine().Fabric.SetLinkState(0, 2, false)

	type outcome struct {
		ints, handles int
		leaked        uint64
		execErr       error
	}
	var mu sync.Mutex
	var outcomes []outcome
	err = rt.Run(func(pe *xbrtime.PE) error {
		dest, err := pe.Malloc(nelems * 8)
		if err != nil {
			return err
		}
		src, err := pe.Malloc(nelems * 8)
		if err != nil {
			return err
		}
		before := pe.SharedUsed()
		execErr := Broadcast(pe, xbrtime.TypeInt64, dest, src, nelems, 1, 0)
		ints, handles := pe.WorkspaceOutstanding()
		mu.Lock()
		outcomes = append(outcomes, outcome{ints, handles, pe.SharedUsed() - before, execErr})
		mu.Unlock()
		return execErr
	})
	if err == nil {
		t.Fatal("pipelined broadcast over a partitioned fabric must fail")
	}
	if len(outcomes) != n {
		t.Fatalf("collected %d outcomes, want %d", len(outcomes), n)
	}
	for _, o := range outcomes {
		if o.execErr == nil {
			t.Error("every PE of the broken pipeline must observe the failure")
		}
		if o.ints != 0 || o.handles != 0 {
			t.Errorf("workspace pools imbalanced after mid-pipeline fault: ints=%d handles=%d", o.ints, o.handles)
		}
		if o.leaked != 0 {
			t.Errorf("symmetric heap leaked %d bytes after mid-pipeline fault (flag block not freed?)", o.leaked)
		}
	}
}

// TestSegmentedDeterministicLockstep runs the pipelined broadcast and
// allreduce under the lockstep scheduler: the flag hub's block/wake
// integration must hand the token over cleanly (a hang here is the
// regression this test exists to catch) and values must still land.
func TestSegmentedDeterministicLockstep(t *testing.T) {
	SetChunkBytes(16)
	defer SetChunkBytes(0)

	const n, nelems = 8, 9
	dt := xbrtime.TypeInt64
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: n, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	bad := false
	var mu sync.Mutex
	err = rt.Run(func(pe *xbrtime.PE) error {
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
			pe.Poke(dt, src+uint64(i)*8, uint64(7000+i))
		}
		if err := Broadcast(pe, dt, dest, src, nelems, 1, 2); err != nil {
			return err
		}
		for i := 0; i < nelems; i++ {
			pe.Poke(dt, src+uint64(i)*8, uint64(me+i))
		}
		if err := AllReduce(pe, dt, OpSum, dest, src, nelems, 1); err != nil {
			return err
		}
		for i := 0; i < nelems; i++ {
			want := uint64(n*(n-1)/2 + i*n)
			if pe.Peek(dt, dest+uint64(i)*8) != want {
				mu.Lock()
				bad = true
				mu.Unlock()
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad {
		t.Fatal("lockstep segmented collectives produced wrong values")
	}
}

// TestSegmentedPlannerLabel checks the observability hook the bench
// report's "planners:" tally prints: a segmented execution must be
// attributed to the segmented plan, not the whole-message one.
func TestSegmentedPlannerLabel(t *testing.T) {
	SetChunkBytes(16)
	defer SetChunkBytes(0)

	const n, nelems = 8, 8
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: n})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Run(func(pe *xbrtime.PE) error {
		dest, err := pe.Malloc(nelems * 8)
		if err != nil {
			return err
		}
		src, err := pe.Malloc(nelems * 8)
		if err != nil {
			return err
		}
		return Broadcast(pe, xbrtime.TypeInt64, dest, src, nelems, 1, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	report := rt.StatsReport()
	if !strings.Contains(report, "broadcast/binomial[seg=4] x8") {
		t.Errorf("report missing segmented planner tally:\n%s", report)
	}
}

// TestSegmentedTeamsRefused pins the symmetric-heap guard: team
// executions cannot host the plan's flag block (a members-only
// allocation would break address symmetry), so segmented plans must be
// rejected on teams rather than silently corrupting the heap, and the
// collective entry points must never select segmentation for them.
func TestSegmentedTeamsRefused(t *testing.T) {
	const n = 4
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: n})
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompilePlanSeg(CollBroadcast, AlgoBinomial, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.FlagWords == 0 {
		t.Fatal("expected a flag-bearing segmented plan")
	}
	team, err := rt.NewTeam([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Run(func(pe *xbrtime.PE) error {
		if !team.Contains(pe.MyPE()) {
			return nil
		}
		buf, err := pe.Malloc(8 * 4)
		if err != nil {
			return err
		}
		execErr := Execute(pe, p, ExecArgs{
			DT: xbrtime.TypeInt64, Dest: buf, Src: buf + 16,
			Nelems: 2, Stride: 1, Team: team,
		})
		if execErr == nil {
			t.Error("segmented plan on a team must be rejected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
