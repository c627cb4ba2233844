package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"xbgas/internal/xbrtime"
)

// ---------------------------------------------------------------------
// The one-predicate data path: every stride-1 step of a Chunked plan
// touches the memory hierarchy once per cache line, a strided call of
// the same plan still lands the right values through the element
// stream, and flag words are consumed exactly as often as they are
// posted — statically for every compilable plan, dynamically for the
// ring broadcast whose chain tail used to leave its flags posted.
// ---------------------------------------------------------------------

// pathCall is one collective call on symmetric int64 buffers filled
// from a fixed pattern — slot s of PE r's source holds pathVal(r, s) —
// dispatched to a pinned planner and checked against the sequential
// oracle. nelems is the total payload (the per-peer block for
// alltoall).
type pathCall struct {
	coll   Collective
	algo   Algorithm
	nelems int
	stride int
	root   int
}

const pathPoison = 0xdeadbeefdeadbeef

func pathVal(rank, slot int) uint64 { return uint64(rank*1_000_003 + slot*7 + 1) }

func (c pathCall) String() string {
	return fmt.Sprintf("%s/%s e%d s%d root%d", c.coll, c.algo, c.nelems, c.stride, c.root)
}

// blocks is the equal-block pe_msgs/pe_disp layout of the vector
// collectives.
func (c pathCall) blocks(n int) (msgs, disp []int) {
	msgs, disp = make([]int, n), make([]int, n)
	for l := range msgs {
		msgs[l] = c.nelems / n
		if l < c.nelems%n {
			msgs[l]++
		}
		if l > 0 {
			disp[l] = disp[l-1] + msgs[l-1]
		}
	}
	return msgs, disp
}

// slots is the buffer size in elements.
func (c pathCall) slots(n int) int {
	if c.coll == CollAlltoall {
		return c.nelems * n
	}
	return (c.nelems-1)*c.stride + 1
}

// run executes the call on pe and returns how many destination slots
// disagree with the oracle (slots the collective must not write are
// expected to keep the poison) and how many hierarchy accesses the
// call itself made on this PE.
func (c pathCall) run(pe *xbrtime.PE) (bad int, accesses uint64, err error) {
	dt := xbrtime.TypeInt64
	n, me := pe.NumPEs(), pe.MyPE()
	slots := c.slots(n)
	dest, err := pe.Malloc(uint64(slots) * 8)
	if err != nil {
		return 0, 0, err
	}
	src, err := pe.Malloc(uint64(slots) * 8)
	if err != nil {
		return 0, 0, err
	}
	buf := make([]uint64, slots)
	for s := range buf {
		buf[s] = pathVal(me, s)
	}
	pe.PokeElems(dt, src, buf)
	for s := range buf {
		buf[s] = pathPoison
	}
	pe.PokeElems(dt, dest, buf)
	if err := pe.Barrier(); err != nil {
		return 0, 0, err
	}

	msgs, disp := c.blocks(n)
	hier := pe.Runtime().Machine().Nodes[me].Hier
	before := hier.Accesses()
	switch c.coll {
	case CollBroadcast:
		err = BroadcastWith(c.algo, pe, dt, dest, src, c.nelems, c.stride, c.root)
	case CollReduce:
		err = ReduceWith(c.algo, pe, dt, OpSum, dest, src, c.nelems, c.stride, c.root)
	case CollScatter:
		err = ScatterWith(c.algo, pe, dt, dest, src, msgs, disp, c.nelems, c.root)
	case CollGather:
		err = GatherWith(c.algo, pe, dt, dest, src, msgs, disp, c.nelems, c.root)
	case CollAllReduce:
		err = AllReduceWith(pe, c.algo, dt, OpSum, dest, src, c.nelems, c.stride)
	case CollAllGather:
		err = AllGatherWith(pe, c.algo, dt, dest, src, msgs, disp, c.nelems)
	case CollReduceScatter:
		err = ReduceScatterWith(pe, c.algo, dt, OpSum, dest, src, c.nelems)
	case CollAlltoall:
		err = Alltoall(pe, dt, dest, src, c.nelems)
	}
	if err != nil {
		return 0, 0, err
	}
	accesses = hier.Accesses() - before

	// want[s] is the oracle for destination slot s on this PE; slots it
	// leaves out keep the poison.
	want := make(map[int]uint64)
	sum := func(slot int) uint64 {
		var t uint64
		for r := 0; r < n; r++ {
			t += pathVal(r, slot)
		}
		return t
	}
	switch c.coll {
	case CollBroadcast:
		for i := 0; i < c.nelems; i++ {
			want[i*c.stride] = pathVal(c.root, i*c.stride)
		}
	case CollReduce, CollAllReduce:
		if c.coll == CollAllReduce || me == c.root {
			for i := 0; i < c.nelems; i++ {
				want[i*c.stride] = sum(i * c.stride)
			}
		}
	case CollScatter:
		for j := 0; j < msgs[me]; j++ {
			want[j] = pathVal(c.root, disp[me]+j)
		}
	case CollGather, CollAllGather:
		if c.coll == CollAllGather || me == c.root {
			for l := 0; l < n; l++ {
				for j := 0; j < msgs[l]; j++ {
					want[disp[l]+j] = pathVal(l, j)
				}
			}
		}
	case CollReduceScatter:
		for j := 0; j < msgs[me]; j++ {
			want[j] = sum(disp[me] + j)
		}
	case CollAlltoall:
		for i := 0; i < n; i++ {
			for k := 0; k < c.nelems; k++ {
				want[i*c.nelems+k] = pathVal(i, me*c.nelems+k)
			}
		}
	}
	// Rooted collectives leave the non-root destinations unspecified
	// (plans may stage through them); everywhere else an unlisted slot
	// must be untouched.
	checked := len(want) > 0
	pe.PeekElems(dt, dest, buf)
	for s, got := range buf {
		w, ok := want[s]
		if !ok {
			if !checked {
				continue
			}
			w = pathPoison
		}
		if got != w {
			bad++
		}
	}
	if err := pe.Barrier(); err != nil {
		return bad, accesses, err
	}
	if err := pe.Free(src); err != nil {
		return bad, accesses, err
	}
	return bad, accesses, pe.Free(dest)
}

// plan is the plan dispatch resolves for the call on a flat fabric.
func (c pathCall) plan(n int) (*Plan, error) {
	seg := SelectSegments(c.coll, c.algo, n, c.nelems, 8)
	return CompilePlanFor(c.coll, c.algo, n, seg, Shape{})
}

// lineBound is the most hierarchy accesses logical rank me may make
// executing p at line granularity: per step one touch per cache line of
// each range it reads or writes (a put reads its source, a get writes
// its destination, a copy does both, a combine reads two and writes
// one), two edge lines per range, and a small allowance per round for
// the barrier and flag polls.
func (c pathCall) lineBound(p *Plan, n, me int) uint64 {
	msgs, _ := c.blocks(n)
	e := execEnv{p: p, n: n, me: me, w: 8}
	e.a = ExecArgs{Nelems: c.nelems, Stride: c.stride, Root: c.root, PeMsgs: msgs}
	e.v = VirtualRank(me, c.root, n)
	if p.Segments > 1 {
		e.segPer, e.segRem = c.nelems/p.Segments, c.nelems%p.Segments
	}
	switch p.Adj {
	case AdjVector:
		e.adj = make([]int, n+1)
		for v := 0; v < n; v++ {
			e.adj[v+1] = e.adj[v] + msgs[LogicalRank(v, c.root, n)]
		}
	case AdjChunks:
		e.per, e.rem = c.nelems/n, c.nelems%n
	}
	rangesTouched := map[StepKind]uint64{StepPut: 1, StepGet: 1, StepCopy: 2, StepCombine: 3}
	var bound uint64
	for ri := range p.Rounds {
		r := &p.Rounds[ri]
		bound += 64
		for _, s := range r.Steps[r.actorStart[e.v]:r.actorStart[e.v+1]] {
			ranges := rangesTouched[s.Kind]
			reps := uint64(1)
			if s.Blocks > 1 {
				reps = uint64(s.Blocks)
			}
			bound += ranges * (uint64(e.stepCount(&s))*8/64 + 2*reps)
		}
	}
	return bound
}

// rootedColl reports whether the collective takes a root argument.
func rootedColl(coll Collective) bool {
	switch coll {
	case CollBroadcast, CollReduce, CollScatter, CollGather:
		return true
	}
	return false
}

// chunkedCalls lists one 1 MiB call per distinct Chunked plan the
// registry compiles for 8 PEs on a flat fabric.
func chunkedCalls(t *testing.T, n, nelems int) []pathCall {
	t.Helper()
	var calls []pathCall
	for _, name := range PlannerNames() {
		pl, _ := LookupPlanner(Algorithm(name))
		for _, coll := range Collectives() {
			if !pl.Supports(coll) {
				continue
			}
			c := pathCall{coll: coll, algo: Algorithm(name), nelems: nelems, stride: 1}
			if rootedColl(coll) {
				c.root = 3
			}
			p, err := c.plan(n)
			if err != nil {
				t.Fatalf("%s: %v", c, err)
			}
			if p.Chunked {
				calls = append(calls, c)
			}
		}
	}
	if len(calls) == 0 {
		t.Fatal("no Chunked plan registered")
	}
	return calls
}

// TestChunkedPlansTouchLines is the data-path property: a stride-1
// 1 MiB call of every Chunked plan stays within the line-granular
// access bound on every PE — one element-at-a-time copy, combine or
// transfer of a single 32 KiB segment would break it — and the same
// call at stride 2, which must take the element stream, still matches
// the oracle.
func TestChunkedPlansTouchLines(t *testing.T) {
	const n, nelems = 8, 1 << 17
	for _, c := range chunkedCalls(t, n, nelems) {
		c := c
		t.Run(fmt.Sprintf("%s/%s", c.coll, c.algo), func(t *testing.T) {
			p, err := c.plan(n)
			if err != nil {
				t.Fatal(err)
			}
			runSPMD(t, n, func(pe *xbrtime.PE) error {
				bad, got, err := c.run(pe)
				if err != nil {
					return err
				}
				if bad > 0 {
					t.Errorf("%s via %s: PE %d has %d wrong slots", c, p.Label(), pe.MyPE(), bad)
				}
				if bound := c.lineBound(p, n, pe.MyPE()); got > bound {
					t.Errorf("%s via %s: PE %d made %d hierarchy accesses, line-granular bound is %d",
						c, p.Label(), pe.MyPE(), got, bound)
				}
				return nil
			})
			switch c.coll {
			case CollBroadcast, CollReduce, CollAllReduce:
			default:
				return // contiguous-only collective
			}
			s := c
			s.stride, s.nelems = 2, nelems/2
			var elemwise atomic.Bool
			runSPMD(t, n, func(pe *xbrtime.PE) error {
				bad, got, err := s.run(pe)
				if err != nil {
					return err
				}
				if bad > 0 {
					t.Errorf("%s: PE %d has %d wrong slots", s, pe.MyPE(), bad)
				}
				if got >= uint64(s.nelems) {
					elemwise.Store(true)
				}
				return nil
			})
			if !elemwise.Load() {
				t.Errorf("%s: no PE made an access per element; the strided call left the element stream", s)
			}
		})
	}
}

// TestFlagBalanceStatic checks, for every plan the registry compiles,
// that each flag word is signalled exactly as often as it is waited on:
// the StepSignals addressed to (Peer, Flag) pair one-to-one with the
// StepWaitFlags by (Actor, Flag). A surplus signal outlives the plan's
// flag block and releases whichever plan next lands on the address; a
// surplus wait hangs.
func TestFlagBalanceStatic(t *testing.T) {
	type word struct{ rank, flag int }
	forEachSegPlan(func(p *Plan) {
		balance := map[word]int{}
		for ri := range p.Rounds {
			for _, s := range p.Rounds[ri].Steps {
				switch s.Kind {
				case StepSignal:
					balance[word{s.Peer, s.Flag}]++
				case StepWaitFlag:
					balance[word{s.Actor, s.Flag}]--
				}
			}
		}
		// One line per plan: the lowest offending word stands for the
		// rest.
		off := 0
		var first word
		for w, d := range balance {
			if w.flag < 0 || w.flag >= p.FlagWords {
				t.Errorf("%s n=%d: flag %d outside the %d-word block", p.Label(), p.NPEs, w.flag, p.FlagWords)
			}
			if d == 0 {
				continue
			}
			if off == 0 || w.flag < first.flag {
				first = w
			}
			off++
		}
		if off > 0 {
			t.Errorf("%s n=%d: %d flag words unbalanced; flag %d on virtual rank %d has %+d more signals than waits",
				p.Label(), p.NPEs, off, first.flag, first.rank, balance[first])
		}
	})
}

// TestRingBroadcastRootsBackToBack is the dynamic side of the flag
// balance: two segmented ring broadcasts from different roots, then a
// segmented binomial broadcast, on one lockstep runtime. The symmetric
// heap hands every call the same flag block, so a post the first call
// left unconsumed used to let the second call's chain forward a segment
// before it had arrived.
func TestRingBroadcastRootsBackToBack(t *testing.T) {
	const n, nelems = 8, 1 << 14 // 128 KiB: four 32 KiB segments
	calls := []pathCall{
		{CollBroadcast, AlgoRing, nelems, 1, 0},
		{CollBroadcast, AlgoRing, nelems, 1, 3},
		{CollBroadcast, AlgoBinomial, nelems, 1, 5},
	}
	for _, c := range calls {
		if p, err := c.plan(n); err != nil || p.Segments < 2 {
			t.Fatalf("%s: want a segmented plan, got %v (err %v)", c, p.Label(), err)
		}
	}
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: n, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Run(func(pe *xbrtime.PE) error {
		for i, c := range calls {
			bad, _, err := c.run(pe)
			if err != nil {
				return err
			}
			if bad > 0 {
				t.Errorf("call %d (%s): PE %d has %d wrong slots", i, c, pe.MyPE(), bad)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
