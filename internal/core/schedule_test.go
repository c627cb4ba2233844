package core

import (
	"fmt"
	"slices"
	"testing"

	"xbgas/internal/xbrtime"
)

// ---------------------------------------------------------------------
// The schedule-vs-execution check. A row is one plan (or one public
// entry point) at one PE count and call size, run at every root the
// collective takes. PE.SetCommTrace records each remote put and get a
// PE issues, with its real target and element count, in issue order;
// that record must equal planTrace, the plan's own put/get steps for
// the PE's virtual rank. The six tests below differ only in their rows.
// ---------------------------------------------------------------------

type schedRow struct {
	name string
	coll Collective
	algo Algorithm
	seg  int // segment factor
	per  int // Shape.PerNode; 0 = flat
	// call runs a public entry point; nil executes the plan.
	call func(pe *xbrtime.PE, a ExecArgs) error
	// sched is the published schedule the run must perform; nil means
	// the plan's Transfers.
	sched func(n int) []Transfer

	n, nelems int
	msgs      []int // pe_msgs by logical rank (vector collectives)

	plan *Plan
	got  [][][]xbrtime.TraceEvent // [root][PE]
}

// cells returns a row template for every algorithm, each collective it
// registers (those in colls, if given), segment factor and node width.
func cells(algos []Algorithm, colls []Collective, segs, pers []int) []schedRow {
	var out []schedRow
	for _, algo := range algos {
		pl, _ := LookupPlanner(algo)
		for _, coll := range pl.Collectives {
			if colls != nil && !slices.Contains(colls, coll) {
				continue
			}
			for _, seg := range segs {
				for _, per := range pers {
					out = append(out, schedRow{coll: coll, algo: algo, seg: seg, per: per})
				}
			}
		}
	}
	return out
}

// seg1 and flatPer are the unsegmented and flat axes of cells.
var seg1, flatPer = []int{1}, []int{0}

func segName(r schedRow) string {
	return fmt.Sprintf("%s/%s/seg%d/n%d", r.coll, r.algo, r.seg, r.n)
}

func shapeName(r schedRow) string {
	return fmt.Sprintf("%s/%s/n%d/pn%d", r.coll, r.algo, r.n, r.per)
}

// checkSchedule expands each template over n = 1..16 (a shaped one
// only where its nodes split the PEs) into two rows, runs all rows of
// one PE count on one runtime, and checks each row in a subtest of its
// name.
func checkSchedule(t *testing.T, name func(schedRow) string, templates []schedRow) {
	var byN [17][]*schedRow
	for _, c := range templates {
		for n := max(1, c.per+1); n <= 16; n++ {
			byN[n] = append(byN[n], newRow(t, c, n, false, name), newRow(t, c, n, true, name))
		}
	}
	for n, rows := range byN {
		if len(rows) > 0 {
			runSPMD(t, n, func(pe *xbrtime.PE) error { return runRows(pe, rows) })
		}
	}
	for _, rows := range byN {
		for _, r := range rows {
			t.Run(r.name, r.check)
		}
	}
}

// newRow sizes template c for n PEs and compiles its plan. A full row
// fills every block, chunk and segment, unevenly: pe_msgs[l] = l%3 + 1,
// or 2(n+seg)+1 elements. Its "/zero" twin leaves some empty, with
// pe_msgs[l] = l%3 or ⌊n/2⌋ elements, so the SkipIfZero paths run too.
func newRow(t *testing.T, c schedRow, n int, zero bool, name func(schedRow) string) *schedRow {
	r := c
	r.n, r.nelems = n, 2*(n+c.seg)+1
	r.name = name(r)
	if zero {
		r.name, r.nelems = r.name+"/zero", n/2
	}
	if collSpecs[r.coll].vector {
		r.msgs, r.nelems = make([]int, n), 0
		for l := range r.msgs {
			r.msgs[l] = l%3 + 1
			if zero {
				r.msgs[l]--
			}
			r.nelems += r.msgs[l]
		}
	}
	seg := r.seg
	if r.call != nil {
		seg = SelectSegments(r.coll, r.algo, n, r.nelems, 8) // the plan dispatch runs
	}
	var err error
	if r.plan, err = CompilePlanFor(r.coll, r.algo, n, seg, Shape{PerNode: r.per}); err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	// The scatter pipelines per subtree block whatever the factor.
	if seg > 1 && n > 1 && (r.plan.FlagWords == 0 || r.coll != CollScatter && r.plan.Segments != seg) {
		t.Fatalf("%s: segment factor %d compiled %s", r.name, seg, r.plan.Label())
	}
	roots := 1
	if rootedColl(r.coll) {
		roots = n
	}
	r.got = make([][][]xbrtime.TraceEvent, roots)
	for root := range r.got {
		r.got[root] = make([][]xbrtime.TraceEvent, n)
	}
	return &r
}

// runRows is one PE's part of a runtime's rows, every row at every
// root, its trace filed under its rank.
func runRows(pe *xbrtime.PE, rows []*schedRow) error {
	me := pe.MyPE()
	var log *[]xbrtime.TraceEvent
	pe.SetCommTrace(func(ev xbrtime.TraceEvent) { *log = append(*log, ev) })
	bytes := uint64(0)
	for _, r := range rows {
		bytes = max(bytes, uint64(r.n*r.nelems+1)*8)
	}
	dest, err := pe.Malloc(2 * bytes)
	if err != nil {
		return err
	}
	src := dest + bytes
	for _, r := range rows {
		var disp []int
		for l, total := 0, 0; l < len(r.msgs); l++ {
			disp, total = append(disp, total), total+r.msgs[l]
		}
		for root := range r.got {
			log = &r.got[root][me]
			a := ExecArgs{DT: xbrtime.TypeInt64, Op: OpSum, Dest: dest, Src: src,
				Nelems: r.nelems, Stride: 1, Root: root, PeMsgs: r.msgs, PeDisp: disp}
			if r.call != nil {
				err = r.call(pe, a)
			} else {
				err = Execute(pe, r.plan, a)
			}
			if err != nil {
				return fmt.Errorf("%s, root %d: %w", r.name, root, err)
			}
			if err := pe.Barrier(); err != nil {
				return err
			}
		}
	}
	return nil
}

// check compares every (root, PE) record with planTrace and reports the
// first difference. At every root, the executed transfers and the
// empty ones planTrace drops must also make up exactly the row's
// schedule: BroadcastSchedule or ReduceSchedule where the row names
// one, else the plan's Transfers. A row that moves data between PEs
// must record some transfer, or the check would hold vacuously.
func (r *schedRow) check(t *testing.T) {
	sched, moved := r.plan.Transfers(), 0
	if r.sched != nil {
		sched = r.sched(r.n)
	}
	for root, byPE := range r.got {
		left := map[Transfer]int{} // scheduled minus executed and empty
		for _, tr := range sched {
			tr.Round = 0
			left[tr]++
		}
		for me, got := range byPE {
			moved += len(got)
			for _, ev := range got {
				tr := Transfer{Kind: StepPut, From: VirtualRank(me, root, r.n), To: VirtualRank(ev.Target, root, r.n)}
				if ev.Kind == "get" {
					tr = Transfer{Kind: StepGet, From: tr.To, To: tr.From}
				}
				left[tr]--
			}
			want, empty := planTrace(r, root, me)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, root %d, PE %d (virtual %d):\nexecuted %v\nplan     %v",
					r.plan.Label(), root, me, VirtualRank(me, root, r.n), got, want)
			}
			for _, tr := range empty {
				left[tr]--
			}
		}
		for tr, c := range left {
			if c != 0 {
				t.Fatalf("root %d: %+v: scheduled minus executed and empty is %d", root, tr, c)
			}
		}
	}
	if moved == 0 && r.n > 1 && r.nelems > 0 {
		t.Error("no transfer recorded")
	}
}

// planTrace is what PE me must report when r runs at root: its virtual
// rank's put/get steps in round and step order, Blocks repetitions
// expanded, peers mapped to logical ranks, and counts resolved by the
// CountRef definitions in plan.go. A transfer of zero elements is
// absent: SkipIfZero drops the step, and the runtime neither moves nor
// reports an empty one. Those are returned apart, as empty.
func planTrace(r *schedRow, root, me int) (out []xbrtime.TraceEvent, empty []Transfer) {
	p, n := r.plan, r.n
	// part is part i of total split k ways, the first total mod k parts
	// one longer: a segment, or a rank's block in AdjChunks plans and
	// calls without pe_msgs. adj[u] is the elements of virtual ranks
	// below u, span those of ranks [u, u+k).
	part := func(total, k, i int) int {
		if i < total%k {
			return total/k + 1
		}
		return total / k
	}
	adj := make([]int, n+1)
	for u := 0; u < n; u++ {
		b := part(r.nelems, n, u)
		if p.Adj != AdjChunks && r.msgs != nil {
			b = r.msgs[LogicalRank(u, root, n)]
		}
		adj[u+1] = adj[u] + b
	}
	span := func(u, k int) int { return adj[min(u+k, n)] - adj[min(u, n)] }

	v := VirtualRank(me, root, n)
	for ri := range p.Rounds {
		for _, s := range p.Rounds[ri].Steps {
			if s.Actor != v || (s.Kind != StepPut && s.Kind != StepGet) {
				continue
			}
			ev := xbrtime.TraceEvent{Kind: s.Kind.String(), Target: LogicalRank(s.Peer, root, n)}
			for t := 0; t < max(s.Blocks, 1); t++ {
				cv := s.CV
				if s.Count == CountBlock || s.Count == CountRun {
					cv += t * s.BStride
				}
				switch s.Count {
				case CountAll:
					ev.Nelems = r.nelems
				case CountBlock:
					ev.Nelems = span(cv, 1)
				case CountSubtree:
					ev.Nelems = span(cv, 1<<s.CB)
				case CountRun:
					ev.Nelems = span(cv, s.CB)
				case CountSeg: // an unsegmented plan is one segment
					ev.Nelems = part(r.nelems, max(p.Segments, 1), cv)
				}
				switch {
				case ev.Nelems > 0:
					out = append(out, ev)
				case s.Kind == StepPut:
					empty = append(empty, Transfer{Kind: StepPut, From: v, To: s.Peer})
				default:
					empty = append(empty, Transfer{Kind: StepGet, From: s.Peer, To: v})
				}
			}
		}
	}
	return out, empty
}

// TestExecutionMatchesSchedule: the paper's planners and the
// large-message broadcast, unsegmented.
func TestExecutionMatchesSchedule(t *testing.T) {
	checkSchedule(t, segName, cells([]Algorithm{AlgoBinomial, AlgoLinear, AlgoScatterAllgather, AlgoDirect}, nil, seg1, flatPer))
}

// TestSegmentedExecutionMatchesSchedule: the pipelined binomial plans;
// the scatter's pipeline is per subtree block whatever the factor. The
// wait/signal steps move no data, so this also pins that flag traffic
// never shows as a transfer.
func TestSegmentedExecutionMatchesSchedule(t *testing.T) {
	bin := []Algorithm{AlgoBinomial}
	checkSchedule(t, segName, append(cells(bin, []Collective{CollBroadcast, CollReduce, CollAllReduce}, []int{2, 3, 5}, flatPer),
		cells(bin, []Collective{CollScatter}, []int{2}, flatPer)...))
}

// TestHierPATTransfersMatchExecution: the topology-aware planners, the
// hierarchical one flat and in its rail (4 per node) and leader (5 per
// node) forms.
func TestHierPATTransfersMatchExecution(t *testing.T) {
	checkSchedule(t, shapeName, append(cells([]Algorithm{AlgoHier}, nil, seg1, []int{0, 4, 5}),
		cells([]Algorithm{AlgoPAT}, nil, seg1, flatPer)...))
}

// TestBandwidthPlannerTransfersMatchExecution: the ring and
// recursive-halving planners, and the ring's segmented rooted plans.
func TestBandwidthPlannerTransfersMatchExecution(t *testing.T) {
	checkSchedule(t, segName, append(cells([]Algorithm{AlgoRing, AlgoRabenseifner}, nil, seg1, flatPer),
		cells([]Algorithm{AlgoRing}, []Collective{CollBroadcast, CollReduce}, []int{2, 3, 5}, flatPer)...))
}

// TestBroadcastConformsToSchedule: the public Broadcast performs
// exactly the puts BroadcastSchedule prints for Algorithm 1, with the
// counts the plan resolves — the
// strongest statement that the implementation is the paper's
// algorithm, not merely something that produces the right data.
func TestBroadcastConformsToSchedule(t *testing.T) {
	checkSchedule(t, segName, []schedRow{{coll: CollBroadcast, algo: AlgoBinomial, seg: 1, sched: BroadcastSchedule, call: func(pe *xbrtime.PE, a ExecArgs) error {
		return Broadcast(pe, a.DT, a.Dest, a.Src, a.Nelems, a.Stride, a.Root)
	}}})
}

// TestReduceConformsToSchedule does the same for the public Reduce and
// ReduceSchedule's gets of Algorithm 2.
func TestReduceConformsToSchedule(t *testing.T) {
	checkSchedule(t, segName, []schedRow{{coll: CollReduce, algo: AlgoBinomial, seg: 1, sched: ReduceSchedule, call: func(pe *xbrtime.PE, a ExecArgs) error {
		return Reduce(pe, a.DT, a.Op, a.Dest, a.Src, a.Nelems, a.Stride, a.Root)
	}}})
}
