package core

import (
	"fmt"
	"strings"
)

// Transfer is one point-to-point move in a collective's schedule,
// expressed in virtual ranks. Schedules are projections of the same
// compiled plans the executor runs (Plan.Transfers), so the analytic
// view and the executed communication cannot drift apart.
type Transfer struct {
	Round int
	// Kind is StepPut or StepGet.
	Kind StepKind
	// From and To are virtual ranks; for get-based collectives From is
	// the passive data owner and To the PE issuing the get.
	From, To int
}

// BroadcastSchedule computes the communication schedule of Algorithm 1
// for n PEs: which virtual rank puts to which in each round. Root
// choice does not affect the virtual-rank schedule (that is the point
// of the remapping). Returns nil for n < 1.
func BroadcastSchedule(n int) []Transfer {
	p, err := CompilePlan(CollBroadcast, AlgoBinomial, n)
	if err != nil {
		return nil
	}
	return p.Transfers()
}

// ReduceSchedule computes the get schedule of Algorithm 2: in each
// round, which virtual rank pulls from which. Returns nil for n < 1.
func ReduceSchedule(n int) []Transfer {
	p, err := CompilePlan(CollReduce, AlgoBinomial, n)
	if err != nil {
		return nil
	}
	return p.Transfers()
}

// SegmentedDepth is the segmented cost model behind the Figure 3
// projection: a payload split into S segments pipelines through the
// ⌈log₂ n⌉-deep binomial tree in ⌈log₂ n⌉+S−1 segment steps — the
// leaves receive their first segment after ⌈log₂ n⌉ hops, and one more
// segment drains per step thereafter — versus ⌈log₂ n⌉ whole-message
// rounds (S·⌈log₂ n⌉ segment-sized sends on the critical path)
// unsegmented.
func SegmentedDepth(n, segments int) int {
	if n < 1 || segments < 1 {
		return 0
	}
	return CeilLog2(n) + segments - 1
}

// RenderTree renders the broadcast binomial tree with recursive halving
// in the shape of paper Figure 3: one line per round listing the
// point-to-point transfers among virtual ranks.
func RenderTree(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Binomial tree with recursive halving, %d PEs (paper Figure 3)\n", n)
	sched := BroadcastSchedule(n)
	rounds := CeilLog2(n)
	for r := 0; r < rounds; r++ {
		fmt.Fprintf(&b, "  round %d:", r)
		for _, tr := range sched {
			if tr.Round == r {
				fmt.Fprintf(&b, "  %d->%d", tr.From, tr.To)
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  %d communication steps for %d PEs (upper bound ceil(log2 N))\n",
		rounds, n)
	fmt.Fprintf(&b, "  segmented pipeline: ceil(log2 N)+S-1 segment steps for S segments (S=8: %d)\n",
		SegmentedDepth(n, 8))
	return b.String()
}
