package bench

import (
	"fmt"
	"io"

	"xbgas/internal/core"
	"xbgas/internal/obs"
)

// ExplainAuto prints the decision log of one auto-selected call
// (xbgas-bench -explain): every candidate planner with its
// segmentation and dry-run price, the winner, and where the winner's
// priced cycles go — the critical path obs extracts from the dry run's
// own step log, in the executor's step categories.
func ExplainAuto(w io.Writer, op CollectiveOp, pes, nelems int, topo string) error {
	coll, ok := collOf(op)
	if !ok {
		return fmt.Errorf("bench: unknown collective %q", op)
	}
	const width = 8
	sh := TopoShape(topo, pes)
	if topo == "" {
		topo = "flat"
	}
	dec := core.ExplainAuto(coll, pes, nelems, width, sh)
	fmt.Fprintf(w, "auto for %s, %d PEs on %s, %d B — priced at %d B, the lower edge of its size bucket\n\n",
		coll, pes, topo, nelems*width, dec.Nelems*width)
	fmt.Fprintf(w, "  %-18s %-34s %8s %14s\n", "planner", "plan", "segments", "dry-run cycles")
	var winner core.Candidate
	for _, c := range dec.Candidates {
		mark := " "
		if c.Algo == dec.Winner {
			mark, winner = "*", c
		}
		fmt.Fprintf(w, "%s %-18s %-34s %8d %14d\n", mark, c.Algo, c.Plan, c.Segments, c.Cycles)
	}
	if winner.Algo == "" {
		return fmt.Errorf("bench: no registered planner implements %s", coll)
	}
	p, err := core.CompilePlanFor(coll, winner.Algo, pes, winner.Segments, sh)
	if err != nil {
		return err
	}
	path := core.PlanCriticalPath(p, core.CurrentTuning(), sh, dec.Nelems, width)
	fmt.Fprintf(w, "\ncritical path of %s, %d cycles over %d links:\n", winner.Plan, path.Total(), len(path.Links))
	for cat, cycles := range path.ByCat() {
		if cycles > 0 {
			fmt.Fprintf(w, "  %-14s %10d cycles %5.1f%%\n", obs.StepCat(cat), cycles, 100*float64(cycles)/float64(path.Total()))
		}
	}
	return nil
}
