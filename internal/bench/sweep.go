package bench

import (
	"fmt"
	"io"
	"sync"

	"xbgas/internal/core"
	"xbgas/internal/fabric"
	"xbgas/internal/xbrtime"
)

// Figure-style message-size sweeps for the rootless collectives: every
// registered algorithm (plus auto) across 64 B – 1 MiB payloads, the
// grid behind the selection tables in docs/PERF.md. Each point reports
// the virtual-clock makespan (the paper's metric, and what auto
// minimises), with the planner auto resolved to alongside.

// SweepSizes are the payload points of a collective sweep, in elements
// of 8 bytes: 64 B to 1 MiB in powers of four.
var SweepSizes = []int{8, 32, 128, 512, 2048, 8192, 32768, 131072}

// SweepPEs are the PE counts of the sweep grid: the paper's powers of
// two plus its 12-core simulation environment.
var SweepPEs = []int{2, 4, 8, 12}

// SweepPoint is one measured cell of a collective sweep.
type SweepPoint struct {
	Op       CollectiveOp
	Algo     core.Algorithm
	Resolved core.Algorithm // what auto picked; == Algo for fixed algos
	Topo     string         // -topo spec; "" = flat
	PEs      int
	Nelems   int
	Iters    int
	// Cycles is the virtual-clock makespan per invocation, the closing
	// barrier's share included.
	Cycles float64
	// SpanCycles is the mean completion interval of an invocation —
	// first PE in to last PE out — the quantity core.PlanCostShape
	// predicts.
	SpanCycles float64
}

// sweepAlgos returns the algorithms worth sweeping for a collective:
// auto plus every registered planner that implements it, minus the
// opt-in scatter-allgather (bisection-bandwidth assumption) and the
// degenerate direct planner.
func sweepAlgos(op CollectiveOp) []core.Algorithm {
	coll, ok := collOf(op)
	if !ok {
		return nil
	}
	algos := []core.Algorithm{core.AlgoAuto}
	for _, name := range core.PlannerNames() {
		a := core.Algorithm(name)
		if a == core.AlgoScatterAllgather || a == core.AlgoDirect {
			continue
		}
		if pl, ok := core.LookupPlanner(a); ok && pl.Supports(coll) {
			algos = append(algos, a)
		}
	}
	return algos
}

func collOf(op CollectiveOp) (core.Collective, bool) {
	for _, c := range core.Collectives() {
		if string(op) == c.String() {
			return c, true
		}
	}
	return 0, false
}

// SweepCollective measures one (collective, algorithm, PEs, nelems)
// cell on the fabric named by the -topo spec ("" = flat): iters
// invocations on the virtual clock. The iteration count scales down
// with the payload so large points stay affordable.
func SweepCollective(op CollectiveOp, algo core.Algorithm, pes, nelems, iters int, topo string) (SweepPoint, error) {
	return sweepCell(op, algo, pes, nelems, iters, topo, false, false)
}

// sweepCell is the shared measurement core of SweepCollective and the
// cost-model auditor. deterministic runs the cell in lockstep mode so
// the measured makespan is schedule-independent (the auditor compares
// it against the cost model's prediction; a free-running measurement
// would add scheduler noise to the error). warm makes one untimed
// invocation first, so the timed ones find caches, plan cache and pools
// as a second call of a program would.
func sweepCell(op CollectiveOp, algo core.Algorithm, pes, nelems, iters int, topo string, deterministic, warm bool) (SweepPoint, error) {
	if iters <= 0 {
		iters = 1
	}
	coll, ok := collOf(op)
	if !ok {
		return SweepPoint{}, fmt.Errorf("bench: %q is not sweepable", op)
	}
	pt := SweepPoint{Op: op, Algo: algo, Topo: topo, PEs: pes, Nelems: nelems, Iters: iters}
	pt.Resolved = algo.SelectFor(coll, pes, nelems, 8, TopoShape(topo, pes))

	rt, err := xbrtime.New(xbrtime.Config{NumPEs: pes, TopoSpec: topo, Deterministic: deterministic})
	if err != nil {
		return pt, err
	}
	defer rt.Close()
	dt := xbrtime.TypeInt64
	span := uint64(nelems+1) * 8

	msgs := make([]int, pes)
	disp := make([]int, pes)
	per, rem := nelems/pes, nelems%pes
	off := 0
	for i := range msgs {
		msgs[i] = per
		if i < rem {
			msgs[i]++
		}
		disp[i] = off
		off += msgs[i]
	}

	var mu sync.Mutex
	var makespan uint64
	// Per-PE clocks around every invocation; a row belongs to its PE.
	starts, ends := make([][]uint64, pes), make([][]uint64, pes)
	call := func(pe *xbrtime.PE, src, dst uint64) error {
		switch op {
		case OpAllReduce:
			return core.AllReduceWith(pe, algo, dt, core.OpSum, dst, src, nelems, 1)
		case OpAllGather:
			return core.AllGatherWith(pe, algo, dt, dst, src, msgs, disp, nelems)
		case OpReduceScatter:
			return core.ReduceScatterWith(pe, algo, dt, core.OpSum, dst, src, nelems)
		case OpBroadcast:
			return core.BroadcastWith(algo, pe, dt, dst, src, nelems, 1, 0)
		case OpReduce:
			return core.ReduceWith(algo, pe, dt, core.OpSum, dst, src, nelems, 1, 0)
		}
		return fmt.Errorf("bench: %q is not sweepable", op)
	}
	err = rt.Run(func(pe *xbrtime.PE) error {
		me := pe.MyPE()
		starts[me], ends[me] = make([]uint64, iters), make([]uint64, iters)
		src, err := pe.Malloc(span)
		if err != nil {
			return err
		}
		dst, err := pe.Malloc(span)
		if err != nil {
			return err
		}
		for i := 0; i < nelems; i++ {
			pe.Poke(dt, src+uint64(i)*8, uint64(pe.MyPE()+i))
		}
		if warm {
			if err := call(pe, src, dst); err != nil {
				return err
			}
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		startV := pe.Now()
		for it := 0; it < iters; it++ {
			starts[me][it] = pe.Now()
			if err := call(pe, src, dst); err != nil {
				return err
			}
			ends[me][it] = pe.Now()
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		elapsedV := pe.Now() - startV
		mu.Lock()
		if elapsedV > makespan {
			makespan = elapsedV
		}
		mu.Unlock()
		if err := pe.Free(dst); err != nil {
			return err
		}
		return pe.Free(src)
	})
	if err != nil {
		return pt, err
	}
	pt.Cycles = float64(makespan) / float64(iters)
	for it := 0; it < iters; it++ {
		first, last := starts[0][it], ends[0][it]
		for p := range starts {
			first, last = min(first, starts[p][it]), max(last, ends[p][it])
		}
		pt.SpanCycles += float64(last-first) / float64(iters)
	}
	return pt, nil
}

// TopoShape resolves a -topo spec to the planner Shape it implies for
// pes PEs; a bad or empty spec is flat (New will reject bad specs
// properly — the shape only steers selection).
func TopoShape(topo string, pes int) core.Shape {
	t, err := fabric.ParseTopo(topo, pes)
	if err != nil {
		return core.Shape{}
	}
	if g, ok := t.(fabric.NodeGrouper); ok {
		return core.Shape{PerNode: g.PEsPerNode()}
	}
	return core.Shape{}
}

// RunSweep measures the full grid for one collective: every sweepable
// algorithm × SweepPEs × SweepSizes, on the -topo spec's fabric.
func RunSweep(op CollectiveOp, topo string) ([]SweepPoint, error) {
	var pts []SweepPoint
	for _, pes := range SweepPEs {
		for _, nelems := range SweepSizes {
			// Small points are cheap, and free-running clocks jitter:
			// average enough invocations to steady the ratio column.
			iters := 1
			if nelems <= 2048 {
				iters = 25
			}
			for _, algo := range sweepAlgos(op) {
				pt, err := SweepCollective(op, algo, pes, nelems, iters, topo)
				if err != nil {
					return nil, err
				}
				pts = append(pts, pt)
			}
		}
	}
	return pts, nil
}

// FigureSweep runs and prints the sweep for one collective as a
// figure-style table: one block per PE count, one row per payload,
// one column per algorithm (virtual cycles per invocation, the
// fastest marked), with auto's resolution and its ratio to the best
// fixed algorithm appended.
func FigureSweep(w io.Writer, op CollectiveOp, topo string) error {
	pts, err := RunSweep(op, topo)
	if err != nil {
		return err
	}
	algos := sweepAlgos(op)
	label := topo
	if label == "" {
		label = "flat"
	}
	fmt.Fprintf(w, "Figure: %s latency sweep on %s (virtual cycles/op; * = fastest fixed)\n", op, label)
	cell := map[string]SweepPoint{}
	key := func(a core.Algorithm, pes, nelems int) string {
		return fmt.Sprintf("%s/%d/%d", a, pes, nelems)
	}
	for _, pt := range pts {
		cell[key(pt.Algo, pt.PEs, pt.Nelems)] = pt
	}
	for _, pes := range SweepPEs {
		fmt.Fprintf(w, "\n%d PEs\n%12s", pes, "bytes")
		for _, a := range algos {
			fmt.Fprintf(w, " %14s", a)
		}
		fmt.Fprintf(w, " %16s %10s\n", "auto resolved", "virt ratio")
		for _, nelems := range SweepSizes {
			fmt.Fprintf(w, "%12d", nelems*8)
			// The best fixed planner picks the asterisk and the ratio.
			bestVirt := SweepPoint{}
			for _, a := range algos {
				if a == core.AlgoAuto {
					continue
				}
				pt := cell[key(a, pes, nelems)]
				if bestVirt.Algo == "" || pt.Cycles < bestVirt.Cycles {
					bestVirt = pt
				}
			}
			for _, a := range algos {
				pt := cell[key(a, pes, nelems)]
				mark := " "
				if a == bestVirt.Algo {
					mark = "*"
				}
				fmt.Fprintf(w, " %13.0f%s", pt.Cycles, mark)
			}
			auto := cell[key(core.AlgoAuto, pes, nelems)]
			vratio := 0.0
			if bestVirt.Cycles > 0 {
				vratio = auto.Cycles / bestVirt.Cycles
			}
			fmt.Fprintf(w, " %16s %9.2fx\n", auto.Resolved, vratio)
		}
	}
	return nil
}
