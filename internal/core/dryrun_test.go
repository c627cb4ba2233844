package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"xbgas/internal/fabric"
	"xbgas/internal/xbrtime"
)

// lockstepGrid is one warmed deterministic runtime on which collective
// calls are measured under the dry run's entry conditions: every PE
// reaches a world barrier at one clock, a congestion-window boundary
// (the fabric books by window, so a call's cost moves by a few percent
// with where in a window it starts), leaves it into the call, and the
// call costs its completion interval — first PE in to last PE out.
type lockstepGrid struct {
	rt       *xbrtime.Runtime
	n        int
	sh       Shape
	src, dst uint64
	msgs     []int
	disp     []int
	clock    []uint64 // per PE, before alignment
	start    []uint64
	end      []uint64
}

// newLockstepGrid builds the runtime (per ≤ 1: flat, else grouped:per)
// with world barrier bar and symmetric buffers for calls of up to
// maxElems int64 elements.
func newLockstepGrid(n, per int, bar xbrtime.BarrierAlgorithm, maxElems int) *lockstepGrid {
	cfg := xbrtime.Config{NumPEs: n, Barrier: bar, Deterministic: true}
	g := &lockstepGrid{n: n, clock: make([]uint64, n), start: make([]uint64, n), end: make([]uint64, n)}
	if per > 1 {
		cfg.Topology = fabric.Grouped{PerNode: per, N: n}
		g.sh = Shape{PerNode: per}
	}
	g.rt = xbrtime.MustNew(cfg)
	if err := g.rt.Run(func(pe *xbrtime.PE) error {
		src, err := pe.Malloc(uint64(maxElems) * 8)
		if err != nil {
			return err
		}
		dst, err := pe.Malloc(uint64(maxElems) * 8)
		if err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			g.src, g.dst = src, dst
		}
		return nil
	}); err != nil {
		panic(err)
	}
	return g
}

// span runs the collective twice — the first call warms caches, plan
// cache and pools — and returns the completion interval of the second.
func (g *lockstepGrid) span(coll Collective, algo Algorithm, nelems int) float64 {
	g.msgs, g.disp = g.msgs[:0], g.disp[:0]
	for p, off := 0, 0; p < g.n; p++ {
		m := nelems / g.n
		if p < nelems%g.n {
			m++
		}
		g.msgs, g.disp = append(g.msgs, m), append(g.disp, off)
		off += m
	}
	for c := 0; c < 2; c++ {
		if err := g.rt.Run(func(pe *xbrtime.PE) error {
			me := pe.MyPE()
			g.clock[me] = pe.Now()
			if err := pe.Barrier(); err != nil {
				return err
			}
			// Every PE computes the same boundary, far enough ahead that
			// the barrier above has drained from the fabric's windows.
			window := pe.Runtime().Machine().Fabric.Window()
			pe.Advance((slices.Max(g.clock)/window+64)*window - pe.Now())
			if err := pe.Barrier(); err != nil {
				return err
			}
			g.start[me] = pe.Now()
			err := g.call(pe, coll, algo, nelems)
			g.end[me] = pe.Now()
			return err
		}); err != nil {
			panic(fmt.Sprintf("%s/%s n=%d nelems=%d: %v", coll, algo, g.n, nelems, err))
		}
	}
	return float64(slices.Max(g.end) - slices.Min(g.start))
}

func (g *lockstepGrid) call(pe *xbrtime.PE, coll Collective, algo Algorithm, nelems int) error {
	dt := xbrtime.TypeInt64
	switch coll {
	case CollBroadcast:
		return BroadcastWith(algo, pe, dt, g.dst, g.src, nelems, 1, 0)
	case CollReduce:
		return ReduceWith(algo, pe, dt, OpSum, g.dst, g.src, nelems, 1, 0)
	case CollScatter:
		return ScatterWith(algo, pe, dt, g.dst, g.src, g.msgs, g.disp, nelems, 0)
	case CollGather:
		return GatherWith(algo, pe, dt, g.dst, g.src, g.msgs, g.disp, nelems, 0)
	case CollAllReduce:
		return AllReduceWith(pe, algo, dt, OpSum, g.dst, g.src, nelems, 1)
	case CollAllGather:
		return AllGatherWith(pe, algo, dt, g.dst, g.src, g.msgs, g.disp, nelems)
	case CollReduceScatter:
		return ReduceScatterWith(pe, algo, dt, OpSum, g.dst, g.src, nelems)
	}
	return fmt.Errorf("no entry point for %s", coll)
}

// gridShapes are the machines of the accuracy and selection grids:
// n ∈ {2, 4, 8, 12} flat and 64 PEs on grouped:8 with the central world
// barrier, and n ∈ {4, 8} flat with the dissemination one.
var gridShapes = []struct {
	n, per  int
	barrier xbrtime.BarrierAlgorithm
}{
	{2, 0, xbrtime.BarrierCentral}, {4, 0, xbrtime.BarrierCentral}, {8, 0, xbrtime.BarrierCentral},
	{12, 0, xbrtime.BarrierCentral}, {64, 8, xbrtime.BarrierCentral},
	{4, 0, xbrtime.BarrierDissemination}, {8, 0, xbrtime.BarrierDissemination},
}

// gridColls are the collectives with a call-level entry point taking an
// algorithm (alltoall has one planner and no selection).
var gridColls = []Collective{
	CollBroadcast, CollReduce, CollScatter, CollGather,
	CollAllReduce, CollAllGather, CollReduceScatter,
}

func gridSizes() []int {
	sizes := []int{8, 256, 8 << 10} // 64 B, 2 KiB, 64 KiB of int64
	if !testing.Short() {
		sizes = append(sizes, 128<<10) // 1 MiB
	}
	return sizes
}

// gridAlgos lists the planners a grid cell runs: every registered one
// that implements the collective and has an entry point through *With.
func gridAlgos(coll Collective) []Algorithm {
	var algos []Algorithm
	for _, name := range PlannerNames() {
		a := Algorithm(name)
		if pl, ok := LookupPlanner(a); ok && pl.Supports(coll) && a != AlgoScatterAllgather {
			algos = append(algos, a)
		}
	}
	return algos
}

// gridCell is one measured point of the grid: a pinned planner's plan
// for a call, its dry-run price and its lockstep completion interval.
type gridCell struct {
	n, per, nelems int
	barrier        xbrtime.BarrierAlgorithm
	coll           Collective
	algo           Algorithm
	label          string
	dry, lockstep  float64
}

// measuredGrid runs the grid once per test binary: every registered
// planner × collective × machine × size, priced and measured. The
// machines run side by side — each is its own lockstep runtime — and
// the 64-PE one stops at 64 KiB: its 1 MiB row is half a minute of
// lockstep, and internal/bench's 64-PE test holds auto to the best
// planner there. The dissemination machines stop there too: a barrier
// is a few hundred cycles of a 1 MiB call, and their 1 MiB rows would
// add a third to the grid's time under -race.
var measuredGrid = sync.OnceValue(func() []gridCell {
	perShape := make([][]gridCell, len(gridShapes))
	var wg sync.WaitGroup
	for i, m := range gridShapes {
		if testing.Short() && m.n > 12 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sizes := gridSizes()
			if m.n > 12 || m.barrier != xbrtime.BarrierCentral {
				sizes = sizes[:3]
			}
			tn := CurrentTuning()
			tn.Barrier = m.barrier
			g := newLockstepGrid(m.n, m.per, m.barrier, sizes[len(sizes)-1])
			for _, coll := range gridColls {
				for _, algo := range gridAlgos(coll) {
					for _, nelems := range sizes {
						seg := SelectSegments(coll, algo, m.n, nelems, 8)
						p, err := CompilePlanFor(coll, algo, m.n, seg, g.sh)
						if err != nil {
							panic(err)
						}
						perShape[i] = append(perShape[i], gridCell{
							n: m.n, per: m.per, nelems: nelems, barrier: m.barrier, coll: coll, algo: algo, label: p.Label(),
							dry:      PlanCostShape(p, tn, g.sh, nelems, 8),
							lockstep: g.span(coll, algo, nelems),
						})
					}
				}
			}
		}()
	}
	wg.Wait()
	return slices.Concat(perShape...)
})

// TestDryRunTracksLockstep is the model's accuracy contract: on every
// registered planner × collective × machine × size — both world barrier
// algorithms among the machines — the dry run's price
// is within 25 % of the lockstep completion interval, and within 5 % up
// to 2 KiB — where nothing but the replay itself can be wrong: the
// payload sits in L1 and the memory charge is exact.
func TestDryRunTracksLockstep(t *testing.T) {
	for _, c := range measuredGrid() {
		tol := 0.25
		if c.nelems <= 256 {
			tol = 0.05
		}
		if rel := math.Abs(c.dry-c.lockstep) / c.lockstep; rel > tol {
			t.Errorf("%s n=%d per=%d %s barrier %d B: dry run %.0f vs lockstep %.0f cycles (%.1f%% > %.0f%%)",
				c.label, c.n, c.per, c.barrier, c.nelems*8, c.dry, c.lockstep, 100*rel, 100*tol)
		}
	}
}

// TestAutoWithinBest is the selection contract on the same grid: the
// plan auto resolves a call to runs within 5 % of the best pinned
// planner's lockstep cycles. Auto prices on CurrentTuning, so only the
// central-barrier machines count.
func TestAutoWithinBest(t *testing.T) {
	type call struct {
		n, per, nelems int
		coll           Collective
	}
	best, picked := map[call]gridCell{}, map[call]gridCell{}
	var order []call
	for _, c := range measuredGrid() {
		if c.barrier != CurrentTuning().Barrier {
			continue
		}
		k := call{c.n, c.per, c.nelems, c.coll}
		if b, ok := best[k]; !ok {
			order = append(order, k)
			best[k] = c
		} else if c.lockstep < b.lockstep {
			best[k] = c
		}
		if c.algo == AlgoAuto.SelectFor(c.coll, c.n, c.nelems, 8, Shape{PerNode: c.per}) {
			picked[k] = c
		}
	}
	for _, k := range order {
		auto, ok := picked[k]
		if !ok {
			t.Errorf("%s n=%d per=%d %d B: auto resolved to a planner outside the grid", k.coll, k.n, k.per, k.nelems*8)
			continue
		}
		if b := best[k]; auto.lockstep > 1.05*b.lockstep {
			t.Errorf("%s n=%d per=%d %d B: auto runs %s in %.0f cycles, %s takes %.0f (%.2fx)",
				k.coll, k.n, k.per, k.nelems*8, auto.label, auto.lockstep, b.label, b.lockstep, auto.lockstep/b.lockstep)
		}
	}
}

// BenchmarkPriceDryRun is the host cost of one pricing: what an auto
// decision pays once per candidate, and what PlanCostShape costs its
// callers. It grows with the packets the plan books — a dry run is a
// replay, some 20 ns a packet, so the 1024-PE hierarchical broadcast of
// 64 KiB (a million line packets) is ~20 ms. Steady state allocates
// nothing: the machine, its fabric and its workspaces are reused from
// pricing to pricing.
func BenchmarkPriceDryRun(b *testing.B) {
	tn := CurrentTuning()
	for _, c := range []struct {
		name           string
		coll           Collective
		algo           Algorithm // "" = what auto picks
		n, per, nelems int
	}{
		{"8pe_64B", CollAllReduce, "", 8, 0, 8},
		{"8pe_1MiB_allreduce", CollAllReduce, "", 8, 0, 128 << 10},
		{"64pe_grouped8_64KiB", CollAllReduce, "", 64, 8, 8 << 10},
		{"1024pe_hier_64KiB", CollBroadcast, AlgoHier, 1024, 32, 8 << 10},
	} {
		b.Run(c.name, func(b *testing.B) {
			sh := Shape{PerNode: c.per}
			algo := c.algo.SelectFor(c.coll, c.n, c.nelems, 8, sh)
			p, err := CompilePlanFor(c.coll, algo, c.n, SelectSegments(c.coll, algo, c.n, c.nelems, 8), sh)
			if err != nil {
				b.Fatal(err)
			}
			cycles := PlanCostShape(p, tn, sh, c.nelems, 8) // builds the machine, grows its workspaces
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := PlanCostShape(p, tn, sh, c.nelems, 8); got != cycles {
					b.Fatalf("%s priced at %.0f cycles, then at %.0f", p.Label(), cycles, got)
				}
			}
			b.ReportMetric(cycles, "simCycles")
		})
	}
}
