package bench

import (
	"strings"
	"testing"

	"xbgas/internal/core"
)

// TestHierarchicalWinsGrouped64PE pins the scale-out acceptance
// criterion: on a grouped fabric (64 PEs, 8 per node — inter-node
// α ≈ 5× intra) the hierarchical planner beats every log-depth flat
// planner on the virtual clock for 1 MiB allreduce and allgather — the
// documented margin is ≥1.5×; the test asserts 1.2× to stay clear of
// booking-order jitter — and auto lands within 5 % of the best of every
// planner measured: the hierarchical one for allreduce, the flat ring
// for allgather, whose 63 neighbour hops cross a node boundary only
// every eighth time.
func TestHierarchicalWinsGrouped64PE(t *testing.T) {
	if testing.Short() {
		t.Skip("64-PE 1MiB sweeps in -short mode")
	}
	const pes, nelems, topo = 64, 131072, "grouped:8"
	for _, op := range []CollectiveOp{OpAllReduce, OpAllGather} {
		op := op
		t.Run(string(op), func(t *testing.T) {
			cycles := func(a core.Algorithm) SweepPoint {
				pt, err := SweepCollective(op, a, pes, nelems, 1, topo)
				if err != nil {
					t.Fatal(err)
				}
				return pt
			}
			trees := []core.Algorithm{core.AlgoBinomial, core.AlgoRabenseifner}
			if op == OpAllGather {
				trees = append(trees, core.AlgoPAT)
			}
			hier := cycles(core.AlgoHier).Cycles
			best := cycles(core.AlgoRing).Cycles
			for _, a := range trees {
				c := cycles(a).Cycles
				if c < 1.2*hier {
					t.Errorf("%s: hierarchical %.0f cycles vs %s %.0f (%.2fx, want >= 1.2x)", op, hier, a, c, c/hier)
				}
				best = min(best, c)
			}
			best = min(best, hier)
			if auto := cycles(core.AlgoAuto); auto.Cycles > 1.05*best {
				t.Errorf("%s: auto resolved to %s on %s, %.0f cycles against a best of %.0f",
					op, auto.Resolved, topo, auto.Cycles, best)
			}
		})
	}
}

// TestScaleHostBudget pins the budget heuristic's shape: cheap cells
// pass, and a pathological cell (binomial's log-n volume at large
// scale) exceeds a tightened budget rather than running.
func TestScaleHostBudget(t *testing.T) {
	if c := scaleHostCostNs(core.AlgoHier, 64, 512); c > ScaleHostBudgetNs {
		t.Errorf("64-PE 4KiB hierarchical cell over budget: %.0f", c)
	}
	small := scaleHostCostNs(core.AlgoRabenseifner, 1024, 131072)
	big := scaleHostCostNs(core.AlgoBinomial, 1024, 131072)
	if big <= small {
		t.Errorf("binomial (%.0f) should cost more than rabenseifner (%.0f) at 1024 PEs", big, small)
	}
}

func TestScaleTopos(t *testing.T) {
	for _, pes := range ScalePEs {
		topos := ScaleTopos(pes)
		if len(topos) != 3 || topos[0] != "" {
			t.Fatalf("ScaleTopos(%d) = %v", pes, topos)
		}
		for _, spec := range topos[1:] {
			if strings.HasPrefix(spec, "grouped") && TopoShape(spec, pes).PerNode == 0 {
				t.Errorf("ScaleTopos(%d): %q resolves to a flat shape", pes, spec)
			}
		}
	}
}
