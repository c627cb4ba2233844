package core

import (
	"fmt"
	"testing"

	"xbgas/internal/fabric"
	"xbgas/internal/xbrtime"
)

// Tests for the topology-aware planners (planners_hier.go,
// planners_pat.go): value conformance on grouped fabrics with even
// (rail-form) and uneven (leader-form) node populations, PAT value
// checks up to 256 PEs, and the auto selection guard that grouped
// shapes never break flat decisions. Their schedule-vs-execution rows
// are in schedule_test.go.

// runSPMDTopo is runSPMD on an explicit fabric topology.
func runSPMDTopo(t *testing.T, nPEs int, topo fabric.Topology, fn func(pe *xbrtime.PE) error) {
	t.Helper()
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: nPEs, Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(fn); err != nil {
		t.Fatal(err)
	}
}

// hierShapes pairs the tested PE counts with node widths: one even
// divisor (rail form) and one uneven width (leader form, partial last
// node) per count.
var hierShapes = []struct{ n, per int }{
	{12, 4},  // rail: 3 nodes × 4
	{12, 5},  // leader: nodes of 5, 5, 2
	{48, 8},  // rail: 6 nodes × 8
	{48, 7},  // leader: 7 nodes, last holds 6
	{96, 16}, // rail: 6 nodes × 16
	{96, 9},  // leader: 11 nodes, last holds 6
}

func TestHierarchicalAllReduceValues(t *testing.T) {
	dt := xbrtime.TypeInt64
	for _, sh := range hierShapes {
		for _, algo := range []Algorithm{AlgoHier, AlgoAuto} {
			for _, nelems := range []int{1, 37, 4096} {
				sh, algo, nelems := sh, algo, nelems
				t.Run(fmt.Sprintf("%s/n%d/per%d/e%d", algo, sh.n, sh.per, nelems), func(t *testing.T) {
					topo := fabric.Grouped{PerNode: sh.per, N: sh.n}
					runSPMDTopo(t, sh.n, topo, func(pe *xbrtime.PE) error {
						me, n := pe.MyPE(), sh.n
						dest, err := pe.Malloc(uint64(nelems) * 8)
						if err != nil {
							return err
						}
						src, err := pe.Malloc(uint64(nelems) * 8)
						if err != nil {
							return err
						}
						for j := 0; j < nelems; j++ {
							pe.Poke(dt, src+uint64(j)*8, uint64(me+j+1))
						}
						if err := AllReduceWith(pe, algo, dt, OpSum, dest, src, nelems, 1); err != nil {
							return err
						}
						for j := 0; j < nelems; j++ {
							want := int64(n*(j+1) + n*(n-1)/2)
							if got := int64(pe.Peek(dt, dest+uint64(j)*8)); got != want {
								t.Errorf("%s n=%d per=%d: PE %d elem %d = %d, want %d",
									algo, n, sh.per, me, j, got, want)
								return nil
							}
						}
						if err := pe.Free(dest); err != nil {
							return err
						}
						return pe.Free(src)
					})
				})
			}
		}
	}
}

func TestHierarchicalAllGatherValues(t *testing.T) {
	dt := xbrtime.TypeInt64
	for _, sh := range hierShapes {
		for _, per := range []int{1, 3, 64} {
			sh, per := sh, per
			t.Run(fmt.Sprintf("n%d/pn%d/per%d", sh.n, sh.per, per), func(t *testing.T) {
				n := sh.n
				// Uneven blocks: logical rank l contributes per+l%2 elements.
				msgs := make([]int, n)
				disp := make([]int, n)
				nelems := 0
				for l := 0; l < n; l++ {
					msgs[l] = per + l%2
					disp[l] = nelems
					nelems += msgs[l]
				}
				topo := fabric.Grouped{PerNode: sh.per, N: n}
				runSPMDTopo(t, n, topo, func(pe *xbrtime.PE) error {
					me := pe.MyPE()
					dest, err := pe.Malloc(uint64(nelems) * 8)
					if err != nil {
						return err
					}
					src, err := pe.Malloc(uint64(per+1) * 8)
					if err != nil {
						return err
					}
					for j := 0; j < msgs[me]; j++ {
						pe.Poke(dt, src+uint64(j)*8, uint64(1000*me+j+1))
					}
					if err := AllGatherWith(pe, AlgoHier, dt, dest, src, msgs, disp, nelems); err != nil {
						return err
					}
					for l := 0; l < n; l++ {
						for j := 0; j < msgs[l]; j++ {
							want := int64(1000*l + j + 1)
							at := dest + uint64(disp[l]+j)*8
							if got := int64(pe.Peek(dt, at)); got != want {
								t.Errorf("hier allgather n=%d pn=%d: PE %d block %d elem %d = %d, want %d",
									n, sh.per, me, l, j, got, want)
								return nil
							}
						}
					}
					if err := pe.Free(dest); err != nil {
						return err
					}
					return pe.Free(src)
				})
			})
		}
	}
}

// TestHierarchicalRootedCollectives drives the hierarchical broadcast
// and reduce at non-zero roots: the virtual-rank rotation must keep
// both value-correct even though node boundaries rotate with it.
func TestHierarchicalRootedCollectives(t *testing.T) {
	dt := xbrtime.TypeInt64
	for _, sh := range hierShapes[:4] {
		for _, root := range []int{0, 1, sh.n - 1} {
			sh, root := sh, root
			t.Run(fmt.Sprintf("n%d/pn%d/root%d", sh.n, sh.per, root), func(t *testing.T) {
				const nelems = 515
				topo := fabric.Grouped{PerNode: sh.per, N: sh.n}
				runSPMDTopo(t, sh.n, topo, func(pe *xbrtime.PE) error {
					me, n := pe.MyPE(), sh.n
					dest, err := pe.Malloc(nelems * 8)
					if err != nil {
						return err
					}
					src, err := pe.Malloc(nelems * 8)
					if err != nil {
						return err
					}
					if me == root {
						for j := 0; j < nelems; j++ {
							pe.Poke(dt, src+uint64(j)*8, uint64(j+5))
						}
					}
					if err := BroadcastWith(AlgoHier, pe, dt, dest, src, nelems, 1, root); err != nil {
						return err
					}
					for j := 0; j < nelems; j += 1 + nelems/17 {
						if got := int64(pe.Peek(dt, dest+uint64(j)*8)); got != int64(j+5) {
							t.Errorf("broadcast n=%d root=%d: PE %d elem %d = %d, want %d",
								n, root, me, j, got, j+5)
							return nil
						}
					}
					for j := 0; j < nelems; j++ {
						pe.Poke(dt, src+uint64(j)*8, uint64(me+j))
					}
					if err := ReduceWith(AlgoHier, pe, dt, OpSum, dest, src, nelems, 1, root); err != nil {
						return err
					}
					if me == root {
						for j := 0; j < nelems; j += 1 + nelems/17 {
							want := int64(n*j + n*(n-1)/2)
							if got := int64(pe.Peek(dt, dest+uint64(j)*8)); got != want {
								t.Errorf("reduce n=%d root=%d: elem %d = %d, want %d",
									n, root, j, got, want)
								return nil
							}
						}
					}
					if err := pe.Free(dest); err != nil {
						return err
					}
					return pe.Free(src)
				})
			})
		}
	}
}

// TestPATValues verifies the PAT allgather and reduce-scatter at PE
// counts through 256, power-of-two and not.
func TestPATValues(t *testing.T) {
	dt := xbrtime.TypeInt64
	counts := []int{2, 3, 12, 48, 96, 256}
	for _, n := range counts {
		nelems := 2*n + 5
		if n >= 96 {
			nelems = n + 1 // keep the big counts quick; rem = 1 still uneven
		}
		n, nelems := n, nelems
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			msgs := make([]int, n)
			disp := make([]int, n)
			agTotal := 0
			for l := 0; l < n; l++ {
				msgs[l] = 1 + l%2
				disp[l] = agTotal
				agTotal += msgs[l]
			}
			runSPMD(t, n, func(pe *xbrtime.PE) error {
				me := pe.MyPE()
				dest, err := pe.Malloc(uint64(agTotal) * 8)
				if err != nil {
					return err
				}
				src, err := pe.Malloc(uint64(nelems) * 8)
				if err != nil {
					return err
				}
				for j := 0; j < msgs[me]; j++ {
					pe.Poke(dt, src+uint64(j)*8, uint64(1000*me+j+1))
				}
				if err := AllGatherWith(pe, AlgoPAT, dt, dest, src, msgs, disp, agTotal); err != nil {
					return err
				}
				for l := 0; l < n; l++ {
					for j := 0; j < msgs[l]; j++ {
						want := int64(1000*l + j + 1)
						at := dest + uint64(disp[l]+j)*8
						if got := int64(pe.Peek(dt, at)); got != want {
							t.Errorf("pat allgather n=%d: PE %d block %d elem %d = %d, want %d",
								n, me, l, j, got, want)
							return nil
						}
					}
				}

				for j := 0; j < nelems; j++ {
					pe.Poke(dt, src+uint64(j)*8, uint64(me+j+1))
				}
				rsDest, err := pe.Malloc(uint64(nelems) * 8)
				if err != nil {
					return err
				}
				if err := ReduceScatterWith(pe, AlgoPAT, dt, OpSum, rsDest, src, nelems); err != nil {
					return err
				}
				per, rem := nelems/n, nelems%n
				off := per*me + min(me, rem)
				cnt := per
				if me < rem {
					cnt++
				}
				for i := 0; i < cnt; i++ {
					j := off + i
					want := int64(n*(j+1) + n*(n-1)/2)
					if got := int64(pe.Peek(dt, rsDest+uint64(i)*8)); got != want {
						t.Errorf("pat reduce_scatter n=%d: PE %d elem %d (global %d) = %d, want %d",
							n, me, i, j, got, want)
						return nil
					}
				}
				for _, ad := range []uint64{rsDest, src, dest} {
					if err := pe.Free(ad); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

// TestGroupedShapeKeepsFlatDecisions pins that the shape reaches the
// price: every planner is a candidate on either shape, grouped and flat
// decisions are cached under different keys, and on a strongly grouped
// fabric the hierarchical allreduce wins a payload it loses on the flat
// one.
func TestGroupedShapeKeepsFlatDecisions(t *testing.T) {
	flat, grouped := Shape{}, Shape{PerNode: 8}
	const n, nelems = 64, 8 << 10
	onFlat := ExplainAuto(CollAllReduce, n, nelems, 8, flat)
	onGrouped := ExplainAuto(CollAllReduce, n, nelems, 8, grouped)
	if len(onFlat.Candidates) != len(onGrouped.Candidates) {
		t.Errorf("flat prices %d candidates, grouped %d", len(onFlat.Candidates), len(onGrouped.Candidates))
	}
	if onGrouped.Winner != AlgoHier {
		t.Errorf("grouped 64-PE 64 KiB allreduce selected %s, want %s", onGrouped.Winner, AlgoHier)
	}
	if onFlat.Winner == AlgoHier {
		t.Errorf("flat 64-PE 64 KiB allreduce selected %s: the shape did not reach the price", onFlat.Winner)
	}
	if keyOf(CollAllReduce, n, nelems, 8, flat) == keyOf(CollAllReduce, n, nelems, 8, grouped) {
		t.Error("flat and grouped decisions share a cache key")
	}
}

// TestLockstep1024AllReduce is the scale gate: a 1024-PE hierarchical
// allreduce on a grouped fabric must complete under the deterministic
// lockstep scheduler in CI-feasible time.
func TestLockstep1024AllReduce(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-PE lockstep run in -short mode")
	}
	const n, per, nelems = 1024, 32, 1024
	dt := xbrtime.TypeInt64
	rt, err := xbrtime.New(xbrtime.Config{
		NumPEs:        n,
		Topology:      fabric.Grouped{PerNode: per, N: n},
		Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(func(pe *xbrtime.PE) error {
		me := pe.MyPE()
		dest, err := pe.Malloc(nelems * 8)
		if err != nil {
			return err
		}
		src, err := pe.Malloc(nelems * 8)
		if err != nil {
			return err
		}
		for j := 0; j < nelems; j++ {
			pe.Poke(dt, src+uint64(j)*8, uint64(me+j+1))
		}
		if err := AllReduceWith(pe, AlgoHier, dt, OpSum, dest, src, nelems, 1); err != nil {
			return err
		}
		for j := 0; j < nelems; j += 97 {
			want := int64(n*(j+1) + n*(n-1)/2)
			if got := int64(pe.Peek(dt, dest+uint64(j)*8)); got != want {
				t.Errorf("PE %d elem %d = %d, want %d", me, j, got, want)
				return nil
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestHierarchical256PE is the CI smoke job's value check: grouped
// 256-PE hierarchical allreduce and allgather (rail form, 16 nodes of
// 16) on a modest payload.
func TestHierarchical256PE(t *testing.T) {
	const n, per, nelems = 256, 16, 512
	dt := xbrtime.TypeInt64
	topo := fabric.Grouped{PerNode: per, N: n}
	msgs := make([]int, n)
	disp := make([]int, n)
	for l := 0; l < n; l++ {
		msgs[l] = 2
		disp[l] = 2 * l
	}
	runSPMDTopo(t, n, topo, func(pe *xbrtime.PE) error {
		me := pe.MyPE()
		dest, err := pe.Malloc(nelems * 8)
		if err != nil {
			return err
		}
		src, err := pe.Malloc(nelems * 8)
		if err != nil {
			return err
		}
		for j := 0; j < nelems; j++ {
			pe.Poke(dt, src+uint64(j)*8, uint64(me+j+1))
		}
		if err := AllReduceWith(pe, AlgoHier, dt, OpSum, dest, src, nelems, 1); err != nil {
			return err
		}
		for j := 0; j < nelems; j += 31 {
			want := int64(n*(j+1) + n*(n-1)/2)
			if got := int64(pe.Peek(dt, dest+uint64(j)*8)); got != want {
				t.Errorf("allreduce: PE %d elem %d = %d, want %d", me, j, got, want)
				return nil
			}
		}
		for j := 0; j < 2; j++ {
			pe.Poke(dt, src+uint64(j)*8, uint64(1000*me+j+1))
		}
		if err := AllGatherWith(pe, AlgoHier, dt, dest, src, msgs, disp, nelems); err != nil {
			return err
		}
		for l := 0; l < n; l += 17 {
			for j := 0; j < 2; j++ {
				want := int64(1000*l + j + 1)
				if got := int64(pe.Peek(dt, dest+uint64(2*l+j)*8)); got != want {
					t.Errorf("allgather: PE %d block %d elem %d = %d, want %d", me, l, j, got, want)
					return nil
				}
			}
		}
		if err := pe.Free(dest); err != nil {
			return err
		}
		return pe.Free(src)
	})
}
