// Package core implements the collective communication library for the
// RISC-V xBGAS ISA extension — the primary contribution of
//
//	Williams, Wang, Leidel, Chen. "Collective Communication for the
//	RISC-V xBGAS ISA Extension." ICPP 2019 Workshops.
//
// The library provides the four collectives of paper §4 — broadcast,
// reduction, scatter, and gather — built from the runtime's one-sided
// put/get primitives over a binomial tree. Data moves root→leaves with
// recursive halving for the put-based collectives (broadcast, scatter;
// Algorithms 1 and 3) and leaves→root with recursive doubling for the
// get-based collectives (reduction, gather; Algorithms 2 and 4). A
// virtual-rank remapping (paper Table 2) makes any PE eligible as root:
// virtual ranks are assigned so the root is always virtual rank 0, and
// all tree arithmetic happens in virtual-rank space.
//
// Every collective is a *collective call*: all PEs of the runtime must
// invoke it with compatible arguments, in the same order relative to
// other collective calls and symmetric allocations. A barrier closes
// each round of the tree loop, exactly as the paper specifies
// ("a barrier operation takes place at the end of each loop iteration
// to ensure correct synchronization").
//
// The entry points (Broadcast, Reduce, Scatter, Gather, and the §7
// extensions AllReduce, AllGather, ReduceScatter, Alltoall) take the
// element type as an xbrtime.DType value and, for reductions, the
// operator as a ReduceOp. The paper's C library instead spells both
// into the function name (xbrtime_TYPENAME_broadcast,
// xbrtime_TYPENAME_reduce_OP, … — Table 1, §4.7); CSurface computes
// that name table — every (entry point, type, operator) cell
// ReduceOp.ValidFor admits — and docs/API_SURFACE.md is its rendering.
//
// Linear (flat) plans of all four collectives (AlgoLinear through the
// *With entry points) serve as the algorithmic baseline for the §4.1 discussion that no single algorithm
// wins everywhere, and an Algorithm selector provides the runtime
// dispatch hook the paper plans for.
package core
