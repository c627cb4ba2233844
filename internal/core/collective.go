package core

import (
	"fmt"

	"xbgas/internal/xbrtime"
)

// Broadcast distributes nelems elements of type dt from src on the root
// PE to dest on every PE (paper §4.3, Algorithm 1).
//
// dest must be a symmetric address valid on every PE; src needs to be
// valid only on the root and may be private (paper: "a pointer to the
// (not-necessarily shared) address for these values on the root pe").
// stride applies to consecutive elements at both src and dest. On
// return every PE, including the root, holds the values at dest.
//
// The communication pattern is the binomial tree with recursive
// halving (see binomialBroadcastPlan); the call executes the cached
// plan for the current PE count.
func Broadcast(pe *xbrtime.PE, dt xbrtime.DType, dest, src uint64, nelems, stride, root int) error {
	return BroadcastWith(AlgoBinomial, pe, dt, dest, src, nelems, stride, root)
}

// Reduce combines nelems elements of type dt from src on every PE with
// operator op and delivers the result to dest on the root PE (paper
// §4.4, Algorithm 2).
//
// src must be a symmetric shared address — the algorithm's gets pull
// from the peers' staging buffers which shadow src — while dest is
// significant only on the root and "may be either shared or private".
// stride applies at both src and dest. op must be valid for dt (bitwise
// operators are undefined for floating-point types).
//
// Data flows leaves→root with recursive doubling (see
// binomialReducePlan); the call executes the cached plan for the
// current PE count.
func Reduce(pe *xbrtime.PE, dt xbrtime.DType, op ReduceOp, dest, src uint64, nelems, stride, root int) error {
	return ReduceWith(AlgoBinomial, pe, dt, op, dest, src, nelems, stride, root)
}

// Scatter distributes a distinct block of src on the root PE to dest on
// each PE (paper §4.5, Algorithm 3).
//
// peMsgs[l] is the number of elements destined for logical rank l and
// peDisp[l] the element offset of that block inside src on the root;
// nelems is the total element count (the sum of peMsgs). dest receives
// peMsgs[MyPE()] contiguous elements on each PE. dest must be a
// symmetric address; src is significant only on the root.
//
// Because src is ordered by logical rank while the tree runs in
// virtual ranks, the root reorders src into a virtual-rank-ordered
// staging buffer before communication begins, which "guarantees that
// the data for each tree node and its children is contiguous and
// ensures that a single put is sufficient at each stage" (see
// binomialScatterPlan).
func Scatter(pe *xbrtime.PE, dt xbrtime.DType, dest, src uint64, peMsgs, peDisp []int, nelems, root int) error {
	return ScatterWith(AlgoBinomial, pe, dt, dest, src, peMsgs, peDisp, nelems, root)
}

// Gather collects a distinct block of src from each PE into dest on the
// root PE (paper §4.6, Algorithm 4). It is symmetric to Scatter in the
// same way Reduce is to Broadcast.
//
// peMsgs[l] is the number of elements contributed by logical rank l and
// peDisp[l] the element offset at which that block lands inside dest on
// the root; nelems is the total element count. Each PE contributes
// peMsgs[MyPE()] contiguous elements starting at src. src stages
// through a symmetric buffer, so any shared or private source address
// works; dest is significant only on the root.
//
// Data moves leaves→root with recursive doubling, aggregating each
// child subtree's contiguous block at every round; the root finally
// reorders the virtual-rank-ordered staging buffer into dest (see
// binomialGatherPlan).
func Gather(pe *xbrtime.PE, dt xbrtime.DType, dest, src uint64, peMsgs, peDisp []int, nelems, root int) error {
	return GatherWith(AlgoBinomial, pe, dt, dest, src, peMsgs, peDisp, nelems, root)
}

// collSpec is one collective's argument contract. Every call — world,
// team or pinned — is checked against its collective's row before
// anything is resolved, compiled or priced. Rootless calls pass root 0
// and contiguous ones stride 1, so the root and stride checks cover
// every row.
type collSpec struct {
	op     bool // takes a reduction operator, which must be valid for dt
	vector bool // nelems is split by pe_msgs/pe_disp, one entry per PE
}

var collSpecs = [...]collSpec{
	CollBroadcast:     {},
	CollReduce:        {op: true},
	CollScatter:       {vector: true},
	CollGather:        {vector: true},
	CollAllReduce:     {op: true},
	CollAllGather:     {vector: true},
	CollAlltoall:      {},
	CollReduceScatter: {op: true},
}

// validate checks a call's arguments against coll's contract over n
// participants (the world's PEs, or a team's members).
func validate(coll Collective, n int, a *ExecArgs) error {
	if !a.DT.Valid() {
		return fmt.Errorf("core: invalid data type %+v", a.DT)
	}
	if a.Nelems < 0 {
		return fmt.Errorf("core: negative element count %d", a.Nelems)
	}
	if a.Stride < 1 {
		return fmt.Errorf("core: stride %d; must be >= 1", a.Stride)
	}
	if a.Root < 0 || a.Root >= n {
		return fmt.Errorf("core: root %d outside 0..%d", a.Root, n-1)
	}
	s := collSpecs[coll]
	if s.vector {
		if err := validateVector(n, a.PeMsgs, a.PeDisp, a.Nelems); err != nil {
			return err
		}
	}
	if s.op {
		if _, err := Combine(a.DT, a.Op, 0, 0); err != nil {
			return err // operator/type mismatch
		}
	}
	return nil
}

// validateVector checks the pe_msgs/pe_disp contract of the vector
// collectives.
func validateVector(n int, peMsgs, peDisp []int, nelems int) error {
	if len(peMsgs) != n || len(peDisp) != n {
		return fmt.Errorf("core: pe_msgs/pe_disp length %d/%d; want %d entries (one per PE)",
			len(peMsgs), len(peDisp), n)
	}
	total := 0
	for i, m := range peMsgs {
		if m < 0 {
			return fmt.Errorf("core: pe_msgs[%d] = %d; counts must be non-negative", i, m)
		}
		if peDisp[i] < 0 {
			return fmt.Errorf("core: pe_disp[%d] = %d; displacements must be non-negative", i, peDisp[i])
		}
		total += m
	}
	if total != nelems {
		return fmt.Errorf("core: pe_msgs sums to %d, nelems is %d", total, nelems)
	}
	return nil
}

// spanBytes returns the byte footprint of nelems elements laid out with
// the given element stride: ((nelems-1)*stride + 1) * width.
func spanBytes(dt xbrtime.DType, nelems, stride int) uint64 {
	if nelems == 0 {
		return uint64(dt.Width)
	}
	return uint64(((nelems-1)*stride + 1) * dt.Width)
}

// adjustedDisplacements computes the adj_disp array of Algorithms 3 and
// 4: the element offset, in virtual-rank order, at which each virtual
// rank's block begins inside the reordered shared buffer. The returned
// slice has length nPEs+1, with adj[nPEs] equal to the total element
// count, so that the subtree block for virtual ranks [a, b) is
// adj[b]-adj[a] elements at element offset adj[a]. The slice comes
// from the PE's workspace pool; callers must ReturnInts it.
func adjustedDisplacements(pe *xbrtime.PE, peMsgs []int, root, nPEs int) []int {
	adj := pe.BorrowInts(nPEs + 1)
	for v := 0; v < nPEs; v++ {
		adj[v+1] = adj[v] + peMsgs[LogicalRank(v, root, nPEs)]
	}
	return adj
}
