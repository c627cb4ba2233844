package core

import (
	"xbgas/internal/xbrtime"
)

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
	if err := validateVector(pe, dt, peMsgs, peDisp, nelems, root); err != nil {
		return err
	}
	return runPlan(pe, CollGather, AlgoBinomial, ExecArgs{
		DT: dt, Dest: dest, Src: src,
		Nelems: nelems, Stride: 1, Root: root,
		PeMsgs: peMsgs, PeDisp: peDisp,
	})
}
