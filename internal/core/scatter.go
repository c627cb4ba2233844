package core

import (
	"xbgas/internal/xbrtime"
)

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
	if err := validateVector(pe, dt, peMsgs, peDisp, nelems, root); err != nil {
		return err
	}
	return runPlan(pe, CollScatter, AlgoBinomial, ExecArgs{
		DT: dt, Dest: dest, Src: src,
		Nelems: nelems, Stride: 1, Root: root,
		PeMsgs: peMsgs, PeDisp: peDisp,
	})
}
