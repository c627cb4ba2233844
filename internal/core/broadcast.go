package core

import (
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
	if err := validate(pe, dt, nelems, stride, root); err != nil {
		return err
	}
	return runPlan(pe, CollBroadcast, AlgoBinomial, ExecArgs{
		DT: dt, Dest: dest, Src: src,
		Nelems: nelems, Stride: stride, Root: root,
	})
}
