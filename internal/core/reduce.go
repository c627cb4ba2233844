package core

import (
	"xbgas/internal/xbrtime"
)

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
	if err := validate(pe, dt, nelems, stride, root); err != nil {
		return err
	}
	if _, err := Combine(dt, op, 0, 0); err != nil {
		return err // operator/type mismatch
	}
	return runPlan(pe, CollReduce, AlgoBinomial, ExecArgs{
		DT: dt, Op: op, Dest: dest, Src: src,
		Nelems: nelems, Stride: stride, Root: root,
	})
}
