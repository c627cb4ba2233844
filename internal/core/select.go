package core

import (
	"fmt"
	"strings"
	"sync/atomic"

	"xbgas/internal/xbrtime"
)

// Algorithm names a collective implementation. Paper §4.1: "there is
// no universally optimal solution suited to every occasion ... most
// state-of-the-art solutions include a variety of algorithms which are
// dynamically chosen from at runtime based on the arguments of a
// specific call. It follows then, that the xBGAS collective library
// must follow a similar pattern." The selector is that hook: AlgoAuto
// resolves to the registered planner whose plan is cheapest for the
// call on the modelled machine (costmodel.go).
//
// The value is the planner's registry key (see RegisterPlanner); the
// zero value "" is equivalent to AlgoAuto so that zero-initialised
// specs pick automatically.
type Algorithm string

// Algorithms.
const (
	// AlgoAuto picks an implementation from the call's arguments.
	AlgoAuto Algorithm = "auto"
	// AlgoBinomial forces the binomial tree (Algorithms 1–4).
	AlgoBinomial Algorithm = "binomial"
	// AlgoLinear forces the flat root-centric baseline.
	AlgoLinear Algorithm = "linear"
	// AlgoScatterAllgather forces the large-message van de Geijn
	// broadcast (scatter + ring all-gather); broadcast only, stride 1.
	AlgoScatterAllgather Algorithm = "scatter-allgather"
	// AlgoDirect forces the direct pairwise exchange (alltoall only).
	AlgoDirect Algorithm = "direct"
	// AlgoRing forces the bandwidth-optimal ring family: chunk-cycling
	// reduce-scatter/allgather/allreduce and the pipelined chain
	// broadcast/reduce (planners_bw.go).
	AlgoRing Algorithm = "ring"
	// AlgoRabenseifner forces recursive-halving reduce-scatter plus
	// recursive-doubling allgather (and their composition for
	// allreduce); power-of-two PE counts, with a ring-shaped fallback
	// elsewhere.
	AlgoRabenseifner Algorithm = "rabenseifner"
	// AlgoHier forces the topology-aware two-level family
	// (planners_hier.go): intra-node and inter-node phases scheduled
	// separately against the fabric's node grouping, so bulk volume
	// crosses the narrow inter-node links once per node instead of once
	// per PE. On flat topologies it degenerates to a single-group
	// (ring-shaped) schedule.
	AlgoHier Algorithm = "hierarchical"
	// AlgoPAT forces the Bruck-style parallel-aggregated-tree planner
	// (planners_pat.go): log₂ n rounds of doubling block runs for
	// allgather and the time-reversed mirror for reduce-scatter, at any
	// PE count. Its log-depth schedule is the scale-out alternative to
	// the ring's n−1 rounds at 1k+ PEs.
	AlgoPAT Algorithm = "pat"
)

// Message-segmentation parameters (see SelectSegments). The chunk-size
// ablation in docs/PERF.md locates the values: segmentation first pays
// for itself once the payload clearly exceeds one chunk (the flag
// round-trips cost ~a chunk of bandwidth), and 32 KiB chunks sit on the
// flat part of the sweep at 8 PEs.
const (
	// DefaultChunkBytes is the auto-selected segment size.
	DefaultChunkBytes = 32 << 10
	// SegmentMinBytes is the payload size below which auto selection
	// never segments: small messages are latency-bound and the paper's
	// whole-message rounds are already optimal.
	SegmentMinBytes = 64 << 10
	// MaxSegments caps the pipeline depth so tiny chunks never flood
	// the flag hub or the handle pools.
	MaxSegments = 32
)

// chunkOverride holds the -chunk override: 0 = auto, >0 = forced chunk
// bytes, <0 = segmentation disabled.
var chunkOverride atomic.Int64

// SetChunkBytes overrides the auto-selected segment size for every
// subsequent collective: b > 0 forces ⌈bytes/b⌉ segments on
// segmentable calls, b == 0 restores auto selection, and b < 0
// disables segmentation entirely (the unsegmented baseline arm of the
// chunk ablation). Cached auto decisions are invalidated: the override
// moves the cost of every segmented candidate.
func SetChunkBytes(b int) {
	chunkOverride.Store(int64(b))
	invalidateAuto()
}

// ChunkBytes returns the current -chunk override (0 = auto).
func ChunkBytes() int { return int(chunkOverride.Load()) }

// SelectSegments picks the message-segmentation factor for a
// collective: the number of near-equal chunks the payload is split
// into so segments pipeline through the plan (1 = unsegmented). The
// payload decides the candidate factor — none below SegmentMinBytes
// under auto selection — and the planner decides whether it applies:
// the factor stands only when CompilePlanSeg answers with a segmented
// or flag-pipelined plan rather than the aliased whole-message one, so
// a planner that gains a segmented form needs no edit here.
func SelectSegments(coll Collective, algo Algorithm, nPEs, nelems, width int) int {
	chunk := ChunkBytes()
	if nPEs < 2 || nelems < 2 || chunk < 0 {
		return 1
	}
	bytes := nelems * width
	if chunk == 0 {
		if bytes < SegmentMinBytes {
			return 1
		}
		chunk = DefaultChunkBytes
	}
	s := (bytes + chunk - 1) / chunk
	if s > MaxSegments {
		s = MaxSegments
	}
	if s > nelems {
		s = nelems
	}
	if coll == CollScatter && s > 1 {
		// Scatter pipelines at subtree-block granularity whatever the
		// chunk size; one canonical segmented shape keeps the cache to
		// a single plan.
		s = 2
	}
	if s < 2 {
		return 1
	}
	if p, err := CompilePlanSeg(coll, algo, nPEs, s); err != nil || (p.Segments <= 1 && p.FlagWords == 0) {
		return 1
	}
	return s
}

// String names the algorithm, rendering the zero value as "auto".
func (a Algorithm) String() string {
	if a == "" {
		return string(AlgoAuto)
	}
	return string(a)
}

// Select resolves AlgoAuto for one collective over nPEs PEs moving
// nelems elements of width bytes each. A fixed algorithm passes
// through untouched. Auto is the argmin of the plans' dry-run prices
// over every registered planner that implements the collective
// (chooseAuto) — no PE-count or size rule: tree-shaped plans win the
// small payloads (§4.2) and the bandwidth-optimal ones the large
// because that is what their replays cost.
func (a Algorithm) Select(coll Collective, nPEs, nelems, width int) Algorithm {
	return a.SelectFor(coll, nPEs, nelems, width, Shape{})
}

// SelectFor is Select against a fabric shape: the shape-aware planners
// compile against the grouping and every plan is priced on a fabric
// with its link classes, so auto resolves differently on a grouped
// topology. The flat shape reproduces Select exactly.
func (a Algorithm) SelectFor(coll Collective, nPEs, nelems, width int, sh Shape) Algorithm {
	if a != AlgoAuto && a != "" {
		return a
	}
	return chooseAuto(coll, nPEs, nelems, width, sh)
}

// resolveAlgorithm normalises an algorithm request for one validated
// call: auto-selection first, then a registry lookup (unknown names are
// an error listing what is registered), then the one fall-back rule. A
// planner that does not implement the collective, or whose Applies hook
// rejects the call, yields to the binomial tree when that implements
// the collective (the pre-registry dispatch switches defaulted the same
// way), otherwise to the cost model's pick (reduce-scatter has no
// binomial form).
func resolveAlgorithm(algo Algorithm, coll Collective, n int, a *ExecArgs, sh Shape) (Algorithm, error) {
	selected := algo.SelectFor(coll, n, a.Nelems, a.DT.Width, sh)
	pl, ok := LookupPlanner(selected)
	if !ok {
		return "", unknownAlgorithm(selected)
	}
	if pl.Supports(coll) && (pl.Applies == nil || pl.Applies(n, a.Nelems, a.Stride)) {
		return selected, nil
	}
	if bin, ok := LookupPlanner(AlgoBinomial); ok && bin.Supports(coll) {
		return AlgoBinomial, nil
	}
	return chooseAuto(coll, n, a.Nelems, a.DT.Width, sh), nil
}

// unknownAlgorithm is the error for a name no planner is registered
// under.
func unknownAlgorithm(algo Algorithm) error {
	return fmt.Errorf("core: unknown algorithm %q (registered: %s)",
		algo, strings.Join(PlannerNames(), ", "))
}

// dispatch is the one path of every call of the seven selectable
// collectives, always in this order: validate the arguments against the
// PE count and the collective's contract (collSpecs, including the
// operator), resolve the algorithm (auto, then the fall-back rule), pick
// the segmentation, fetch the cached plan for the fabric shape
// (compiling on first use), and execute it under the plan's collective
// span. Alltoall and the team calls share the validator and keep tails
// of their own.
func dispatch(pe *xbrtime.PE, coll Collective, algo Algorithm, a ExecArgs) error {
	n := pe.NumPEs()
	if err := validate(coll, n, &a); err != nil {
		return err
	}
	sh := shapeOf(pe)
	algo, err := resolveAlgorithm(algo, coll, n, &a, sh)
	if err != nil {
		return err
	}
	seg := SelectSegments(coll, algo, n, a.Nelems, a.DT.Width)
	p, err := CompilePlanFor(coll, algo, n, seg, sh)
	if err != nil {
		return err
	}
	cs := pe.StartCollective(p.Span, p.Label(), a.Root, a.Nelems)
	defer pe.FinishCollective(cs)
	return Execute(pe, p, a)
}

// BroadcastWith dispatches a broadcast through the selector and the
// planner registry. The large-message algorithm applies only to
// contiguous (stride 1) broadcasts; strided calls stay on the tree.
func BroadcastWith(algo Algorithm, pe *xbrtime.PE, dt xbrtime.DType, dest, src uint64, nelems, stride, root int) error {
	return dispatch(pe, CollBroadcast, algo, ExecArgs{
		DT: dt, Dest: dest, Src: src, Nelems: nelems, Stride: stride, Root: root,
	})
}

// ReduceWith dispatches a reduction through the selector and the
// planner registry.
func ReduceWith(algo Algorithm, pe *xbrtime.PE, dt xbrtime.DType, op ReduceOp, dest, src uint64, nelems, stride, root int) error {
	return dispatch(pe, CollReduce, algo, ExecArgs{
		DT: dt, Op: op, Dest: dest, Src: src, Nelems: nelems, Stride: stride, Root: root,
	})
}

// ScatterWith dispatches a scatter through the selector and the
// planner registry.
func ScatterWith(algo Algorithm, pe *xbrtime.PE, dt xbrtime.DType, dest, src uint64, peMsgs, peDisp []int, nelems, root int) error {
	return dispatch(pe, CollScatter, algo, ExecArgs{
		DT: dt, Dest: dest, Src: src, Nelems: nelems, Stride: 1, Root: root,
		PeMsgs: peMsgs, PeDisp: peDisp,
	})
}

// GatherWith dispatches a gather through the selector and the planner
// registry.
func GatherWith(algo Algorithm, pe *xbrtime.PE, dt xbrtime.DType, dest, src uint64, peMsgs, peDisp []int, nelems, root int) error {
	return dispatch(pe, CollGather, algo, ExecArgs{
		DT: dt, Dest: dest, Src: src, Nelems: nelems, Stride: 1, Root: root,
		PeMsgs: peMsgs, PeDisp: peDisp,
	})
}

// AllReduceWith dispatches a reduction-to-all through the selector and
// the planner registry: auto resolves to the cheapest plan by dry run.
func AllReduceWith(pe *xbrtime.PE, algo Algorithm, dt xbrtime.DType, op ReduceOp, dest, src uint64, nelems, stride int) error {
	return dispatch(pe, CollAllReduce, algo, ExecArgs{
		DT: dt, Op: op, Dest: dest, Src: src, Nelems: nelems, Stride: stride,
	})
}

// AllGatherWith dispatches a gather-to-all through the selector and the
// planner registry.
func AllGatherWith(pe *xbrtime.PE, algo Algorithm, dt xbrtime.DType, dest, src uint64, peMsgs, peDisp []int, nelems int) error {
	return dispatch(pe, CollAllGather, algo, ExecArgs{
		DT: dt, Dest: dest, Src: src, Nelems: nelems, Stride: 1,
		PeMsgs: peMsgs, PeDisp: peDisp,
	})
}

// ReduceScatterWith dispatches a reduce-scatter through the selector
// and the planner registry: every PE contributes nelems elements at
// src and receives its own fully-reduced chunk (the closed-form
// equal chunking of nelems over the PEs, chunk v sized
// ⌊nelems/n⌋ + (v < nelems mod n)) at dest. The collective is
// rootless; only the bandwidth-optimal planners implement it.
func ReduceScatterWith(pe *xbrtime.PE, algo Algorithm, dt xbrtime.DType, op ReduceOp, dest, src uint64, nelems int) error {
	return dispatch(pe, CollReduceScatter, algo, ExecArgs{
		DT: dt, Op: op, Dest: dest, Src: src, Nelems: nelems, Stride: 1,
	})
}
