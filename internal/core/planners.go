package core

// The planners: each compiles one algorithm family into the plan IR.
// The binomial tree shapes live in putTreeEdges/getTreeEdges — the
// ONLY place in the package that performs Algorithm 1–4's mask
// arithmetic; every collective, analytic schedule, and rendered figure
// derives from these two generators.

// treeEdge is one parent→child link of the binomial tree: from
// survives the round, to is its partner, bit the round's tree bit
// (the partner subtree spans virtual ranks [to, to+2^bit)).
type treeEdge struct {
	from, to, bit int
}

// putTreeEdges returns, round by round, the edges of Algorithm 1's
// recursive-halving put tree: the loop index runs from ⌈log₂ n⌉−1
// down to 0 so the mask isolates virtual-rank bits left to right,
// spreading the first hops across the widest distance.
func putTreeEdges(n int) [][]treeEdge {
	rounds := CeilLog2(n)
	out := make([][]treeEdge, rounds)
	mask := (1 << rounds) - 1
	for i := rounds - 1; i >= 0; i-- {
		mask ^= 1 << i
		var edges []treeEdge
		for v := 0; v < n; v++ {
			if v&mask == 0 && v&(1<<i) == 0 {
				if vp := (v ^ (1 << i)) % n; v < vp {
					edges = append(edges, treeEdge{from: v, to: vp, bit: i})
				}
			}
		}
		out[rounds-1-i] = edges
	}
	return out
}

// getTreeEdges returns the rounds of Algorithm 2's recursive-doubling
// get tree — the broadcast tree read leaves→root: the loop index runs
// upward so the mask isolates virtual-rank bits right to left. In each
// edge, from issues the get and to is the passive data owner.
func getTreeEdges(n int) [][]treeEdge {
	rounds := CeilLog2(n)
	out := make([][]treeEdge, rounds)
	mask := (1 << rounds) - 1
	for i := 0; i < rounds; i++ {
		mask ^= 1 << i
		var edges []treeEdge
		for v := 0; v < n; v++ {
			if v|mask == mask && v&(1<<i) == 0 {
				if vp := (v ^ (1 << i)) % n; v < vp {
					edges = append(edges, treeEdge{from: v, to: vp, bit: i})
				}
			}
		}
		out[i] = edges
	}
	return out
}

func compileBinomial(coll Collective, n int) *Plan {
	switch coll {
	case CollBroadcast:
		return binomialBroadcastPlan(n)
	case CollReduce:
		return binomialReducePlan(n)
	case CollScatter:
		return binomialScatterPlan(n)
	case CollGather:
		return binomialGatherPlan(n)
	case CollAllReduce:
		return binomialAllReducePlan(n)
	case CollAllGather:
		return binomialAllGatherPlan(n)
	}
	return nil
}

// binomialBroadcastPlan is Algorithm 1: the root stages src at its own
// dest (so the postcondition holds on the root and every sender
// forwards from the same symmetric address), then each round's
// senders put their whole payload down the tree.
func binomialBroadcastPlan(n int) *Plan {
	b := newBuilder(&Plan{Collective: CollBroadcast, Algorithm: AlgoBinomial, Span: "broadcast", NPEs: n})
	b.seedRoot()
	for _, level := range putTreeEdges(n) {
		b.push(treeMoves(always(whole()), level), BufDest)
	}
	return b.done()
}

// binomialReducePlan is Algorithm 2: every PE stages its contribution
// in the symmetric s_buff, survivors get their partner's partial into
// the private l_buff and combine it in, and the root migrates the
// result to dest. Both buffers exist to "prevent any unintended
// overwriting of values on any PE".
func binomialReducePlan(n int) *Plan {
	b := newBuilder(&Plan{
		Collective: CollReduce, Algorithm: AlgoBinomial, Span: "reduce", NPEs: n,
		Stage: BufSpan, Scratch: BufSpan, UsesOp: true,
	})
	b.stageVector()
	for _, level := range getTreeEdges(n) {
		b.fold(treeMoves(always(whole()), level))
	}
	b.deliverRoot()
	return b.done()
}

// binomialScatterPlan is Algorithm 3: the root reorders src
// (logical-rank order at the caller's displacements) into the staging
// buffer in virtual-rank order, which "guarantees that the data for
// each tree node and its children is contiguous and ensures that a
// single put is sufficient at each stage"; every round forwards one
// contiguous subtree block, and each PE finally relocates its own
// block to dest.
func binomialScatterPlan(n int) *Plan {
	b := newBuilder(&Plan{
		Collective: CollScatter, Algorithm: AlgoBinomial, Span: "scatter", NPEs: n,
		Stage: BufTotal, Adj: AdjVector,
	})
	b.stageRoot(OffDisp)
	for _, level := range putTreeEdges(n) {
		b.push(treeMoves(subtreeOf, level), BufStage)
	}
	b.deliverBlock()
	return b.done()
}

// binomialGatherPlan is Algorithm 4 — Algorithm 3 read leaves→root
// with get: each PE stages its block at its adjusted offset,
// survivors pull their partner's aggregated subtree block, and the
// root reorders the virtual-rank-ordered staging buffer into dest.
func binomialGatherPlan(n int) *Plan {
	b := newBuilder(&Plan{
		Collective: CollGather, Algorithm: AlgoBinomial, Span: "gather", NPEs: n,
		Stage: BufTotal, Adj: AdjVector,
	})
	b.stageBlocks()
	for _, level := range getTreeEdges(n) {
		b.pull(treeMoves(subtreeOf, level))
	}
	b.local(b.perPE(func(steps []Step, v int) []Step {
		return b.step(steps, StepCopy, 0, -1, block(v).at(OffDisp).in(BufDest), block(v).in(BufStage), block(v))
	}), false)
	return b.done()
}

// binomialAllReducePlan composes reduce and broadcast over one shared
// staging buffer: get-tree rounds fold partials toward virtual rank 0,
// put-tree rounds push the result back down, and every PE copies the
// staged result to dest — one allocation and no dest round-trip,
// unlike the historical Reduce-then-Broadcast composition.
func binomialAllReducePlan(n int) *Plan {
	b := newBuilder(&Plan{
		Collective: CollAllReduce, Algorithm: AlgoBinomial, Span: "allreduce", NPEs: n,
		Stage: BufSpan, Scratch: BufSpan, UsesOp: true,
	})
	b.stageVector()
	for _, level := range getTreeEdges(n) {
		b.fold(treeMoves(always(whole()), level))
	}
	for _, level := range putTreeEdges(n) {
		b.push(treeMoves(always(whole()), level), BufStage)
	}
	b.deliverVector()
	return b.done()
}

// binomialAllGatherPlan composes gather and broadcast over one staging
// buffer: get-tree rounds aggregate every block at virtual rank 0,
// put-tree rounds push the full concatenation back down, and each PE
// unpacks the virtual-rank-ordered buffer to dest at the caller's
// displacements.
func binomialAllGatherPlan(n int) *Plan {
	b := newBuilder(&Plan{
		Collective: CollAllGather, Algorithm: AlgoBinomial, Span: "allgather", NPEs: n,
		Stage: BufTotal, Adj: AdjVector,
	})
	b.stageBlocks()
	for _, level := range getTreeEdges(n) {
		b.pull(treeMoves(subtreeOf, level))
	}
	for _, level := range putTreeEdges(n) {
		b.push(treeMoves(always(whole()), level), BufStage)
	}
	b.unpackVector()
	return b.done()
}

func compileLinear(coll Collective, n int) *Plan {
	switch coll {
	case CollBroadcast:
		return linearBroadcastPlan(n)
	case CollReduce:
		return linearReducePlan(n)
	case CollScatter:
		return linearScatterPlan(n)
	case CollGather:
		return linearGatherPlan(n)
	}
	return nil
}

// starMoves is the flat schedule: the root acts on every other PE in
// turn, carrying w.
func starMoves(n int, w piece) []move {
	moves := make([]move, 0, n)
	for v := 1; v < n; v++ {
		moves = append(moves, move{actor: 0, peer: v, what: w})
	}
	return moves
}

// linearBroadcastPlan: the root puts the whole payload to every other
// PE directly; a single barrier closes the exchange.
func linearBroadcastPlan(n int) *Plan {
	b := newBuilder(&Plan{Collective: CollBroadcast, Algorithm: AlgoLinear, Span: "broadcast_linear", NPEs: n})
	b.round(b.transfers(b.seed(nil), StepPut, starMoves(n, whole()), BufDest), false)
	return b.done()
}

// linearReducePlan: every PE stages its contribution, then the root
// seeds dest with its own values and folds in each peer's staged
// partial in turn.
func linearReducePlan(n int) *Plan {
	b := newBuilder(&Plan{
		Collective: CollReduce, Algorithm: AlgoLinear, Span: "reduce_linear", NPEs: n,
		Stage: BufSpan, Scratch: BufSpan, UsesOp: true,
	})
	b.stageVector()
	b.round(b.folds(b.copy(nil, 0, whole(), BufDest, BufStage), starMoves(n, whole()), BufDest), false)
	return b.done()
}

// linearScatterPlan: the root copies its own block and puts every
// other PE's block straight from src — no staging buffer at all.
func linearScatterPlan(n int) *Plan {
	b := newBuilder(&Plan{Collective: CollScatter, Algorithm: AlgoLinear, Span: "scatter_linear", NPEs: n})
	steps := make([]Step, 0, n+1)
	for v := 0; v < n; v++ {
		kind, peer := StepPut, v
		if v == 0 {
			kind, peer = StepCopy, -1
		}
		steps = b.step(steps, kind, 0, peer, Loc{Buf: BufDest}, block(v).at(OffDisp).in(BufSrc), block(v))
	}
	b.round(steps, false)
	return b.done()
}

// linearGatherPlan: every PE stages its block, the root copies its own
// and gets each peer's from the (single-block) staging buffer.
func linearGatherPlan(n int) *Plan {
	b := newBuilder(&Plan{
		Collective: CollGather, Algorithm: AlgoLinear, Span: "gather_linear", NPEs: n,
		Stage: BufMaxBlock,
	})
	b.local(b.perPE(func(steps []Step, v int) []Step {
		return b.step(steps, StepCopy, v, -1, Loc{Buf: BufStage}, Loc{Buf: BufSrc}, block(v))
	}), true)
	steps := make([]Step, 0, n+1)
	for v := 0; v < n; v++ {
		kind, peer := StepGet, v
		if v == 0 {
			kind, peer = StepCopy, -1
		}
		steps = b.step(steps, kind, 0, peer, block(v).at(OffDisp).in(BufDest), Loc{Buf: BufStage}, block(v))
	}
	b.round(steps, false)
	return b.done()
}

// compileScatterAllgather builds the van de Geijn large-message
// broadcast the paper defers to future work ("algorithms optimized for
// larger message sizes need to be added to our existing binomial tree
// methodology", §7) as ONE plan: the payload is chunked equally in
// virtual-rank order (AdjChunks — no pe_msgs vectors needed), the
// chunks ride the binomial put tree exactly like Algorithm 3, each PE
// relocates its own chunk into dest, and a ring circulates the chunks
// until every PE holds the full payload. Each PE sends ~2·nelems/N
// elements instead of the tree's nelems per hop; the message-size
// ablation shows where that pays. The planner's Applies hook guarantees
// nelems ≥ nPEs > 1 and stride 1. It has no segmented form: chunking
// across PEs already amortises large messages, so SelectSegments
// leaves it one-shot.
func compileScatterAllgather(coll Collective, n int) *Plan {
	if coll != CollBroadcast {
		return nil
	}
	b := newBuilder(&Plan{
		Collective: CollBroadcast, Algorithm: AlgoScatterAllgather,
		Span: "broadcast_sag", NPEs: n,
		Stage: BufTotal, Adj: AdjChunks,
	})
	// Scatter phase: the root loads the staging buffer chunk by chunk
	// (the chunks are contiguous in both src and stage, so this is the
	// reorder prologue of Algorithm 3 in the identity layout).
	b.stageRoot(OffAdj)
	for _, level := range putTreeEdges(n) {
		b.push(treeMoves(subtreeOf, level), BufStage)
	}
	// Each PE relocates its own chunk into dest so the all-gather can
	// run in place; purely local, so no barrier is needed before the
	// first ring round (the writes land in disjoint chunk slots).
	b.local(b.perPE(func(steps []Step, v int) []Step { return b.copy(steps, v, block(v), BufDest, BufStage) }), false)
	// Ring all-gather: in round r every PE forwards the chunk it
	// received r rounds ago to its right neighbour; after N−1 rounds
	// everyone holds all chunks.
	ringRounds([]ring{{k: n, step: 1, piece: block}}, ringOwned, func(m []move) { b.push(flip(m), BufDest) })
	return b.done()
}

// compileDirect builds the one-sided direct exchange natural to xBGAS:
// each PE copies its own block locally, then deposits every other
// block into the peers' dest buffers with non-blocking puts — rotated
// starts spread simultaneous senders across distinct receivers — and
// a barrier closes the exchange. The executor waits on every issued
// handle (and returns the pooled handle slice) on success and error
// paths alike.
func compileDirect(coll Collective, n int) *Plan {
	if coll != CollAlltoall {
		return nil
	}
	b := newBuilder(&Plan{Collective: CollAlltoall, Algorithm: AlgoDirect, Span: "alltoall", NPEs: n})
	steps := make([]Step, 0, n*n+1)
	for v := 0; v < n; v++ {
		for off := 0; off < n; off++ {
			kind, peer := StepPut, (v+off)%n
			if off == 0 {
				kind, peer = StepCopy, -1
			}
			steps = b.step(steps, kind, v, peer,
				Loc{Buf: BufDest, Off: OffBlock, V: v}, Loc{Buf: BufSrc, Off: OffBlock, V: (v + off) % n}, whole())
		}
	}
	b.round(steps, true)
	return b.done()
}

// The segmented planners: the same binomial trees, but the payload is
// split into S near-equal segments that flow through the tree as a
// pipeline. Instead of closing every round with a world barrier, each
// hop is ordered by a point-to-point signal/wait pair on a flag word in
// the symmetric segment: a parent forwards segment k while segment k+1
// is still in flight to it, so the critical path shrinks from
// ⌈log₂ n⌉ whole-message rounds to ⌈log₂ n⌉+S−1 segment steps (Träff's
// doubly-pipelined schedules are the reference shape). One trailing
// barrier keeps the collective synchronising, which also guarantees
// every flag post is consumed before the plan's flag block is freed.

func compileBinomialSeg(coll Collective, n, segments int) *Plan {
	if n < 2 || segments < 2 {
		return nil // degenerate; the unsegmented plan is already optimal
	}
	switch coll {
	case CollBroadcast:
		return segmentedBroadcastPlan(n, segments)
	case CollReduce:
		return segmentedReducePlan(n, segments)
	case CollAllReduce:
		return segmentedAllReducePlan(n, segments)
	case CollScatter:
		// Scatter blocks are sized by runtime pe_msgs data, so they
		// cannot be sub-chunked at compile time; the segmented form is
		// the flag-pipelined tree at subtree-block granularity.
		return pipelinedScatterPlan(n)
	}
	return nil
}

// segmentedBroadcastPlan pipelines Algorithm 1: one non-blocking round
// per segment, each hop gated by the receiver's wait on the segment's
// flag and closed by the sender's signal (ordered after the put on the
// same channel). A PE's reception round precedes its sending rounds in
// the put tree, so emitting tree rounds in order keeps every actor's
// wait ahead of its forwards.
func segmentedBroadcastPlan(n, s int) *Plan {
	b := newBuilder(&Plan{
		Collective: CollBroadcast, Algorithm: AlgoBinomial, Span: "broadcast", NPEs: n,
		Segments: s, FlagWords: s, Depth: CeilLog2(n) + s - 1,
	})
	b.seedRoot()
	down := putTreeEdges(n)
	for seg := 0; seg < s; seg++ {
		b.forward(treeMoves(always(segment(seg)), down...), BufDest, seg)
	}
	return b.done()
}

// segmentedReducePlan pipelines Algorithm 2: per segment, every PE
// stages its contribution slice, then each get-tree hop runs as the
// owner signalling "my partial for this segment is folded" and the
// puller waiting, pulling, and combining. Flags are indexed per
// {tree round, segment} because a PE's partial becomes ready once per
// harvest round.
func segmentedReducePlan(n, s int) *Plan {
	up := getTreeEdges(n)
	b := newBuilder(&Plan{
		Collective: CollReduce, Algorithm: AlgoBinomial, Span: "reduce", NPEs: n,
		Stage: BufSpan, Scratch: BufSpan, UsesOp: true,
		Segments: s, FlagWords: len(up) * s, Depth: len(up) + s - 1,
	})
	for seg := 0; seg < s; seg++ {
		b.harvest(segment(seg), up, func(t int) int { return t*s + seg })
	}
	b.deliverRoot()
	return b.done()
}

// segmentedAllReducePlan interleaves the two phases per segment: fold
// segment k to virtual rank 0, then pipe it straight back down the put
// tree while segment k+1 is still folding. Broadcast-phase puts into a
// PE's staged segment are safe because the only reduce-phase reader of
// that slice (its harvest partner) finished before the root could have
// completed the segment at all.
func segmentedAllReducePlan(n, s int) *Plan {
	up, down := getTreeEdges(n), putTreeEdges(n)
	b := newBuilder(&Plan{
		Collective: CollAllReduce, Algorithm: AlgoBinomial, Span: "allreduce", NPEs: n,
		Stage: BufSpan, Scratch: BufSpan, UsesOp: true,
		Segments: s, FlagWords: (len(up) + 1) * s, Depth: len(up) + len(down) + 2*(s-1),
	})
	for seg := 0; seg < s; seg++ {
		b.harvest(segment(seg), up, func(t int) int { return t*s + seg })
		b.forward(treeMoves(always(segment(seg)), down...), BufStage, len(up)*s+seg)
	}
	b.deliverVector()
	return b.done()
}

// pipelinedScatterPlan is Algorithm 3 with the per-round barriers
// replaced by the flag chain: each receiver waits for its subtree
// block, then its own forwards (emitted in later tree rounds) push the
// children's sub-blocks on. Blocks are sized by runtime pe_msgs data,
// so the granularity stays one subtree block per hop and a single flag
// word suffices — each PE receives exactly once. All puts ride one
// non-blocking round, so a sender's forwards to different children
// overlap like the direct alltoall exchange.
func pipelinedScatterPlan(n int) *Plan {
	b := newBuilder(&Plan{
		Collective: CollScatter, Algorithm: AlgoBinomial, Span: "scatter", NPEs: n,
		Stage: BufTotal, Adj: AdjVector,
		FlagWords: 1, Depth: CeilLog2(n),
	})
	b.stageRoot(OffDisp)
	b.forward(treeMoves(subtreeOf, putTreeEdges(n)...), BufStage, 0)
	b.deliverBlock()
	return b.done()
}
