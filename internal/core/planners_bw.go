package core

import "slices"

// The bandwidth-optimal planners. The paper's binomial trees move the
// whole payload ⌈log₂ n⌉ times through the root's port, which is
// latency-optimal but leaves ~2x bandwidth on the table for large
// messages (Träff's reduce-scatter/allreduce analysis is the
// reference). These planners move each byte at most twice regardless of
// the tree depth:
//
//   - ring reduce-scatter / allgather / allreduce circulate equal
//     chunks around the ring, n−1 hops of nelems/n elements each, for
//     2·(n−1)/n payload volume per PE;
//   - the rabenseifner planner composes recursive-halving
//     reduce-scatter with recursive-doubling allgather — the same
//     2·(n−1)/n volume in 2·log₂ n rounds at power-of-two counts,
//     falling back to the ring composition elsewhere;
//   - ring pipelined broadcast/reduce (the CompileSeg forms) chain the
//     PEs and stream segments down the chain with PR 4's flag
//     machinery: depth (n−1)+(S−1) but every link carries every byte
//     exactly once.
//
// All of them mark the plan Chunked — the one bulk-vs-element predicate
// (see Plan.Chunked) — so every stride-1 put, get, copy and combine
// moves through the line-granular bulk paths instead of the
// element-at-a-time accessors, and a strided call falls back to the
// element stream step by step. Non-power-of-two counts
// and roots need no special casing anywhere: chunk identities are
// virtual ranks and the executor's vrank remap and AdjChunks geometry
// resolve them per call.

// isPow2 reports whether n is a power of two (n ≥ 1).
func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func compileRing(coll Collective, n int) *Plan {
	switch coll {
	case CollReduceScatter:
		return ringReduceScatterPlan(n)
	case CollAllGather:
		return ringAllGatherPlan(n)
	case CollAllReduce:
		return ringAllReducePlan(n)
	case CollBroadcast:
		return ringBroadcastPlan(n)
	case CollReduce:
		return ringReducePlan(n)
	}
	return nil
}

func compileRingSeg(coll Collective, n, segments int) *Plan {
	if n < 2 || segments < 2 {
		return nil
	}
	switch coll {
	case CollBroadcast:
		return ringBroadcastSegPlan(n, segments)
	case CollReduce:
		return ringReduceSegPlan(n, segments)
	}
	// The ring allreduce already moves chunk-granular traffic; further
	// segmentation buys nothing.
	return nil
}

func compileRabenseifner(coll Collective, n int) *Plan {
	switch coll {
	case CollReduceScatter:
		if isPow2(n) {
			return halvingReduceScatterPlan(n)
		}
		return ringReduceScatterBody(AlgoRabenseifner, "reduce_scatter_rhd", n)
	case CollAllGather:
		if isPow2(n) {
			return doublingAllGatherPlan(n)
		}
		return ringAllGatherBody(AlgoRabenseifner, "allgather_rhd", n)
	case CollAllReduce:
		if isPow2(n) {
			return rabenseifnerAllReducePlan(n)
		}
		return ringAllReduceBody(AlgoRabenseifner, "allreduce_rab", n)
	}
	return nil
}

// flatRing is the ring over all n PEs circulating what(c) as chunk c.
func flatRing(n int, what func(c int) piece) []ring {
	return []ring{{k: n, step: 1, piece: what}}
}

// ringReduceScatterBody builds the ring reduce-scatter under the given
// algorithm name: stage the full contribution, run n−1 pull-and-fold
// rounds — every PE pulls one chunk from its left neighbour into
// scratch and folds it into its staged copy; reads and writes of a
// round touch adjacent chunk ids, so no PE ever reads a chunk its
// neighbour is combining that round — and land the PE's own
// fully-reduced chunk in dest.
func ringReduceScatterBody(algo Algorithm, span string, n int) *Plan {
	b := newBuilder(&Plan{
		Collective: CollReduceScatter, Algorithm: algo, Span: span, NPEs: n,
		Stage: BufTotal, Scratch: BufTotal, Adj: AdjChunks, UsesOp: true,
		Chunked: true, Depth: n - 1,
	})
	b.stageVector()
	ringRounds(flatRing(n, block), ringChunk, b.fold)
	b.deliverBlock()
	return b.done()
}

func ringReduceScatterPlan(n int) *Plan {
	return ringReduceScatterBody(AlgoRing, "reduce_scatter_ring", n)
}

// ringAllGatherBody builds the ring allgather: every PE plants its own
// block in dest, then n−1 rounds forward the block received r rounds
// ago to the right neighbour — the all-gather phase of the van de Geijn
// broadcast generalised to the caller's pe_msgs/pe_disp layout.
func ringAllGatherBody(algo Algorithm, span string, n int) *Plan {
	b := newBuilder(&Plan{
		Collective: CollAllGather, Algorithm: algo, Span: span, NPEs: n,
		Adj: AdjVector, Chunked: true, Depth: n - 1,
	})
	placed := func(c int) piece { return block(c).at(OffDisp) }
	b.local(b.perPE(func(steps []Step, v int) []Step {
		return b.step(steps, StepCopy, v, -1, placed(v).in(BufDest), Loc{Buf: BufSrc}, placed(v))
	}), true)
	ringRounds(flatRing(n, placed), ringOwned, func(m []move) { b.push(flip(m), BufDest) })
	return b.done()
}

func ringAllGatherPlan(n int) *Plan {
	return ringAllGatherBody(AlgoRing, "allgather_ring", n)
}

// ringAllReduceBody fuses reduce-scatter and allgather over one staging
// buffer: n−1 pull-and-fold rounds leave PE v owning fully-reduced
// chunk v, n−1 rounds pull the reduced chunks on round the ring
// straight into the staged vector, and every PE copies the assembled
// vector to dest. Each PE moves 2·(n−1)/n of the payload in total —
// the bandwidth-optimal volume.
func ringAllReduceBody(algo Algorithm, span string, n int) *Plan {
	b := newBuilder(&Plan{
		Collective: CollAllReduce, Algorithm: algo, Span: span, NPEs: n,
		Stage: BufTotal, Scratch: BufTotal, Adj: AdjChunks, UsesOp: true,
		Chunked: true, Depth: 2 * (n - 1),
	})
	b.stageVector()
	ringRounds(flatRing(n, block), ringChunk, b.fold)
	ringRounds(flatRing(n, block), ringOwned, b.pull)
	b.deliverVector()
	return b.done()
}

func ringAllReducePlan(n int) *Plan {
	return ringAllReduceBody(AlgoRing, "allreduce_ring", n)
}

// chainEdges is the chain 0→1→…→n−1 as a degenerate tree, one link per
// level: root-first for a broadcast, tail-first (rootward true) for a
// reduce.
func chainEdges(n int, rootward bool) [][]treeEdge {
	levels := make([][]treeEdge, 0, n)
	for a := 0; a < n-1; a++ {
		levels = append(levels, []treeEdge{{from: a, to: a + 1}})
	}
	if rootward {
		slices.Reverse(levels)
	}
	return levels
}

// ringBroadcastPlan chains the PEs 0→1→…→n−1, each hop forwarding the
// whole payload. Unsegmented it is dominated by the tree at every size;
// it exists as the base shape of the pipelined form below, where the
// chain is what makes every link carry each byte exactly once.
func ringBroadcastPlan(n int) *Plan {
	b := newBuilder(&Plan{
		Collective: CollBroadcast, Algorithm: AlgoRing, Span: "broadcast_ring", NPEs: n,
		Chunked: true, Depth: n - 1,
	})
	b.seedRoot()
	for _, link := range chainEdges(n, false) {
		b.push(treeMoves(always(whole()), link), BufDest)
	}
	return b.done()
}

// ringReducePlan is the chain read root-ward: PE a pulls the partial of
// PE a+1 and folds it in, n−1 rounds from the tail to virtual rank 0.
func ringReducePlan(n int) *Plan {
	b := newBuilder(&Plan{
		Collective: CollReduce, Algorithm: AlgoRing, Span: "reduce_ring", NPEs: n,
		Stage: BufSpan, Scratch: BufSpan, UsesOp: true,
		Chunked: true, Depth: n - 1,
	})
	b.stageVector()
	for _, link := range chainEdges(n, true) {
		b.fold(treeMoves(always(whole()), link))
	}
	b.deliverRoot()
	return b.done()
}

// ringBroadcastSegPlan streams S segments down the chain with flag
// pipelining: every link forwards segment k as soon as it has arrived,
// so all n−1 links are busy at once and the critical path is
// (n−1)+(S−1) segment hops — against the pipelined tree's
// ⌈log₂ n⌉+S−1 it trades depth for moving each byte once per link.
// The tail forwards nothing but still waits on (consumes) its flag: an
// unconsumed post outlives the flag block and would release the next
// plan that reuses the address.
func ringBroadcastSegPlan(n, s int) *Plan {
	b := newBuilder(&Plan{
		Collective: CollBroadcast, Algorithm: AlgoRing, Span: "broadcast_ring", NPEs: n,
		Segments: s, FlagWords: s, Depth: (n - 1) + (s - 1), Chunked: true,
	})
	b.seedRoot()
	chain := chainEdges(n, false)
	for seg := 0; seg < s; seg++ {
		b.forward(treeMoves(always(segment(seg)), chain...), BufDest, seg)
	}
	return b.done()
}

// ringReduceSegPlan pipelines the chain reduce: per segment, PE a
// waits for its successor's signal, pulls the successor's folded
// partial and combines it in, then (one link up, next emission) its own
// predecessor does the same. The tail PE signals as soon as its slice
// is staged, so segment k+1 climbs the chain while segment k is still
// in flight. Links are emitted tail-first: actor a's fold (link a)
// lands before its signal (link a−1), so actor order encodes the
// dependency. Flags are per {link, segment}: word a·S+seg posts to the
// puller of link a.
func ringReduceSegPlan(n, s int) *Plan {
	b := newBuilder(&Plan{
		Collective: CollReduce, Algorithm: AlgoRing, Span: "reduce_ring", NPEs: n,
		Stage: BufSpan, Scratch: BufSpan, UsesOp: true,
		Segments: s, FlagWords: (n - 1) * s, Depth: (n - 1) + (s - 1), Chunked: true,
	})
	chain := chainEdges(n, true)
	for seg := 0; seg < s; seg++ {
		b.harvest(segment(seg), chain, func(t int) int { return chain[t][0].from*s + seg })
	}
	b.deliverRoot()
	return b.done()
}

// doublingRounds is the recursive-doubling allgather schedule for
// power-of-two n: in round j PE v pulls the 2^j-chunk region its
// partner v^2^j currently owns, doubling its own region. Regions are
// contiguous runs of chunks in virtual-rank order, so a subtree piece
// expresses them exactly. Time-reversed it is the recursive-halving
// reduce-scatter: in round k each PE exchanges with the partner across
// its group's halving distance, pulling the half of the group's chunks
// that contains its own and folding it in, so after log₂ n rounds chunk
// v is fully reduced at PE v.
func doublingRounds(n int) [][]move {
	rounds := make([][]move, CeilLog2(n))
	for j := range rounds {
		rounds[j] = make([]move, n)
		for v := range rounds[j] {
			partner := v ^ (1 << j)
			rounds[j][v] = move{actor: v, peer: partner, what: subtree(partner&^((1<<j)-1), j)}
		}
	}
	return rounds
}

// halvingReduceScatterPlan is the recursive-halving reduce-scatter for
// power-of-two counts: log₂ n exchange rounds, each moving half the
// surviving region, for (n−1)/n total payload volume per PE.
func halvingReduceScatterPlan(n int) *Plan {
	b := newBuilder(&Plan{
		Collective: CollReduceScatter, Algorithm: AlgoRabenseifner, Span: "reduce_scatter_rhd", NPEs: n,
		Stage: BufTotal, Scratch: BufTotal, Adj: AdjChunks, UsesOp: true,
		Chunked: true, Depth: CeilLog2(n),
	})
	b.stageVector()
	for _, moves := range timeReversed(doublingRounds(n)) {
		b.fold(moves)
	}
	b.deliverBlock()
	return b.done()
}

// doublingAllGatherPlan is the recursive-doubling allgather for
// power-of-two counts: each PE stages its block at its adjusted offset
// and log₂ n exchange rounds double the owned region by pulling the
// partner's, like the binomial gather but with both directions busy
// every round.
func doublingAllGatherPlan(n int) *Plan {
	b := newBuilder(&Plan{
		Collective: CollAllGather, Algorithm: AlgoRabenseifner, Span: "allgather_rhd", NPEs: n,
		Stage: BufTotal, Adj: AdjVector, Chunked: true, Depth: CeilLog2(n),
	})
	b.stageBlocks()
	for _, moves := range doublingRounds(n) {
		b.pull(moves)
	}
	b.unpackVector()
	return b.done()
}

// rabenseifnerAllReducePlan is Rabenseifner's allreduce for
// power-of-two counts: recursive-halving reduce-scatter followed by
// recursive-doubling allgather over one staging buffer — 2·(n−1)/n
// payload volume per PE in 2·log₂ n rounds, against the binomial
// composition's 2·log₂ n whole-payload rounds.
func rabenseifnerAllReducePlan(n int) *Plan {
	b := newBuilder(&Plan{
		Collective: CollAllReduce, Algorithm: AlgoRabenseifner, Span: "allreduce_rab", NPEs: n,
		Stage: BufTotal, Scratch: BufTotal, Adj: AdjChunks, UsesOp: true,
		Chunked: true, Depth: 2 * CeilLog2(n),
	})
	b.stageVector()
	for _, moves := range timeReversed(doublingRounds(n)) {
		b.fold(moves)
	}
	for _, moves := range doublingRounds(n) {
		b.pull(moves)
	}
	b.deliverVector()
	return b.done()
}

func init() {
	RegisterPlanner(&Planner{
		Name: AlgoRing,
		Collectives: []Collective{
			CollBroadcast, CollReduce, CollAllReduce, CollAllGather,
			CollReduceScatter,
		},
		Compile:    compileRing,
		CompileSeg: compileRingSeg,
	})
	RegisterPlanner(&Planner{
		Name: AlgoRabenseifner,
		Collectives: []Collective{
			CollAllReduce, CollAllGather, CollReduceScatter,
		},
		Compile: compileRabenseifner,
	})
}
