package core

// The hierarchical planner family: two-level schedules for grouped
// (nodes × PEs-per-node) fabrics, where intra-node links are cheap and
// the inter-node links behind the shared switch are not. Every schedule
// is built so the bulk of the payload moves intra-node and the
// inter-node phase carries only what must cross — the per-node-reduced
// partials, or one copy of each node's contribution.
//
// Two forms cover the PE layouts:
//
//   - rail form (n divisible by PerNode): member m of every node forms
//     "rail" m, an NCCL-multi-rail-style schedule — an intra-node ring
//     reduce-scatter splits the vector into per-member superchunks,
//     each rail runs the inter-node ring over its own superchunk with
//     all P rails in flight concurrently, and an intra-node allgather
//     reassembles. No PE is idle in any phase and the inter-node
//     traffic per PE drops by the node width.
//   - leader form (uneven groups, and the rooted collectives): binomial
//     trees inside each node elect virtual rank i·P as the node leader,
//     the leaders run the existing flat schedule (ring for the rootless
//     collectives, binomial trees for broadcast/reduce) among
//     themselves, and intra-node trees fan the result back out.
//
// Plans stay in virtual-rank space like every other planner: node
// boundaries are drawn on virtual ranks, which matches the physical
// grouping exactly for the canonical root 0 and is a rotation of it for
// other roots.

// hierGroups returns the group count for n PEs at P per node.
func hierGroups(n, P int) int { return (n + P - 1) / P }

func compileHier(coll Collective, n int, sh Shape) *Plan {
	P := sh.PerNode
	if P < 1 || P > n {
		P = n
	}
	switch coll {
	case CollAllReduce:
		if P > 1 && n%P == 0 && n/P > 1 {
			return hierRailAllReducePlan(n, P)
		}
		return hierLeaderAllReducePlan(n, P)
	case CollAllGather:
		if P > 1 && n%P == 0 && n/P > 1 {
			return hierRailAllGatherPlan(n, P)
		}
		return hierLeaderAllGatherPlan(n, P)
	case CollBroadcast:
		return hierBroadcastPlan(n, P)
	case CollReduce:
		return hierReducePlan(n, P)
	}
	return nil
}

// nodeRings is one ring per node over its P members, all circulating
// what(c) as chunk c.
func nodeRings(g, P int, what func(c int) piece) []ring {
	rings := make([]ring, g)
	for i := range rings {
		rings[i] = ring{k: P, base: i * P, step: 1, piece: what}
	}
	return rings
}

// railRings is one ring per rail — member m of each of the g nodes —
// with rail m circulating what(m, c) as chunk c.
func railRings(g, P int, what func(m, c int) piece) []ring {
	rings := make([]ring, P)
	for m := range rings {
		rings[m] = ring{k: g, base: m, step: P, piece: func(c int) piece { return what(m, c) }}
	}
	return rings
}

// leaderRing is the ring over the g node leaders.
func leaderRing(g, P int, what func(c int) piece) []ring {
	return []ring{{k: g, step: P, piece: what}}
}

// hierRailAllReducePlan: intra-node ring reduce-scatter over P
// superchunks of g blocks each, a per-rail inter-node ring
// reduce-scatter + allgather on each member's superchunk, and an
// intra-node allgather of the reduced superchunks. Inter-node volume
// per PE is 2·(g−1)/n of the payload — the flat ring's volume divided
// by the node width.
func hierRailAllReducePlan(n, P int) *Plan {
	g := n / P
	b := newBuilder(&Plan{
		Collective: CollAllReduce, Algorithm: AlgoHier, Span: "allreduce_hier", NPEs: n,
		Stage: BufTotal, Scratch: BufTotal, Adj: AdjChunks, UsesOp: true,
		Chunked: true, Depth: 2*(P-1) + 2*(g-1),
	})
	nodes := nodeRings(g, P, func(c int) piece { return run(c*g, g) })
	rails := railRings(g, P, func(m, c int) piece { return block(m*g + c) })
	b.stageVector()
	// Phase 1: intra-node ring reduce-scatter over superchunks. After
	// P−1 rounds member m holds superchunk m summed over its node.
	ringRounds(nodes, ringChunk, b.fold)
	// Phase 2a: per-rail inter-node ring reduce-scatter — rail m
	// distributes superchunk m's g blocks over the g nodes. After g−1
	// rounds member m of node i holds block m·g+i globally reduced.
	ringRounds(rails, ringChunk, b.fold)
	// Phase 2b: per-rail inter-node ring allgather of the reduced
	// blocks; every rail member ends with superchunk m complete.
	ringRounds(rails, ringOwned, b.pull)
	// Phase 3: intra-node ring allgather of the superchunks.
	ringRounds(nodes, ringOwned, b.pull)
	b.deliverVector()
	return b.done()
}

// hierLeaderAllReducePlan: binomial reduce of the full vector to each
// node leader, a ring reduce-scatter + allgather over the g leaders on
// near-equal block runs, and a binomial broadcast back inside each
// node. Handles uneven node populations (the last node may be partial).
func hierLeaderAllReducePlan(n, P int) *Plan {
	g := hierGroups(n, P)
	b := newBuilder(&Plan{
		Collective: CollAllReduce, Algorithm: AlgoHier, Span: "allreduce_hier", NPEs: n,
		Stage: BufTotal, Scratch: BufTotal, Adj: AdjChunks, UsesOp: true,
		Chunked: true, Depth: 2*CeilLog2(P) + 2*(g-1),
	})
	b.stageVector()
	// Phase 1: intra-node binomial get-tree reduce of the full vector,
	// levels aligned across nodes so one barrier closes each.
	for _, level := range groupTrees(n, P, getTreeEdges) {
		b.fold(treeMoves(always(whole()), level))
	}
	// Phase 2: ring reduce-scatter + allgather over the leaders on g
	// near-equal runs of chunk blocks (run s = blocks [s·n/g, (s+1)·n/g)).
	leaders := leaderRing(g, P, func(s int) piece { return run(s*n/g, (s+1)*n/g-s*n/g) })
	ringRounds(leaders, ringChunk, b.fold)
	ringRounds(leaders, ringOwned, b.pull)
	// Phase 3: intra-node binomial put-tree broadcast of the reduced
	// vector.
	for _, level := range groupTrees(n, P, putTreeEdges) {
		b.push(treeMoves(always(whole()), level), BufStage)
	}
	b.deliverVector()
	return b.done()
}

// hierRailAllGatherPlan: a per-rail inter-node ring allgather collects
// each rail's column of blocks, then an intra-node ring allgather of
// whole columns (one multi-block step per hop) completes the vector.
// Each block crosses the inter-node links exactly g−1 times total
// across the node — 1/P of the flat ring's crossings.
func hierRailAllGatherPlan(n, P int) *Plan {
	g := n / P
	b := newBuilder(&Plan{
		Collective: CollAllGather, Algorithm: AlgoHier, Span: "allgather_hier", NPEs: n,
		Stage: BufTotal, Adj: AdjVector, Chunked: true,
		Depth: (g - 1) + (P - 1),
	})
	b.stageBlocks()
	// Phase A: rail ring allgather over the nodes — member m of node i
	// collects column m (blocks ≡ m mod P) from its rail.
	ringRounds(railRings(g, P, func(m, c int) piece { return block(c*P + m) }), ringOwned, b.pull)
	// Phase B: intra-node ring allgather of whole columns; one
	// multi-block get moves the g blocks of column m' per hop.
	ringRounds(nodeRings(g, P, func(c int) piece { return block(c).every(g, P) }), ringOwned, b.pull)
	b.unpackVector()
	return b.done()
}

// hierLeaderAllGatherPlan: binomial gather of each node's blocks to its
// leader, a ring allgather of whole node runs over the leaders, and a
// binomial broadcast of the assembled vector back inside each node.
func hierLeaderAllGatherPlan(n, P int) *Plan {
	g := hierGroups(n, P)
	b := newBuilder(&Plan{
		Collective: CollAllGather, Algorithm: AlgoHier, Span: "allgather_hier", NPEs: n,
		Stage: BufTotal, Adj: AdjVector, Chunked: true,
		Depth: 2*CeilLog2(P) + (g - 1),
	})
	b.stageBlocks()
	// Phase 1: intra-node binomial gather, levels aligned across nodes.
	// Subtree runs are clipped to the node, so a run carries the
	// explicit block count instead of a subtree's global clip.
	for _, level := range groupTrees(n, P, getTreeEdges) {
		b.pull(treeMoves(func(e treeEdge) piece {
			return run(e.to, min(1<<e.bit, min((e.to/P+1)*P, n)-e.to))
		}, level))
	}
	// Phase 2: ring allgather of whole node runs over the leaders.
	ringRounds(leaderRing(g, P, func(s int) piece { return run(s*P, min(P, n-s*P)) }), ringOwned, b.pull)
	// Phase 3: intra-node binomial broadcast of the assembled vector.
	for _, level := range groupTrees(n, P, putTreeEdges) {
		b.push(treeMoves(always(run(0, n).at(OffZero)), level), BufStage)
	}
	b.unpackVector()
	return b.done()
}

// hierBroadcastPlan: a binomial put tree over the node leaders, then
// aligned binomial put trees inside every node — the whole payload
// crosses the inter-node links ⌈log₂ g⌉ times instead of the flat
// tree's ⌈log₂ n⌉.
func hierBroadcastPlan(n, P int) *Plan {
	g := hierGroups(n, P)
	b := newBuilder(&Plan{
		Collective: CollBroadcast, Algorithm: AlgoHier, Span: "broadcast_hier",
		NPEs: n, Chunked: true, Depth: CeilLog2(g) + CeilLog2(P),
	})
	b.seedRoot()
	for _, level := range append(leaderTrees(g, P, putTreeEdges), groupTrees(n, P, putTreeEdges)...) {
		b.push(treeMoves(always(whole()), level), BufDest)
	}
	return b.done()
}

// hierReducePlan: aligned binomial get trees inside every node reduce
// to the leaders, a binomial get tree over the leaders reduces to the
// root. The element path and buffer discipline mirror the paper's
// binomial reduce.
func hierReducePlan(n, P int) *Plan {
	g := hierGroups(n, P)
	b := newBuilder(&Plan{
		Collective: CollReduce, Algorithm: AlgoHier, Span: "reduce_hier", NPEs: n,
		Stage: BufSpan, Scratch: BufSpan, UsesOp: true,
		Depth: CeilLog2(P) + CeilLog2(g),
	})
	b.stageVector()
	for _, level := range append(groupTrees(n, P, getTreeEdges), leaderTrees(g, P, getTreeEdges)...) {
		b.fold(treeMoves(always(whole()), level))
	}
	b.deliverRoot()
	return b.done()
}

func init() {
	RegisterPlanner(&Planner{
		Name: AlgoHier,
		Collectives: []Collective{
			CollBroadcast, CollReduce, CollAllReduce, CollAllGather,
		},
		Compile: func(coll Collective, n int) *Plan {
			// Explicit flat selection: one node holding every PE — the
			// intra phases become the whole schedule.
			return compileHier(coll, n, Shape{PerNode: n})
		},
		CompileShaped: compileHier,
	})
}
