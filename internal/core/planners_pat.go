package core

// The PAT (Parallel Aggregated Trees) planner: log-depth allgather and
// reduce-scatter that move aggregated runs of blocks instead of one
// block per round. The allgather is the Bruck-style doubling schedule
// in block space — after round k every PE owns the min(2^(k+1), n)
// consecutive blocks starting at its own — and the reduce-scatter is
// its time-reversed mirror: the same transfer graph with the edges
// reversed, rounds run in descending order, and a combine replacing
// each landing. Both finish in ⌈log₂ n⌉ rounds at any PE count (no
// power-of-two fallback) while matching the ring planners' per-byte
// volume within a factor (n/(n−1))·⌈log₂ n⌉/... — the point is pairing
// ring-like volume with tree-like depth, which is what wins once α
// dominates at scale. Runs are contiguous in virtual-rank block order,
// so CountRun/OffAdj express each transfer in at most two steps (one
// wrap split).

func compilePAT(coll Collective, n int) *Plan {
	switch coll {
	case CollAllGather:
		return patAllGatherPlan(n)
	case CollReduceScatter:
		return patReduceScatterPlan(n)
	}
	return nil
}

// patRounds is the allgather schedule: in round k PE v pulls from peer
// (v+2^k) mod n the run of min(2^k, n−2^k) blocks starting at the
// peer's own — exactly the blocks v is missing next. A run that wraps
// past block n−1 is two consecutive moves, one per contiguous half.
// Writer and read runs of a round are disjoint (the peer writes blocks
// 2^k further along, and 2^k + run ≤ n), so no barrier-free hazard
// exists within a round.
func patRounds(n int) [][]move {
	var rounds [][]move
	for d := 1; d < n; d <<= 1 {
		length := min(d, n-d)
		moves := make([]move, 0, n+length)
		for v := 0; v < n; v++ {
			peer := (v + d) % n
			first := min(length, n-peer)
			moves = append(moves, move{actor: v, peer: peer, what: run(peer, first)})
			if first < length {
				moves = append(moves, move{actor: v, peer: peer, what: run(0, length-first)})
			}
		}
		rounds = append(rounds, moves)
	}
	return rounds
}

// patAllGatherPlan: every PE plants its own block at its adjusted
// offset, then pulls along patRounds.
func patAllGatherPlan(n int) *Plan {
	b := newBuilder(&Plan{
		Collective: CollAllGather, Algorithm: AlgoPAT, Span: "allgather_pat", NPEs: n,
		Stage: BufTotal, Adj: AdjVector, Chunked: true, Depth: CeilLog2(n),
	})
	b.stageBlocks()
	for _, moves := range patRounds(n) {
		b.pull(moves)
	}
	b.unpackVector()
	return b.done()
}

// patReduceScatterPlan is the allgather run time-reversed: rounds run
// k = K−1 … 0 and PE v pulls the run of min(2^k, n−2^k) blocks starting
// at its own from peer (v−2^k) mod n, folding them into its staged
// copy. Reversing every allgather delivery turns "block b reaches every
// PE" into "every contribution to block b reaches PE b", so after the
// last round each PE's own block is fully reduced; the contribution
// sets merged at each fold are disjoint for the same reason the forward
// runs never overlap.
func patReduceScatterPlan(n int) *Plan {
	b := newBuilder(&Plan{
		Collective: CollReduceScatter, Algorithm: AlgoPAT, Span: "reduce_scatter_pat", NPEs: n,
		Stage: BufTotal, Scratch: BufTotal, Adj: AdjChunks, UsesOp: true,
		Chunked: true, Depth: CeilLog2(n),
	})
	b.stageVector()
	for _, moves := range timeReversed(patRounds(n)) {
		b.fold(moves)
	}
	b.deliverBlock()
	return b.done()
}

func init() {
	RegisterPlanner(&Planner{
		Name:        AlgoPAT,
		Collectives: []Collective{CollAllGather, CollReduceScatter},
		Compile:     compilePAT,
	})
}
