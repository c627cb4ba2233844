package core

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

// ringChunk is the chunk PE v pulls from its left neighbour in
// reduce-scatter round r: the partial its neighbour finished
// accumulating in round r−1 (chunk (v−r−2) mod n), so after n−1 rounds
// chunk v is fully reduced at PE v.
func ringChunk(v, r, n int) int { return ((v-r-2)%n + n) % n }

// appendRingRS emits the ring reduce-scatter rounds onto p: in round r
// every PE pulls one chunk from its left neighbour into scratch and
// folds it into its staged copy. Reads and writes of a round touch
// adjacent chunk ids, so no PE ever reads a chunk its neighbour is
// combining that round.
func appendRingRS(p *Plan, n int, span string, idx int) int {
	for r := 0; r < n-1; r++ {
		rd := Round{Name: span + ".round", Idx: idx}
		idx++
		for v := 0; v < n; v++ {
			c := ringChunk(v, r, n)
			rd.Steps = append(rd.Steps,
				Step{
					Kind: StepGet, Actor: v, Peer: (v - 1 + n) % n,
					Dst:   Loc{Buf: BufScratch, Off: OffAdj, V: c},
					Src:   Loc{Buf: BufStage, Off: OffAdj, V: c},
					Count: CountBlock, CV: c, SkipIfZero: true,
				},
				Step{
					Kind: StepCombine, Actor: v, Peer: -1,
					Dst:   Loc{Buf: BufStage, Off: OffAdj, V: c},
					Src:   Loc{Buf: BufScratch, Off: OffAdj, V: c},
					Count: CountBlock, CV: c,
				})
		}
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
	}
	return idx
}

// ringReduceScatterBody builds the ring reduce-scatter under the given
// algorithm name: stage the full contribution, run n−1 pull-and-fold
// rounds, and land the PE's own fully-reduced chunk in dest.
func ringReduceScatterBody(algo Algorithm, span string, n int) *Plan {
	p := &Plan{
		Collective: CollReduceScatter, Algorithm: algo, Span: span, NPEs: n,
		Stage: BufTotal, Scratch: BufTotal, Adj: AdjChunks, UsesOp: true,
		Chunked: true, Depth: n - 1,
	}
	pro := Round{Idx: -1}
	for v := 0; v < n; v++ {
		pro.Steps = append(pro.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst: Loc{Buf: BufStage}, Src: Loc{Buf: BufSrc},
			Count: CountAll,
		})
	}
	pro.Steps = append(pro.Steps, barrierStep())
	p.Rounds = append(p.Rounds, pro)
	appendRingRS(p, n, span, 0)
	epi := Round{Idx: -1}
	for v := 0; v < n; v++ {
		epi.Steps = append(epi.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst:   Loc{Buf: BufDest},
			Src:   Loc{Buf: BufStage, Off: OffAdj, V: v},
			Count: CountBlock, CV: v,
		})
	}
	p.Rounds = append(p.Rounds, epi)
	return p
}

func ringReduceScatterPlan(n int) *Plan {
	return ringReduceScatterBody(AlgoRing, "reduce_scatter_ring", n)
}

// ringAllGatherBody builds the ring allgather: every PE plants its own
// block in dest, then n−1 rounds forward the block received r rounds
// ago to the right neighbour — the all-gather phase of the van de Geijn
// broadcast generalised to the caller's pe_msgs/pe_disp layout.
func ringAllGatherBody(algo Algorithm, span string, n int) *Plan {
	p := &Plan{
		Collective: CollAllGather, Algorithm: algo, Span: span, NPEs: n,
		Adj: AdjVector, Chunked: true, Depth: n - 1,
	}
	pro := Round{Idx: -1}
	for v := 0; v < n; v++ {
		pro.Steps = append(pro.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst:   Loc{Buf: BufDest, Off: OffDisp, V: v},
			Src:   Loc{Buf: BufSrc},
			Count: CountBlock, CV: v,
		})
	}
	pro.Steps = append(pro.Steps, barrierStep())
	p.Rounds = append(p.Rounds, pro)
	for r := 0; r < n-1; r++ {
		rd := Round{Name: span + ".round", Idx: r}
		for v := 0; v < n; v++ {
			u := ((v-r)%n + n) % n
			rd.Steps = append(rd.Steps, Step{
				Kind: StepPut, Actor: v, Peer: (v + 1) % n,
				Dst:   Loc{Buf: BufDest, Off: OffDisp, V: u},
				Src:   Loc{Buf: BufDest, Off: OffDisp, V: u},
				Count: CountBlock, CV: u, SkipIfZero: true,
			})
		}
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
	}
	return p
}

func ringAllGatherPlan(n int) *Plan {
	return ringAllGatherBody(AlgoRing, "allgather_ring", n)
}

// ringAllReduceBody fuses reduce-scatter and allgather over one staging
// buffer: n−1 pull-and-fold rounds leave PE v owning fully-reduced
// chunk v, n−1 forwarding rounds circulate the reduced chunks, and
// every PE copies the assembled vector to dest. Each PE moves
// 2·(n−1)/n of the payload in total — the bandwidth-optimal volume.
func ringAllReduceBody(algo Algorithm, span string, n int) *Plan {
	p := &Plan{
		Collective: CollAllReduce, Algorithm: algo, Span: span, NPEs: n,
		Stage: BufTotal, Scratch: BufTotal, Adj: AdjChunks, UsesOp: true,
		Chunked: true, Depth: 2 * (n - 1),
	}
	pro := Round{Idx: -1}
	for v := 0; v < n; v++ {
		pro.Steps = append(pro.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst: Loc{Buf: BufStage}, Src: Loc{Buf: BufSrc},
			Count: CountAll, SrcStrided: true,
		})
	}
	pro.Steps = append(pro.Steps, barrierStep())
	p.Rounds = append(p.Rounds, pro)
	idx := appendRingRS(p, n, span, 0)
	// Allgather phase: in round r the left neighbour finished owning
	// chunk (v−1−r) mod n exactly r rounds ago; pull it straight into
	// the staged vector.
	for r := 0; r < n-1; r++ {
		rd := Round{Name: span + ".round", Idx: idx}
		idx++
		for v := 0; v < n; v++ {
			c := ((v-1-r)%n + n) % n
			rd.Steps = append(rd.Steps, Step{
				Kind: StepGet, Actor: v, Peer: (v - 1 + n) % n,
				Dst:   Loc{Buf: BufStage, Off: OffAdj, V: c},
				Src:   Loc{Buf: BufStage, Off: OffAdj, V: c},
				Count: CountBlock, CV: c, SkipIfZero: true,
			})
		}
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
	}
	epi := Round{Idx: -1}
	for v := 0; v < n; v++ {
		epi.Steps = append(epi.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufStage},
			Count: CountAll, DstStrided: true,
		})
	}
	p.Rounds = append(p.Rounds, epi)
	return p
}

func ringAllReducePlan(n int) *Plan {
	return ringAllReduceBody(AlgoRing, "allreduce_ring", n)
}

// ringBroadcastPlan chains the PEs 0→1→…→n−1, each hop forwarding the
// whole payload. Unsegmented it is dominated by the tree at every size;
// it exists as the base shape of the pipelined form below, where the
// chain is what makes every link carry each byte exactly once.
func ringBroadcastPlan(n int) *Plan {
	p := &Plan{
		Collective: CollBroadcast, Algorithm: AlgoRing, Span: "broadcast_ring", NPEs: n,
		Chunked: true, Depth: n - 1,
	}
	p.Rounds = append(p.Rounds, Round{Idx: -1, Steps: []Step{{
		Kind: StepCopy, Actor: 0, Peer: -1,
		Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufSrc},
		Count: CountAll, DstStrided: true, SrcStrided: true,
		SkipIfAlias: true,
	}}})
	for r := 0; r < n-1; r++ {
		rd := Round{Name: "broadcast_ring.round", Idx: r}
		rd.Steps = append(rd.Steps, Step{
			Kind: StepPut, Actor: r, Peer: r + 1,
			Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufDest},
			Count: CountAll, Strided: true,
		})
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
	}
	return p
}

// ringReducePlan is the chain read root-ward: PE a pulls the partial of
// PE a+1 and folds it in, n−1 rounds from the tail to virtual rank 0.
func ringReducePlan(n int) *Plan {
	p := &Plan{
		Collective: CollReduce, Algorithm: AlgoRing, Span: "reduce_ring", NPEs: n,
		Stage: BufSpan, Scratch: BufSpan, UsesOp: true,
		Chunked: true, Depth: n - 1,
	}
	pro := Round{Idx: -1, Steps: stageAll(n)}
	pro.Steps = append(pro.Steps, barrierStep())
	p.Rounds = append(p.Rounds, pro)
	for r := 0; r < n-1; r++ {
		a := n - 2 - r
		rd := Round{Name: "reduce_ring.round", Idx: r}
		rd.Steps = append(rd.Steps,
			Step{
				Kind: StepGet, Actor: a, Peer: a + 1,
				Dst: Loc{Buf: BufScratch}, Src: Loc{Buf: BufStage},
				Count: CountAll, Strided: true,
			},
			Step{
				Kind: StepCombine, Actor: a, Peer: -1,
				Dst: Loc{Buf: BufStage}, Src: Loc{Buf: BufScratch},
				Count: CountAll, DstStrided: true, SrcStrided: true,
			},
			barrierStep())
		p.Rounds = append(p.Rounds, rd)
	}
	p.Rounds = append(p.Rounds, Round{Idx: -1, Steps: []Step{{
		Kind: StepCopy, Actor: 0, Peer: -1,
		Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufStage},
		Count: CountAll, DstStrided: true, SrcStrided: true,
	}}})
	return p
}

// ringBroadcastSegPlan streams S segments down the chain with flag
// pipelining: every link forwards segment k as soon as it has arrived,
// so all n−1 links are busy at once and the critical path is
// (n−1)+(S−1) segment hops — against the pipelined tree's
// ⌈log₂ n⌉+S−1 it trades depth for moving each byte once per link.
func ringBroadcastSegPlan(n, s int) *Plan {
	p := &Plan{
		Collective: CollBroadcast, Algorithm: AlgoRing, Span: "broadcast_ring", NPEs: n,
		Segments: s, FlagWords: s, Depth: (n - 1) + (s - 1), Chunked: true,
	}
	p.Rounds = append(p.Rounds, Round{Idx: -1, Steps: []Step{{
		Kind: StepCopy, Actor: 0, Peer: -1,
		Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufSrc},
		Count: CountAll, DstStrided: true, SrcStrided: true,
		SkipIfAlias: true,
	}}})
	for seg := 0; seg < s; seg++ {
		r := Round{Name: "broadcast_ring.round", Idx: seg, NB: true}
		for v := 0; v < n; v++ {
			if v > 0 {
				r.Steps = append(r.Steps, Step{Kind: StepWaitFlag, Actor: v, Peer: -1, Flag: seg})
			}
			if v == n-1 {
				// The tail forwards nothing but must still consume its
				// flag: an unconsumed post outlives the flag block and
				// would release the next plan that reuses the address.
				break
			}
			r.Steps = append(r.Steps,
				Step{
					Kind: StepPut, Actor: v, Peer: v + 1,
					Dst:   Loc{Buf: BufDest, Off: OffSeg, V: seg},
					Src:   Loc{Buf: BufDest, Off: OffSeg, V: seg},
					Count: CountSeg, CV: seg, Strided: true, SkipIfZero: true,
				},
				Step{Kind: StepSignal, Actor: v, Peer: v + 1, Flag: seg},
			)
		}
		p.Rounds = append(p.Rounds, r)
	}
	p.Rounds = append(p.Rounds, Round{Idx: -1, Steps: []Step{barrierStep()}})
	return p
}

// ringReduceSegPlan pipelines the chain reduce: per segment, PE a
// waits for its successor's signal, pulls the successor's folded
// partial and combines it in, then (one link up, next emission) its own
// predecessor does the same. The tail PE signals as soon as its slice
// is staged, so segment k+1 climbs the chain while segment k is still
// in flight. Flags are per {link, segment}: word a·S+seg posts to the
// puller of link a.
func ringReduceSegPlan(n, s int) *Plan {
	p := &Plan{
		Collective: CollReduce, Algorithm: AlgoRing, Span: "reduce_ring", NPEs: n,
		Stage: BufSpan, Scratch: BufSpan, UsesOp: true,
		Segments: s, FlagWords: (n - 1) * s, Depth: (n - 1) + (s - 1), Chunked: true,
	}
	for seg := 0; seg < s; seg++ {
		r := Round{Name: "reduce_ring.round", Idx: seg}
		for v := 0; v < n; v++ {
			r.Steps = append(r.Steps, Step{
				Kind: StepCopy, Actor: v, Peer: -1,
				Dst:   Loc{Buf: BufStage, Off: OffSeg, V: seg},
				Src:   Loc{Buf: BufSrc, Off: OffSeg, V: seg},
				Count: CountSeg, CV: seg, DstStrided: true, SrcStrided: true,
			})
		}
		// Emit links tail-first: actor a's fold (link a) lands before
		// its signal (link a−1), so actor order encodes the dependency.
		for a := n - 2; a >= 0; a-- {
			f := a*s + seg
			r.Steps = append(r.Steps,
				Step{Kind: StepSignal, Actor: a + 1, Peer: a, Flag: f},
				Step{Kind: StepWaitFlag, Actor: a, Peer: -1, Flag: f},
				Step{
					Kind: StepGet, Actor: a, Peer: a + 1,
					Dst:   Loc{Buf: BufScratch, Off: OffSeg, V: seg},
					Src:   Loc{Buf: BufStage, Off: OffSeg, V: seg},
					Count: CountSeg, CV: seg, Strided: true,
				},
				Step{
					Kind: StepCombine, Actor: a, Peer: -1,
					Dst:   Loc{Buf: BufStage, Off: OffSeg, V: seg},
					Src:   Loc{Buf: BufScratch, Off: OffSeg, V: seg},
					Count: CountSeg, CV: seg, DstStrided: true, SrcStrided: true,
				})
		}
		p.Rounds = append(p.Rounds, r)
	}
	p.Rounds = append(p.Rounds, Round{Idx: -1, Steps: []Step{{
		Kind: StepCopy, Actor: 0, Peer: -1,
		Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufStage},
		Count: CountAll, DstStrided: true, SrcStrided: true,
	}, barrierStep()}})
	return p
}

// log2 returns log₂ n for power-of-two n.
func log2(n int) int {
	r := 0
	for (1 << r) < n {
		r++
	}
	return r
}

// appendHalvingRS emits the recursive-halving reduce-scatter rounds:
// in round k each PE exchanges with the partner across its group's
// halving distance, pulling the half of the group's chunks that
// contains its own and folding it in. After log₂ n rounds chunk v is
// fully reduced at PE v. Regions are contiguous runs of chunks in
// virtual-rank order, so OffAdj/CountSubtree express them exactly.
func appendHalvingRS(p *Plan, n int, span string, idx int) int {
	for k := 0; k < log2(n); k++ {
		g := n >> k
		half := g >> 1
		rd := Round{Name: span + ".round", Idx: idx}
		idx++
		for v := 0; v < n; v++ {
			base := v - v%g
			keep := base
			if v%g >= half {
				keep = base + half
			}
			partner := v ^ half
			rd.Steps = append(rd.Steps,
				Step{
					Kind: StepGet, Actor: v, Peer: partner,
					Dst:   Loc{Buf: BufScratch, Off: OffAdj, V: keep},
					Src:   Loc{Buf: BufStage, Off: OffAdj, V: keep},
					Count: CountSubtree, CV: keep, CB: log2(half), SkipIfZero: true,
				},
				Step{
					Kind: StepCombine, Actor: v, Peer: -1,
					Dst:   Loc{Buf: BufStage, Off: OffAdj, V: keep},
					Src:   Loc{Buf: BufScratch, Off: OffAdj, V: keep},
					Count: CountSubtree, CV: keep, CB: log2(half),
				})
		}
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
	}
	return idx
}

// halvingReduceScatterPlan is the recursive-halving reduce-scatter for
// power-of-two counts: log₂ n exchange rounds, each moving half the
// surviving region, for (n−1)/n total payload volume per PE.
func halvingReduceScatterPlan(n int) *Plan {
	span := "reduce_scatter_rhd"
	p := &Plan{
		Collective: CollReduceScatter, Algorithm: AlgoRabenseifner, Span: span, NPEs: n,
		Stage: BufTotal, Scratch: BufTotal, Adj: AdjChunks, UsesOp: true,
		Chunked: true, Depth: log2(n),
	}
	pro := Round{Idx: -1}
	for v := 0; v < n; v++ {
		pro.Steps = append(pro.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst: Loc{Buf: BufStage}, Src: Loc{Buf: BufSrc},
			Count: CountAll,
		})
	}
	pro.Steps = append(pro.Steps, barrierStep())
	p.Rounds = append(p.Rounds, pro)
	appendHalvingRS(p, n, span, 0)
	epi := Round{Idx: -1}
	for v := 0; v < n; v++ {
		epi.Steps = append(epi.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst:   Loc{Buf: BufDest},
			Src:   Loc{Buf: BufStage, Off: OffAdj, V: v},
			Count: CountBlock, CV: v,
		})
	}
	p.Rounds = append(p.Rounds, epi)
	return p
}

// doublingAllGatherPlan is the recursive-doubling allgather for
// power-of-two counts: each PE stages its block at its adjusted offset
// and log₂ n exchange rounds double the owned region by pulling the
// partner's, like the binomial gather but with both directions busy
// every round.
func doublingAllGatherPlan(n int) *Plan {
	span := "allgather_rhd"
	p := &Plan{
		Collective: CollAllGather, Algorithm: AlgoRabenseifner, Span: span, NPEs: n,
		Stage: BufTotal, Adj: AdjVector, Chunked: true, Depth: log2(n),
	}
	pro := Round{Idx: -1}
	for v := 0; v < n; v++ {
		pro.Steps = append(pro.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst:   Loc{Buf: BufStage, Off: OffAdj, V: v},
			Src:   Loc{Buf: BufSrc},
			Count: CountBlock, CV: v,
		})
	}
	pro.Steps = append(pro.Steps, barrierStep())
	p.Rounds = append(p.Rounds, pro)
	appendDoublingAG(p, n, span, 0)
	epi := Round{Idx: -1}
	for v := 0; v < n; v++ {
		epi.Steps = append(epi.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst:   Loc{Buf: BufDest, Off: OffDisp, V: 0},
			Src:   Loc{Buf: BufStage, Off: OffAdj, V: 0},
			Count: CountBlock, CV: 0, Blocks: n, BStride: 1,
		})
	}
	p.Rounds = append(p.Rounds, epi)
	return p
}

// appendDoublingAG emits the recursive-doubling allgather rounds onto
// p: in round j PE v pulls the 2^j-chunk region its partner v^2^j
// currently owns, doubling its own region.
func appendDoublingAG(p *Plan, n int, span string, idx int) int {
	for j := 0; j < log2(n); j++ {
		rd := Round{Name: span + ".round", Idx: idx}
		idx++
		for v := 0; v < n; v++ {
			partner := v ^ (1 << j)
			pbase := partner &^ ((1 << j) - 1)
			rd.Steps = append(rd.Steps, Step{
				Kind: StepGet, Actor: v, Peer: partner,
				Dst:   Loc{Buf: BufStage, Off: OffAdj, V: pbase},
				Src:   Loc{Buf: BufStage, Off: OffAdj, V: pbase},
				Count: CountSubtree, CV: pbase, CB: j, SkipIfZero: true,
			})
		}
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
	}
	return idx
}

// rabenseifnerAllReducePlan is Rabenseifner's allreduce for
// power-of-two counts: recursive-halving reduce-scatter followed by
// recursive-doubling allgather over one staging buffer — 2·(n−1)/n
// payload volume per PE in 2·log₂ n rounds, against the binomial
// composition's 2·log₂ n whole-payload rounds.
func rabenseifnerAllReducePlan(n int) *Plan {
	span := "allreduce_rab"
	p := &Plan{
		Collective: CollAllReduce, Algorithm: AlgoRabenseifner, Span: span, NPEs: n,
		Stage: BufTotal, Scratch: BufTotal, Adj: AdjChunks, UsesOp: true,
		Chunked: true, Depth: 2 * log2(n),
	}
	pro := Round{Idx: -1}
	for v := 0; v < n; v++ {
		pro.Steps = append(pro.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst: Loc{Buf: BufStage}, Src: Loc{Buf: BufSrc},
			Count: CountAll, SrcStrided: true,
		})
	}
	pro.Steps = append(pro.Steps, barrierStep())
	p.Rounds = append(p.Rounds, pro)
	idx := appendHalvingRS(p, n, span, 0)
	appendDoublingAG(p, n, span, idx)
	epi := Round{Idx: -1}
	for v := 0; v < n; v++ {
		epi.Steps = append(epi.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufStage},
			Count: CountAll, DstStrided: true,
		})
	}
	p.Rounds = append(p.Rounds, epi)
	return p
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
