package core

// The plan-construction layer. A planner (planners*.go) is a schedule —
// which virtual rank moves which piece of the payload to or from whom,
// round by round — composed with the parts in this file: a prologue
// that stages the call's data, fold / pull / push rounds that apply the
// schedule's moves, and an epilogue that delivers the result. The
// builder numbers the named rounds and owns every barrier; the step
// constructor owns every stride and skip flag. Schedules are plain
// functions (tree levels, ring rounds, their time reversals) with no
// knowledge of buffers, so one schedule serves every plan shaped like
// it: reduce-scatter is allgather run backwards with a fold per
// landing, a rail is a ring with a rank stride.
//
// The contract is plan identity. TestPlanGridDigest hashes every field
// of every plan the registry compiles over a grid of PE counts, segment
// factors and node shapes against testdata/plan_grid.sha256, so
// restructuring this layer or a planner cannot move a step, a flag or a
// round index without a named failure — every virtual-cycle figure,
// auto decision and trace follows from the plans. Regenerate the grid
// with
//
//	UPDATE_PLAN_DIGEST=1 go test ./internal/core -run TestPlanGridDigest
//
// only in a change whose stated goal is to alter a plan.

// piece is what a step moves: a symbolic element count together with
// the symbolic offset it lives at — the same offset in every buffer it
// crosses, which is what lets one value describe both ends of a
// transfer and both sides of a combine.
type piece struct {
	off            OffRef
	count          CountRef
	v, cb          int // v: block or segment id (Loc.V and Step.CV); cb: Step.CB
	blocks, stride int // Step.Blocks and Step.BStride
}

// whole is the call's full payload at the buffer base.
func whole() piece { return piece{off: OffZero, count: CountAll} }

// block is virtual rank c's own block at its adjusted offset.
func block(c int) piece { return piece{off: OffAdj, count: CountBlock, v: c} }

// run is the k consecutive blocks starting at block c (clipped to the
// PE count: a run does not wrap).
func run(c, k int) piece { return piece{off: OffAdj, count: CountRun, v: c, cb: k} }

// subtree is the aggregate block of the binomial subtree rooted at
// virtual rank c with height bit.
func subtree(c, bit int) piece { return piece{off: OffAdj, count: CountSubtree, v: c, cb: bit} }

// segment is segment k of the plan's segmentation of the payload.
func segment(k int) piece { return piece{off: OffSeg, count: CountSeg, v: k} }

// at places the piece at another kind of offset with the same operand:
// the caller's displacement (OffDisp) rather than the adjusted one.
func (w piece) at(off OffRef) piece { w.off = off; return w }

// every repeats the piece for k block ids stride apart in one step.
func (w piece) every(k, stride int) piece { w.blocks, w.stride = k, stride; return w }

// in is the piece's address in buf.
func (w piece) in(buf BufRef) Loc { return Loc{Buf: buf, Off: w.off, V: w.v} }

// move is one edge of a schedule: actor issues the transfer of what
// with peer. Whether the actor pulls or pushes is the round's choice.
type move struct {
	actor, peer int
	what        piece
}

// flip reverses every edge, in place: the passive side becomes the
// actor. A pull schedule flipped is the same data flow issued as puts.
func flip(moves []move) []move {
	for i := range moves {
		moves[i].actor, moves[i].peer = moves[i].peer, moves[i].actor
	}
	return moves
}

// timeReversed runs a schedule backwards: rounds in reverse order with
// every edge flipped (in place). Reversing every delivery of an
// allgather turns "block b reaches every PE" into "every contribution
// to block b reaches PE b", so folding along the result is the
// reduce-scatter.
func timeReversed(rounds [][]move) [][]move {
	out := make([][]move, 0, len(rounds))
	for i := len(rounds) - 1; i >= 0; i-- {
		out = append(out, flip(rounds[i]))
	}
	return out
}

// treeMoves turns tree levels into moves: from acts on to, carrying
// what(edge).
func treeMoves(what func(treeEdge) piece, levels ...[]treeEdge) []move {
	var moves []move
	for _, level := range levels {
		for _, e := range level {
			moves = append(moves, move{actor: e.from, peer: e.to, what: what(e)})
		}
	}
	return moves
}

// always carries the same piece along every edge.
func always(w piece) func(treeEdge) piece { return func(treeEdge) piece { return w } }

// subtreeOf carries the block of the subtree hanging off the edge
// (Algorithms 3/4: one contiguous transfer per edge).
func subtreeOf(e treeEdge) piece { return subtree(e.to, e.bit) }

// groupTrees builds one tree per node of P consecutive virtual ranks
// (the last node may be partial) and aligns them level by level, so a
// single barrier closes each level on every node at once. Edges stay in
// global virtual ranks and never leave their node.
func groupTrees(n, P int, gen func(int) [][]treeEdge) [][]treeEdge {
	var levels [][]treeEdge
	for base := 0; base < n; base += P {
		for j, level := range gen(min(P, n-base)) {
			if j == len(levels) {
				levels = append(levels, nil)
			}
			for _, e := range level {
				levels[j] = append(levels[j], treeEdge{from: base + e.from, to: base + e.to, bit: e.bit})
			}
		}
	}
	return levels
}

// leaderTrees is the tree over the g node leaders (virtual ranks i·P).
func leaderTrees(g, P int, gen func(int) [][]treeEdge) [][]treeEdge {
	levels := gen(g)
	for _, level := range levels {
		for i := range level {
			level[i].from *= P
			level[i].to *= P
		}
	}
	return levels
}

// ring is k positions in a cycle: position pos is virtual rank
// base+pos·step, and chunk c of whatever circulates is piece(c). The
// flat ring has step 1; the rings inside each node, the rails across
// nodes and the leader ring differ only in base and step.
type ring struct {
	k, base, step int
	piece         func(chunk int) piece
}

func (g ring) rank(pos int) int { return g.base + pos*g.step }

// ringChunk is the chunk position v pulls from its left neighbour in
// reduce-scatter round r: the partial the neighbour finished
// accumulating in round r−1, so after k−1 rounds chunk v is fully
// reduced at position v.
func ringChunk(v, r, k int) int { return ((v-r-2)%k + k) % k }

// ringOwned is the chunk position v pulls in allgather round r: the one
// its left neighbour finished owning exactly r rounds ago.
func ringOwned(v, r, k int) int { return ((v-1-r)%k + k) % k }

// ringRounds emits the k−1 rounds of equally long rings running side by
// side: in round r every position pulls chunk(pos, r, k) from its left
// neighbour. This is the one O(k²) schedule, so rounds are streamed to
// emit through a single buffer: emit must not keep moves.
func ringRounds(rings []ring, chunk func(pos, r, k int) int, emit func([]move)) {
	k := rings[0].k
	moves := make([]move, 0, k*len(rings))
	for r := 0; r < k-1; r++ {
		moves = moves[:0]
		for _, g := range rings {
			for pos := 0; pos < k; pos++ {
				moves = append(moves, move{
					actor: g.rank(pos), peer: g.rank((pos + k - 1) % k),
					what: g.piece(chunk(pos, r, k)),
				})
			}
		}
		emit(moves)
	}
}

func barrierStep() Step {
	return Step{Kind: StepBarrier, Actor: ActorAll, Peer: -1}
}

// builder assembles a plan round by round. The Plan header the planner
// hands it decides everything the parts need to know: the span names
// the rounds, FlagWords says whether rounds close with barriers or are
// ordered by flags, and Collective and Stage decide which buffers
// follow the call's stride.
type builder struct {
	p    *Plan
	name string // the named rounds' obs span
	idx  int    // index of the next named round
}

func newBuilder(p *Plan) *builder { return &builder{p: p, name: p.Span + ".round"} }

// round appends a named, numbered round. In a barrier-closed plan it
// ends with the world barrier; a flag-pipelined plan (FlagWords > 0)
// orders its hops point to point and carries one barrier, at the end.
func (b *builder) round(steps []Step, nb bool) {
	if b.p.FlagWords == 0 {
		steps = append(steps, barrierStep())
	}
	b.p.Rounds = append(b.p.Rounds, Round{Name: b.name, Idx: b.idx, NB: nb, Steps: steps})
	b.idx++
}

// local appends an unnamed round of local copies. publish marks copies
// other PEs will read next — a staging prologue — so a barrier-closed
// plan closes them with a barrier; epilogues and the root's seed copy
// are read only by their own PE.
func (b *builder) local(steps []Step, publish bool) {
	if publish && b.p.FlagWords == 0 {
		steps = append(steps, barrierStep())
	}
	b.p.Rounds = append(b.p.Rounds, Round{Idx: -1, Steps: steps})
}

// done returns the plan. A flag-pipelined plan gets its one trailing
// barrier here — in the epilogue round when there is one — which keeps
// the collective synchronising and guarantees every flag post is
// consumed before the plan's flag block is freed.
func (b *builder) done() *Plan {
	if b.p.FlagWords > 0 {
		if b.p.Rounds[len(b.p.Rounds)-1].Name != "" {
			b.local(nil, false)
		}
		last := &b.p.Rounds[len(b.p.Rounds)-1]
		last.Steps = append(last.Steps, barrierStep())
	}
	return b.p
}

// strided reports whether piece w follows the call's element stride in
// buf. Only a whole payload or a segment of it can: the caller's
// buffers do whenever the collective takes a stride argument, and the
// plan's own buffers exactly when they are sized for it (BufSpan — the
// paper's element-path plans; the bandwidth plans pack their staging
// buffer contiguously).
func (b *builder) strided(buf BufRef, w piece) bool {
	if w.count != CountAll && w.count != CountSeg {
		return false
	}
	if buf == BufStage || buf == BufScratch {
		return b.p.Stage == BufSpan
	}
	switch b.p.Collective {
	case CollBroadcast, CollReduce, CollAllReduce:
		return true
	}
	return false
}

// step appends a data-moving step; it is their one constructor.
// Planners call it directly only where the two sides of a step sit at
// different offsets (linear scatter/gather, alltoall, the reorder
// copies); everything else goes through the parts below. A transfer of
// anything but the whole payload is skipped when it resolves to zero
// elements. The step is filled in place: plans run to thousands of
// steps and compile time is mostly moving them.
func (b *builder) step(steps []Step, kind StepKind, actor, peer int, dst, src Loc, w piece) []Step {
	steps = append(steps, Step{})
	s := &steps[len(steps)-1]
	s.Kind, s.Actor, s.Peer, s.Dst, s.Src = kind, actor, peer, dst, src
	s.Count, s.CV, s.CB, s.Blocks, s.BStride = w.count, w.v, w.cb, w.blocks, w.stride
	if kind == StepPut || kind == StepGet {
		s.Strided = b.strided(dst.Buf, w)
		s.SkipIfZero = w.count != CountAll
	} else {
		s.DstStrided, s.SrcStrided = b.strided(dst.Buf, w), b.strided(src.Buf, w)
	}
	return steps
}

// copy appends actor's local copy of w from one buffer to the same
// place in another.
func (b *builder) copy(steps []Step, actor int, w piece, dst, src BufRef) []Step {
	return b.step(steps, StepCopy, actor, -1, w.in(dst), w.in(src), w)
}

// perPE builds a step list by calling f once per virtual rank.
func (b *builder) perPE(f func(steps []Step, v int) []Step) []Step {
	steps := make([]Step, 0, b.p.NPEs+1)
	for v := 0; v < b.p.NPEs; v++ {
		steps = f(steps, v)
	}
	return steps
}

// transfers appends one in-place put or get per move: the piece sits at
// the same place in buf on both PEs.
func (b *builder) transfers(steps []Step, kind StepKind, moves []move, buf BufRef) []Step {
	for _, m := range moves {
		steps = b.step(steps, kind, m.actor, m.peer, m.what.in(buf), m.what.in(buf), m.what)
	}
	return steps
}

// folds appends, per move, the get of the peer's staged piece into the
// actor's scratch and its combine into acc. Consecutive moves between
// the same two PEs are parts of one transfer (a run split where it
// wraps): all of them land before the first is combined.
func (b *builder) folds(steps []Step, moves []move, acc BufRef) []Step {
	for i := 0; i < len(moves); {
		j := i + 1
		for j < len(moves) && moves[j].actor == moves[i].actor && moves[j].peer == moves[i].peer {
			j++
		}
		for _, m := range moves[i:j] {
			steps = b.step(steps, StepGet, m.actor, m.peer, m.what.in(BufScratch), m.what.in(BufStage), m.what)
		}
		for _, m := range moves[i:j] {
			steps = b.step(steps, StepCombine, m.actor, -1, m.what.in(acc), m.what.in(BufScratch), m.what)
		}
		i = j
	}
	return steps
}

// fold is a round in which every actor gets its piece of the peer's
// staged partial and combines it into its own: the private scratch
// landing buffer keeps a partial from being overwritten while a third
// PE still reads it.
func (b *builder) fold(moves []move) {
	b.round(b.folds(make([]Step, 0, 2*len(moves)+1), moves, BufStage), false)
}

// pull is a round of gets in place in the staging buffer.
func (b *builder) pull(moves []move) {
	b.round(b.transfers(make([]Step, 0, len(moves)+1), StepGet, moves, BufStage), false)
}

// push is a round of puts in place in buf.
func (b *builder) push(moves []move, buf BufRef) {
	b.round(b.transfers(make([]Step, 0, len(moves)+1), StepPut, moves, buf), false)
}

// forward is the flag-pipelined push: one non-blocking round in which
// each receiver waits on flag word flag and each sender puts, then
// signals (ordered after the put on the same channel). Moves must come
// in schedule order — a PE receives before it forwards — so actor
// order keeps every wait ahead of the forwards that depend on it.
func (b *builder) forward(moves []move, buf BufRef, flag int) {
	steps := make([]Step, 0, 3*len(moves))
	for _, m := range moves {
		steps = append(steps, Step{Kind: StepWaitFlag, Actor: m.peer, Peer: -1, Flag: flag})
		steps = b.step(steps, StepPut, m.actor, m.peer, m.what.in(buf), m.what.in(buf), m.what)
		steps = append(steps, Step{Kind: StepSignal, Actor: m.actor, Peer: m.peer, Flag: flag})
	}
	b.round(steps, true)
}

// harvest is the flag-pipelined fold of one segment w: every PE stages
// its slice, then along each edge the owner signals "my partial for
// this segment is folded" and the puller waits, gets and combines.
// Flags are per {level, segment} (flag(level)) because a PE's partial
// becomes ready once per level. The owner's signal is emitted at its
// level, after its own pulls of earlier levels, so actor order encodes
// the dependency. Unlike every other partial transfer these gets carry
// no skip-if-zero — SelectSegments never makes more segments than
// elements, and the pinned plans spell them so.
func (b *builder) harvest(w piece, levels [][]treeEdge, flag func(level int) int) {
	steps := b.perPE(func(steps []Step, v int) []Step { return b.copy(steps, v, w, BufStage, BufSrc) })
	for t, level := range levels {
		for _, e := range level {
			steps = append(steps,
				Step{Kind: StepSignal, Actor: e.to, Peer: e.from, Flag: flag(t)},
				Step{Kind: StepWaitFlag, Actor: e.from, Peer: -1, Flag: flag(t)})
			steps = b.step(steps, StepGet, e.from, e.to, w.in(BufScratch), w.in(BufStage), w)
			steps[len(steps)-1].SkipIfZero = false
			steps = b.step(steps, StepCombine, e.from, -1, w.in(BufStage), w.in(BufScratch), w)
		}
	}
	b.round(steps, false)
}

// seed appends the root's copy of src to its own dest, so the
// postcondition holds on the root and every sender forwards from the
// same symmetric address; skipped when the caller passes dest == src.
func (b *builder) seed(steps []Step) []Step {
	steps = b.copy(steps, 0, whole(), BufDest, BufSrc)
	steps[len(steps)-1].SkipIfAlias = true
	return steps
}

// seedRoot is the broadcast prologue: the seed copy alone.
func (b *builder) seedRoot() { b.local(b.seed(nil), false) }

// stageVector loads every PE's whole contribution into its symmetric
// staging buffer.
func (b *builder) stageVector() {
	b.local(b.perPE(func(steps []Step, v int) []Step { return b.copy(steps, v, whole(), BufStage, BufSrc) }), true)
}

// stageBlocks plants every PE's own block at its adjusted offset of the
// virtual-rank-ordered staging buffer.
func (b *builder) stageBlocks() {
	b.local(b.perPE(func(steps []Step, v int) []Step {
		return b.step(steps, StepCopy, v, -1, block(v).in(BufStage), Loc{Buf: BufSrc}, block(v))
	}), true)
}

// stageRoot has the root reorder src — blocks found at offsets of kind
// from — into the staging buffer in virtual-rank order, which makes the
// data of each tree node and its children contiguous so a single put
// per edge suffices.
func (b *builder) stageRoot(from OffRef) {
	b.local(b.perPE(func(steps []Step, v int) []Step {
		return b.step(steps, StepCopy, 0, -1, block(v).in(BufStage), block(v).at(from).in(BufSrc), block(v))
	}), true)
}

// deliverRoot migrates the root's staged result to dest.
func (b *builder) deliverRoot() {
	b.local(b.copy(nil, 0, whole(), BufDest, BufStage), false)
}

// deliverVector copies every PE's staged result vector to dest.
func (b *builder) deliverVector() {
	b.local(b.perPE(func(steps []Step, v int) []Step { return b.copy(steps, v, whole(), BufDest, BufStage) }), false)
}

// deliverBlock relocates every PE's own staged block to dest.
func (b *builder) deliverBlock() {
	b.local(b.perPE(func(steps []Step, v int) []Step {
		return b.step(steps, StepCopy, v, -1, Loc{Buf: BufDest}, block(v).in(BufStage), block(v))
	}), false)
}

// unpackVector has every PE unpack the virtual-rank-ordered staging
// buffer to dest at the caller's displacements: one n-block step.
func (b *builder) unpackVector() {
	w := block(0).every(b.p.NPEs, 1)
	b.local(b.perPE(func(steps []Step, v int) []Step {
		return b.step(steps, StepCopy, v, -1, w.at(OffDisp).in(BufDest), w.in(BufStage), w)
	}), false)
}
