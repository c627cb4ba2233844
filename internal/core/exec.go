package core

import (
	"fmt"

	"xbgas/internal/obs"
	"xbgas/internal/xbrtime"
)

// The executor: one engine runs every compiled plan. It maps virtual
// ranks to logical (or team-member) ranks, resolves symbolic buffers,
// offsets and counts against the call's arguments, allocates and frees
// the staging buffers the plan declares, issues blocking or
// non-blocking transfers, and emits the obs round spans uniformly —
// the per-collective entry points reduce to dispatch (select.go), which
// validates, resolves, compiles and calls Execute.

// ExecArgs carries one call's runtime arguments into a plan execution.
type ExecArgs struct {
	DT xbrtime.DType
	// Op is the reduction operator for plans with combine steps.
	Op ReduceOp

	Dest, Src      uint64
	Nelems, Stride int
	// Root is the logical (or team) rank acting as virtual rank 0.
	Root int

	// PeMsgs/PeDisp are the vector-collective count and displacement
	// arrays, indexed by logical rank (AdjVector plans only).
	PeMsgs, PeDisp []int

	// Stage overrides the plan-managed staging buffer with a
	// caller-provided symmetric workspace (the pWrk convention of
	// TeamReduce); the executor then neither allocates nor frees it.
	Stage uint64

	// Team restricts the collective to a PE subset: ranks become team
	// ranks, targets map through Team.Member, and the team barrier
	// replaces the world barrier. Nil means the world.
	Team *xbrtime.Team

	// OnTransfer, when set, observes every put/get the executor issues.
	// A step dropped by SkipIfZero is not reported, matching the wire.
	// Test instrumentation for the differential schedule-vs-execution
	// check.
	OnTransfer func(round int, s Step, count int)
}

// execEnv is the per-call execution state; it lives on the stack so
// cached-plan executions allocate nothing.
type execEnv struct {
	pe *xbrtime.PE
	p  *Plan
	a  ExecArgs

	n, me, v int
	w        uint64

	stage, scratch uint64
	ownStage       bool

	// flags is the plan's symmetric flag block (FlagWords 8-byte words)
	// backing StepSignal/StepWaitFlag dependencies.
	flags    uint64
	ownFlags bool

	adj      []int // AdjVector displacements (borrowed)
	per, rem int   // AdjChunks chunk geometry

	segPer, segRem int // segment geometry: nelems over Plan.Segments

	// lastNB is the actor's most recent non-blocking transfer of the
	// current round; StepSignal orders its flag store after it.
	lastNB xbrtime.Handle

	cost uint64 // per-element combine cost

	// bulk is Plan.Chunked, the one bulk-vs-element predicate: when set,
	// every stride-1 put, get, copy and combine takes the line-granular
	// chunk accessors. Strided steps always take the element stream.
	bulk bool

	// slog, when non-nil, receives the category and releaser of every
	// executed step's virtual-clock interval — the raw material of the
	// critical-path extractor. Nil whenever tracing is off.
	slog *obs.StepLog
}

// Execute runs a compiled plan with the given arguments. Every PE of
// the plan's world (or team) must call it collectively, like any other
// collective entry point.
func Execute(pe *xbrtime.PE, p *Plan, a ExecArgs) error {
	e := execEnv{pe: pe, p: p, a: a, w: uint64(a.DT.Width), slog: pe.StepLog(), bulk: p.Chunked}
	if a.Team != nil {
		r, ok := a.Team.Rank(pe)
		if !ok {
			return fmt.Errorf("core: PE %d is not a member of the team", pe.MyPE())
		}
		e.n, e.me = a.Team.Size(), r
	} else {
		e.n, e.me = pe.NumPEs(), pe.MyPE()
	}
	if e.n != p.NPEs {
		return fmt.Errorf("core: plan compiled for %d PEs executed over %d", p.NPEs, e.n)
	}
	if p.FlagWords > 0 && a.Team != nil {
		return fmt.Errorf("core: segmented plans cannot run on teams: the flag block needs a symmetric world allocation")
	}
	e.v = VirtualRank(e.me, a.Root, e.n)
	pe.NotePlanner(p.label)
	if p.UsesOp {
		e.cost = combineCost(a.DT, a.Op)
	}
	if p.Segments > 1 {
		e.segPer, e.segRem = a.Nelems/p.Segments, a.Nelems%p.Segments
	}
	switch p.Adj {
	case AdjVector:
		e.adj = adjustedDisplacements(pe, a.PeMsgs, a.Root, e.n)
		defer pe.ReturnInts(e.adj)
	case AdjChunks:
		e.per, e.rem = a.Nelems/e.n, a.Nelems%e.n
	}
	if a.Stage != 0 {
		e.stage = a.Stage
	} else if p.Stage != BufNone {
		var err error
		if e.stage, err = pe.Malloc(e.bufBytes(p.Stage)); err != nil {
			return err
		}
		e.ownStage = true
	}
	if p.FlagWords > 0 {
		// The flag block is a plan-scoped symmetric allocation: every
		// PE mallocs it at the same point of the same call sequence, so
		// the block lands at the same address on every rank and word
		// addresses are meaningful across PEs.
		var err error
		if e.flags, err = pe.Malloc(uint64(p.FlagWords) * 8); err != nil {
			return e.fail(err)
		}
		e.ownFlags = true
	}
	if p.Scratch != BufNone {
		var err error
		if e.scratch, err = pe.Scratch(e.bufBytes(p.Scratch)); err != nil {
			return e.fail(err)
		}
	}
	for ri := range p.Rounds {
		if err := e.round(&p.Rounds[ri]); err != nil {
			return e.fail(err)
		}
	}
	if e.ownFlags {
		if err := pe.Free(e.flags); err != nil {
			e.ownFlags = false
			return e.fail(err)
		}
	}
	if e.ownStage {
		return pe.Free(e.stage)
	}
	return nil
}

// fail unwinds a mid-plan error: the plan-managed staging buffer and
// flag block are freed best-effort so error paths do not leak
// symmetric heap.
func (e *execEnv) fail(err error) error {
	if e.ownFlags {
		e.pe.Free(e.flags) //nolint:errcheck // best-effort unwind
	}
	if e.ownStage {
		e.pe.Free(e.stage) //nolint:errcheck // best-effort unwind
	}
	return err
}

// bufBytes sizes a plan-managed buffer from the call's arguments.
func (e *execEnv) bufBytes(spec BufSpec) uint64 {
	a := &e.a
	switch spec {
	case BufSpan:
		return spanBytes(a.DT, a.Nelems, a.Stride)
	case BufMaxBlock:
		most := 0
		for _, m := range a.PeMsgs {
			if m > most {
				most = m
			}
		}
		if most == 0 {
			return e.w
		}
		return uint64(most) * e.w
	default: // BufTotal
		if a.Nelems == 0 {
			return e.w
		}
		return uint64(a.Nelems) * e.w
	}
}

// round runs one synchronisation epoch: this PE's own steps (sliced in
// O(1) from the actor index), then the trailing all-actor barriers,
// under the round's obs span. Non-blocking rounds batch their puts and
// wait on every issued handle — success or error — before returning
// the pooled handle slice, so handles can never leak.
func (e *execEnv) round(r *Round) error {
	pe := e.pe
	mine := r.Steps[r.actorStart[e.v]:r.actorStart[e.v+1]]

	var span obs.Span
	if r.Name != "" && pe.ObsEnabled() {
		// Annotate the span with the round's partner and traffic: a
		// single transfer carries its peer, multiple transfers (linear
		// roots, alltoall) aggregate under peer -1. Counts include
		// skip-if-zero steps, mirroring the historical spans.
		peer, moved, transfers := -1, 0, 0
		for i := range mine {
			s := &mine[i]
			if s.Kind == StepPut || s.Kind == StepGet {
				transfers++
				peer = e.rankOf(s.Peer)
				moved += e.stepCount(s)
			}
		}
		if transfers > 1 {
			peer = -1
		}
		span = pe.StartRound(r.Name, r.Idx, peer, moved)
	}

	var handles []xbrtime.Handle
	if r.NB {
		handles = pe.BorrowHandles(len(mine))
	}
	e.lastNB = xbrtime.Handle{}
	var err error
	for i := range mine {
		if e.slog == nil {
			if err = e.step(&mine[i], r, &handles); err != nil {
				break
			}
			continue
		}
		t0 := pe.Now()
		err = e.step(&mine[i], r, &handles)
		noteStep(e.slog, mine[i].Kind, t0, pe.Now(), pe.LastWaitBy())
		if err != nil {
			break
		}
	}
	if r.NB {
		t0 := pe.Now()
		for _, h := range handles {
			pe.Wait(h)
		}
		// The handle drain is where a non-blocking round pays for its
		// own in-flight transfers.
		e.slog.Note(obs.CatDataWait, t0, pe.Now())
		pe.ReturnHandles(handles)
	}
	if err != nil {
		return err
	}
	for i := r.tail; i < len(r.Steps); i++ {
		if r.Steps[i].Kind == StepBarrier {
			t0 := pe.Now()
			if err := e.barrier(); err != nil {
				return err
			}
			e.slog.NoteWait(obs.CatBarrierWait, t0, pe.Now(), pe.LastWaitBy())
		}
	}
	pe.FinishRound(span)
	return nil
}

// noteStep files a completed step's interval under its attribution
// category; wait steps carry the releasing rank so the critical-path
// extractor can follow the dependency to another PE.
func noteStep(l *obs.StepLog, k StepKind, start, end uint64, by int) {
	switch k {
	case StepPut, StepGet:
		l.Note(obs.CatTransfer, start, end)
	case StepCopy:
		l.Note(obs.CatCopy, start, end)
	case StepCombine:
		l.Note(obs.CatCombine, start, end)
	case StepSignal:
		l.Note(obs.CatSignal, start, end)
	case StepWaitFlag:
		l.NoteWait(obs.CatFlagWait, start, end, by)
	case StepBarrier:
		l.NoteWait(obs.CatBarrierWait, start, end, by)
	}
}

// step executes one plan step for this PE.
func (e *execEnv) step(s *Step, r *Round, handles *[]xbrtime.Handle) error {
	if s.Blocks > 1 {
		return e.stepBlocks(s, r, handles)
	}
	pe, a := e.pe, &e.a
	switch s.Kind {
	case StepPut, StepGet:
		cnt := e.count(s)
		if s.SkipIfZero && cnt == 0 {
			// The paired signal (if any) must not trail a stale handle.
			e.lastNB = xbrtime.Handle{}
			return nil
		}
		stride := 1
		if s.Strided {
			stride = a.Stride
		}
		dst, src := e.addr(s.Dst, s.Strided), e.addr(s.Src, s.Strided)
		tgt := e.rankOf(s.Peer)
		if a.OnTransfer != nil {
			a.OnTransfer(r.Idx, *s, cnt)
		}
		// One predicate picks the data path: a Chunked plan moves every
		// stride-1 range as line-granular bulk traffic; strided ranges
		// and the paper's element-at-a-time plans keep element streams.
		put, bulk := s.Kind == StepPut, e.bulk && stride == 1
		if !r.NB {
			switch {
			case put && bulk:
				return pe.PutChunk(a.DT, dst, src, cnt, tgt)
			case put:
				return pe.Put(a.DT, dst, src, cnt, stride, tgt)
			case bulk:
				return pe.GetChunk(a.DT, dst, src, cnt, tgt)
			}
			return pe.Get(a.DT, dst, src, cnt, stride, tgt)
		}
		var h xbrtime.Handle
		var err error
		switch {
		case put && bulk:
			h, err = pe.PutChunkNB(a.DT, dst, src, cnt, tgt)
		case put:
			h, err = pe.PutNB(a.DT, dst, src, cnt, stride, tgt)
		case bulk:
			h, err = pe.GetChunkNB(a.DT, dst, src, cnt, tgt)
		default:
			h, err = pe.GetNB(a.DT, dst, src, cnt, stride, tgt)
		}
		if err != nil {
			return err
		}
		*handles = append(*handles, h)
		e.lastNB = h
		return nil

	case StepCopy:
		cnt := e.count(s)
		if s.SkipIfZero && cnt == 0 {
			return nil
		}
		dst, src := e.addr(s.Dst, s.DstStrided), e.addr(s.Src, s.SrcStrided)
		if s.SkipIfAlias && dst == src {
			return nil
		}
		ds, ss := e.strideOf(s.DstStrided), e.strideOf(s.SrcStrided)
		if e.bulk && ds == 1 && ss == 1 {
			pe.CopyChunk(a.DT, dst, src, cnt)
			return nil
		}
		pe.CopyElems(a.DT, dst, src, cnt, ds, ss)

	case StepCombine:
		cnt := e.count(s)
		dst, src := e.addr(s.Dst, s.DstStrided), e.addr(s.Src, s.SrcStrided)
		ds, ss := e.strideOf(s.DstStrided), e.strideOf(s.SrcStrided)
		if e.bulk && ds == 1 && ss == 1 {
			return e.combineChunk(dst, src, cnt)
		}
		for j := 0; j < cnt; j++ {
			x := pe.ReadElem(a.DT, dst+uint64(j*ds)*e.w)
			y := pe.ReadElem(a.DT, src+uint64(j*ss)*e.w)
			v, err := Combine(a.DT, a.Op, x, y)
			if err != nil {
				return err
			}
			pe.Advance(e.cost)
			pe.WriteElem(a.DT, dst+uint64(j*ds)*e.w, v)
		}

	case StepBarrier:
		return e.barrier()

	case StepSignal:
		// The flag store trails the actor's latest non-blocking
		// transfer of the round (the segment just forwarded); in
		// blocking rounds the clock already covers completion and the
		// zero handle makes "now" the only floor.
		h := e.lastNB
		e.lastNB = xbrtime.Handle{}
		return pe.SignalAfter(h, e.flags+uint64(s.Flag)*8, e.rankOf(s.Peer))

	case StepWaitFlag:
		return pe.WaitFlag(e.flags + uint64(s.Flag)*8)
	}
	return nil
}

// stepBlocks expands a multi-block step (Step.Blocks): the body runs
// Blocks times, each repetition advancing the block-indexed operands by
// BStride. The expansion happens here rather than at compile time so a
// plan stays O(rounds·actors) in memory even when every actor
// redistributes n blocks. One copy is advanced in place: it escapes
// through e.step, so Step.rep per repetition is a heap allocation each
// (1 500 allocs/op on the 64-PE hierarchical plans).
func (e *execEnv) stepBlocks(s *Step, r *Round, handles *[]xbrtime.Handle) error {
	c := *s
	c.Blocks = 0
	for t := 0; t < s.Blocks; t++ {
		if err := e.step(&c, r, handles); err != nil {
			return err
		}
		c.Dst = shiftLoc(c.Dst, s.BStride)
		c.Src = shiftLoc(c.Src, s.BStride)
		if c.Count == CountBlock || c.Count == CountRun {
			c.CV += s.BStride
		}
	}
	return nil
}

// rep returns repetition t of a multi-block step as a single-block
// step: the block-indexed operands advanced by t·BStride.
func (s *Step) rep(t int) Step {
	c := *s
	c.Blocks = 0
	d := t * s.BStride
	c.Dst, c.Src = shiftLoc(c.Dst, d), shiftLoc(c.Src, d)
	if c.Count == CountBlock || c.Count == CountRun {
		c.CV += d
	}
	return c
}

// shiftLoc advances a location's block operand by d when the offset is
// block-indexed.
func shiftLoc(l Loc, d int) Loc {
	switch l.Off {
	case OffAdj, OffDisp, OffBlock:
		l.V += d
	}
	return l
}

// combineChunk folds cnt contiguous elements of src into dst through
// the bulk timed accessors: both ranges are read line-granular into
// pooled word buffers, combined in host memory, and written back in one
// bulk store. The per-element combine cost is charged in full — only
// the load/store model changes, exactly as with chunk transfers.
func (e *execEnv) combineChunk(dst, src uint64, cnt int) error {
	if cnt == 0 {
		return nil
	}
	pe, a := e.pe, &e.a
	xs := pe.BorrowWords(cnt)
	ys := pe.BorrowWords(cnt)
	defer pe.ReturnWords(ys)
	defer pe.ReturnWords(xs)
	pe.ReadElemsChunk(a.DT, dst, xs)
	pe.ReadElemsChunk(a.DT, src, ys)
	if err := combineSlice(a.DT, a.Op, xs, ys); err != nil {
		return err
	}
	pe.Advance(e.cost * uint64(cnt))
	pe.WriteElemsChunk(a.DT, dst, xs)
	return nil
}

func (e *execEnv) strideOf(strided bool) int {
	if strided {
		return e.a.Stride
	}
	return 1
}

// addr resolves a symbolic location to an address. strided scales
// element offsets that live in the call's strided layout (OffSeg is
// the only stride-sensitive offset: segment k starts k segments of
// elements — hence k segments of stride-spaced slots — into the span).
func (e *execEnv) addr(l Loc, strided bool) uint64 {
	var base uint64
	switch l.Buf {
	case BufDest:
		base = e.a.Dest
	case BufSrc:
		base = e.a.Src
	case BufStage:
		base = e.stage
	default:
		base = e.scratch
	}
	switch l.Off {
	case OffZero:
		return base
	case OffAdj:
		return base + uint64(e.adjOf(l.V))*e.w
	case OffDisp:
		if e.a.PeDisp == nil {
			// A dry run has no caller vectors: equal blocks in rank order.
			return base + uint64(e.adjOf(l.V))*e.w
		}
		return base + uint64(e.a.PeDisp[LogicalRank(l.V, e.a.Root, e.n)])*e.w
	case OffSeg:
		off := e.segOff(l.V)
		if strided {
			off *= e.a.Stride
		}
		return base + uint64(off)*e.w
	default: // OffBlock
		return base + uint64(l.V*e.a.Nelems)*e.w
	}
}

// segOff is the element offset of segment k: the first nelems mod S
// segments carry one extra element.
func (e *execEnv) segOff(k int) int {
	m := k
	if m > e.segRem {
		m = e.segRem
	}
	return k*e.segPer + m
}

// equalBlocks reports whether blocks follow the closed-form equal
// chunking of nelems over the PEs: AdjChunks plans, and any plan in a
// dry run, which has no pe_msgs and prices equal blocks.
func (e *execEnv) equalBlocks() bool {
	return e.p.Adj == AdjChunks || e.a.PeMsgs == nil
}

// adjOf is the adjusted displacement of virtual rank v — adj_disp in
// AdjVector mode, the closed-form chunk prefix v·per + min(v, rem) for
// equal blocks. v may be NPEs (the total element count).
func (e *execEnv) adjOf(v int) int {
	if e.equalBlocks() {
		m := v
		if m > e.rem {
			m = e.rem
		}
		return v*e.per + m
	}
	return e.adj[v]
}

// blockOf is virtual rank v's own block size.
func (e *execEnv) blockOf(v int) int {
	if e.equalBlocks() {
		if v < e.rem {
			return e.per + 1
		}
		return e.per
	}
	return e.a.PeMsgs[LogicalRank(v, e.a.Root, e.n)]
}

// count resolves a step's element count.
func (e *execEnv) count(s *Step) int {
	switch s.Count {
	case CountAll:
		return e.a.Nelems
	case CountBlock:
		return e.blockOf(s.CV)
	case CountSeg:
		n := e.segPer
		if s.CV < e.segRem {
			n++
		}
		return n
	case CountRun:
		end := s.CV + s.CB
		if end > e.n {
			end = e.n
		}
		if end <= s.CV {
			return 0
		}
		return e.adjOf(end) - e.adjOf(s.CV)
	default: // CountSubtree
		end := s.CV + (1 << s.CB)
		if end > e.n {
			end = e.n
		}
		return e.adjOf(end) - e.adjOf(s.CV)
	}
}

// stepCount is count summed over a multi-block step's expansion, for
// span accounting.
func (e *execEnv) stepCount(s *Step) int {
	if s.Blocks <= 1 {
		return e.count(s)
	}
	total := 0
	for t := 0; t < s.Blocks; t++ {
		c := s.rep(t)
		total += e.count(&c)
	}
	return total
}

// rankOf maps a virtual rank to a transfer target: the logical rank
// for world plans, the member's global rank for team plans.
func (e *execEnv) rankOf(v int) int {
	l := LogicalRank(v, e.a.Root, e.n)
	if e.a.Team != nil {
		return e.a.Team.Member(l)
	}
	return l
}

func (e *execEnv) barrier() error {
	if e.a.Team != nil {
		return e.pe.TeamBarrier(e.a.Team)
	}
	return e.pe.Barrier()
}
