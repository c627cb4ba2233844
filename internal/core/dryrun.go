package core

import (
	"xbgas/internal/fabric"
	"xbgas/internal/mem"
	"xbgas/internal/obs"
	"xbgas/internal/xbrtime"
)

// The dry run: a compiled plan executed on a cost-only machine. n
// virtual clocks walk the plan's real step list on one goroutine, in
// the order the lockstep scheduler would run them — the ready PE with
// the smallest (clock, rank) goes next, a PE re-queues before every
// fabric booking and sleeps in barriers and flag waits — and book a
// real fabric.Fabric through xbrtime.Timing, the same calls
// xbrtime.PE makes. Flags and dissemination signals go through
// xbrtime.Mailbox, the table behind the runtime's own waits, keyed as
// the runtime keys them. Nothing else of the machine exists: no memory (the
// hierarchy is a per-line charge, see touchCost), no bytes, no
// goroutines, no host clock. The makespan it reports is what AlgoAuto
// minimises, what the audit compares with lockstep, and — with step
// logs attached — the critical path -explain prints.
//
// A call is priced as it is met in a program: entered out of a world
// barrier (every plan ends with one, so back-to-back collectives enter
// with exactly its release stagger), on a warm machine (caches hold
// what the previous call of the same shape left, the OLB knows every
// peer), with equal blocks, stride 1, distinct src and dest, root 0
// and an integer sum.

// dryRun is one cost-only machine: n PEs on the fabric of a Tuning and
// a Shape. It is reused from pricing to pricing — each starts at a
// fresh congestion-window boundary past everything booked before, so
// the fabric is never reset — and allocates nothing once its buffers
// have grown to the largest plan it has seen.
type dryRun struct {
	tn    Tuning
	n     int
	tm    *xbrtime.Timing
	world []int // barrier members: every rank, rank 0 coordinating
	base  uint64

	ready  xbrtime.ReadyQueue
	pes    []dryPE
	touch  []uint64                     // per-packet hierarchy costs handed to Timing
	nolog  []*obs.StepLog               // n nil logs: a nil StepLog records nothing
	flags  *xbrtime.Mailbox[int]        // completion flags, keyed rank·FlagWords + word
	slots  *xbrtime.Mailbox[dissemSlot] // the dissemination barrier's signals
	rounds int                          // of a dissemination barrier; 0 under the central one

	// The central barrier's open epoch.
	arrived int
	maxArr  uint64
	maxBy   int

	// Per run.
	p         *Plan
	g         execEnv        // the executor's own resolution of counts and offsets
	hit, miss uint64         // hierarchy charge per touch, and on top per line first touched
	logs      []*obs.StepLog // one per PE; all nil (nolog) unless the caller wants step records
	allocs    uint64         // symmetric allocations the executor makes per call: stage, flag block
	running   int            // PEs that have not finished the plan
	first     uint64         // earliest exit from the entry barrier so far
}

// dryPE is one PE's clock and its position in the plan.
type dryPE struct {
	clock    uint64
	round    int    // -1: in the entry barrier
	idx, rep int    // step within the round (own steps, drain, tail), block repetition
	dround   int    // round within a dissemination barrier
	epoch    uint64 // dissemination barriers the PE has left
	granted  bool   // the scheduler picked the PE for the booking it stands at
	woken    bool   // the wait it slept in has been released
	lastNB   uint64 // completion of the latest non-blocking transfer of the round
	drain    uint64 // latest completion among them
	t0       uint64 // clock at which the current step began
	by       int    // rank that released the PE's last wait
}

// dissemSlot is the signal PE dst takes in one round of one
// dissemination barrier, keyed as the runtime keys it.
type dissemSlot struct {
	epoch uint64
	round int
	dst   int
}

// newDryRun builds the machine: n PEs, per to a node (0 = flat).
func newDryRun(tn Tuning, n, per int) *dryRun {
	var topo fabric.Topology = fabric.FullyConnected{N: n}
	if per > 0 {
		topo = fabric.Grouped{PerNode: per, N: n}
	}
	d := &dryRun{
		tn: tn, n: n,
		tm:    xbrtime.NewTiming(fabric.MustNew(topo, tn.Net), tn.InflightDepth, tn.UnrollThreshold),
		world: make([]int, n),
		pes:   make([]dryPE, n),
		nolog: make([]*obs.StepLog, n),
		ready: make(xbrtime.ReadyQueue, 0, n),
		flags: xbrtime.NewMailbox[int](n),
		slots: xbrtime.NewMailbox[dissemSlot](n),
	}
	for r := range d.world {
		d.world[r] = r
	}
	if tn.Barrier == xbrtime.BarrierDissemination {
		d.rounds = CeilLog2(n)
	}
	return d
}

// price replays p for a call of nelems elements of width bytes and
// returns its completion interval in cycles: first PE in to last PE
// out. It gives up, returning bound, as soon as no PE can finish inside
// bound cycles (0 = no bound). logs, when non-nil, receives one call
// record per PE with every step's interval, category and releaser.
func (d *dryRun) price(p *Plan, nelems, width int, bound uint64, logs []*obs.StepLog) uint64 {
	d.p, d.logs = p, logs
	if logs == nil {
		d.logs = d.nolog
	}
	d.g = execEnv{
		p: p, n: d.n, w: uint64(width),
		a:   ExecArgs{Nelems: nelems, Stride: 1},
		per: nelems / d.n, rem: nelems % d.n,
	}
	if p.Segments > 1 {
		d.g.segPer, d.g.segRem = nelems/p.Segments, nelems%p.Segments
	}
	d.hit, d.miss = touchCost(d.tn.Mem, p, nelems*width)
	d.allocs = 0
	if p.Stage != BufNone {
		d.allocs++
	}
	if p.FlagWords > 0 {
		d.allocs++
	}
	for v := range d.pes {
		d.pes[v] = dryPE{clock: d.base, round: -1, by: -1}
		d.ready.Push(xbrtime.ReadyPE{Clock: d.base, Rank: v})
	}
	d.running, d.first = d.n, 0

	for len(d.ready) > 0 {
		e := d.ready.Pop()
		for {
			// Nobody runs before the earliest ready PE, and a sleeper wakes
			// no earlier than its waker books: no PE finishes before e.Clock.
			if bound > 0 && d.first > 0 && e.Clock > d.first && e.Clock-d.first >= bound {
				d.abandon()
				return bound
			}
			pe := &d.pes[e.Rank]
			if !d.run(e.Rank, pe) {
				break
			}
			// The PE stands at a booking: lockstep's yield. It holds the
			// token when it is picked again.
			pe.granted = true
			e = d.ready.Swap(xbrtime.ReadyPE{Clock: pe.clock, Rank: e.Rank})
		}
	}
	if d.running > 0 {
		// Every unfinished PE sleeps on something nobody will post: the
		// plan deadlocks, and no finite price describes it.
		d.abandon()
		return ^uint64(0)
	}
	var last uint64
	for v := range d.pes {
		last = max(last, d.pes[v].clock)
	}
	d.rebase(last)
	return last - d.first
}

// rebase moves the next run past every booking made so far, to a window
// boundary so that it books exactly as a run from clock 0 would.
func (d *dryRun) rebase(last uint64) {
	w := d.tm.Fabric.Window()
	d.base = (last/w + 2) * w
}

// abandon drops an unfinished run: queued PEs, open barrier epoch,
// posted flags.
func (d *dryRun) abandon() {
	last := d.base
	for v := range d.pes {
		last = max(last, d.pes[v].clock, d.pes[v].drain)
	}
	d.rebase(last)
	d.ready = d.ready[:0]
	d.arrived, d.maxArr = 0, 0
	d.flags.Reset()
	d.slots.Reset()
}

// touchCost derives the hierarchy charge of the run from the memory
// configuration: every access pays the L1 latency, and the first access
// to each line pays what it costs to bring the line in — nothing when
// the call's footprint (payload times the buffers the plan keeps it in)
// fits the L1, the L2 latency when it fits the L2, the DRAM latency on
// top beyond that.
func touchCost(m mem.Config, p *Plan, payload int) (hit, miss uint64) {
	buffers := 2
	if p.Stage != BufNone {
		buffers++
	}
	if p.Scratch != BufNone {
		buffers++
	}
	switch footprint := payload * buffers; {
	case footprint > m.L2Size:
		miss = m.L2Latency + m.MemLatency
	case footprint > m.L1Size:
		miss = m.L2Latency
	}
	return m.L1Latency, miss
}

// lines is the number of cache lines the cnt elements at loc span.
func (d *dryRun) lines(loc Loc, cnt int) int {
	_, n := xbrtime.ChunkLines(d.g.addr(loc, false), uint64(cnt)*d.g.w)
	return n
}

// touches fills the cost workspace for one transfer: per line on the
// bulk path, per element (the first of each line bringing it in) on the
// element path.
func (d *dryRun) touches(loc Loc, cnt int) []uint64 {
	n, every := cnt, mem.LineSize/int(d.g.w)
	if d.p.Chunked {
		n, every = d.lines(loc, cnt), 1
	}
	if cap(d.touch) < n {
		d.touch = make([]uint64, n)
	}
	t := d.touch[:n]
	for i := range t {
		t[i] = d.hit
		if i%every == 0 {
			t[i] += d.miss
		}
	}
	return t
}

// local is the cost of a copy (passes = 2: read, write) or a combine
// (passes = 3: read both operands, write one back, plus the operator)
// of cnt elements: per line on the bulk path, per element otherwise.
// The write-back of a combine re-touches lines its first pass brought
// in: still in L1, unless the bulk path swept more than an L1 of
// operands in between.
func (d *dryRun) local(s *Step, cnt int, passes, op uint64) uint64 {
	dst := uint64(d.lines(s.Dst, cnt))
	lines := dst + uint64(d.lines(s.Src, cnt))
	accesses, cost := uint64(cnt)*passes, lines*d.miss+uint64(cnt)*op
	if d.p.Chunked {
		accesses = lines * passes / 2
		if passes == 3 && 2*cnt*int(d.g.w) > d.tn.Mem.L1Size {
			cost += dst * d.tn.Mem.L2Latency
		}
	}
	return cost + accesses*(d.hit+xbrtime.LoadCPU)
}

// run advances PE v from its position until it must give the token up.
// It returns true when the PE stands at a fabric booking and must be
// re-queued at its clock (the caller grants the booking once the PE is
// the earliest again), false when it sleeps or has finished.
func (d *dryRun) run(v int, pe *dryPE) bool {
	if pe.round < 0 {
		if yield, done := d.barrier(v, pe); !done {
			return yield
		}
		pe.round = 0
		if d.first == 0 || pe.clock < d.first {
			d.first = pe.clock
		}
		d.logs[v].BeginCall(d.p.label, pe.clock)
		pe.clock += d.allocs * xbrtime.MallocCycles
	}
	for pe.round < len(d.p.Rounds) {
		r := &d.p.Rounds[pe.round]
		mine := r.Steps[r.actorStart[v]:r.actorStart[v+1]]
		if !pe.granted && !pe.woken {
			pe.t0 = pe.clock
		}
		switch tail := pe.idx - len(mine) - 1; {
		case tail < -1:
			s := &mine[pe.idx]
			if s.Blocks > 1 {
				c := s.rep(pe.rep)
				s = &c
			}
			if yield, done := d.step(v, pe, s, r.NB); !done {
				return yield
			}
			noteStep(d.logs[v], s.Kind, pe.t0, pe.clock, pe.by)
			if pe.rep++; pe.rep < mine[pe.idx].Blocks {
				continue
			}
			pe.rep = 0
		case tail == -1:
			// The handle drain: a non-blocking round pays here for its
			// own transfers still in flight.
			if r.NB && pe.drain > pe.clock {
				pe.clock = pe.drain
				d.logs[v].Note(obs.CatDataWait, pe.t0, pe.clock)
			}
			pe.drain, pe.lastNB = 0, 0
		case r.tail+tail < len(r.Steps):
			if r.Steps[r.tail+tail].Kind == StepBarrier {
				if yield, done := d.barrier(v, pe); !done {
					return yield
				}
				noteStep(d.logs[v], StepBarrier, pe.t0, pe.clock, pe.by)
			}
		default:
			pe.round, pe.idx = pe.round+1, 0
			continue
		}
		pe.idx++
	}
	pe.clock += d.allocs * xbrtime.FreeCycles
	d.logs[v].EndCall(pe.clock)
	d.running--
	return false
}

// token reports whether PE v holds the token for the booking it stands
// at: not on first reaching it (the PE re-queues, as PE.lsYield does),
// yes once the scheduler has picked it again.
func (pe *dryPE) token() bool {
	held := pe.granted
	pe.granted = false
	return held
}

// step executes one single-block step. done reports that it completed;
// otherwise yield says whether the PE waits for the token or sleeps.
func (d *dryRun) step(v int, pe *dryPE, s *Step, nb bool) (yield, done bool) {
	switch s.Kind {
	case StepPut, StepGet:
		cnt := d.g.count(s)
		if s.SkipIfZero && cnt == 0 {
			pe.lastNB = 0
			return false, true
		}
		if !pe.token() {
			return true, false
		}
		pe.clock += xbrtime.OLBHitCost
		local, book := s.Dst, d.tm.Get
		if s.Kind == StepPut {
			local, book = s.Src, d.tm.Put
		}
		issued, landed, err := book(v, s.Peer, pe.clock, int(d.g.w), d.touches(local, cnt), nb, d.p.Chunked)
		if err != nil {
			panic(err) // every link of a pricing fabric is up
		}
		pe.clock = max(pe.clock, issued)
		if nb {
			pe.lastNB, pe.drain = landed, max(pe.drain, landed)
		} else {
			pe.clock = max(pe.clock, landed)
		}

	case StepCopy:
		if cnt := d.g.count(s); cnt > 0 {
			pe.clock += d.local(s, cnt, 2, 0)
		}

	case StepCombine:
		if cnt := d.g.count(s); cnt > 0 {
			pe.clock += d.local(s, cnt, 3, 1)
		}

	case StepBarrier:
		return d.barrier(v, pe)

	case StepSignal:
		if s.Peer != v && !pe.token() {
			return true, false
		}
		next, arrive, err := d.tm.Signal(v, s.Peer, pe.clock, max(pe.clock, pe.lastNB))
		if err != nil {
			panic(err)
		}
		pe.clock, pe.lastNB = next, 0
		if d.flags.Post(s.Peer, s.Peer*d.p.FlagWords+s.Flag, arrive, v) {
			d.wake(s.Peer, arrive)
		}

	case StepWaitFlag:
		if !pe.woken {
			pe.clock += xbrtime.FlagPollCPU
		}
		pe.woken = false
		k := v*d.p.FlagWords + s.Flag
		at, by, ok := d.flags.Take(k)
		if !ok {
			d.flags.Sleep(v, k)
			return false, false
		}
		pe.clock, pe.by = max(pe.clock, at), by
	}
	return false, true
}

// wake queues sleeping PE m at its resume clock.
func (d *dryRun) wake(m int, at uint64) {
	q := &d.pes[m]
	q.woken = true
	q.clock = max(q.clock, at)
	d.ready.Push(xbrtime.ReadyPE{Clock: q.clock, Rank: m})
}

// barrier runs PE v through the world barrier of the machine's kind.
func (d *dryRun) barrier(v int, pe *dryPE) (yield, done bool) {
	if d.rounds > 0 {
		return d.dissem(v, pe)
	}
	if pe.woken {
		pe.woken = false
		return false, true
	}
	if !pe.token() {
		pe.clock += xbrtime.BarrierCPU
		return d.n > 1, d.n == 1
	}
	arrive, err := d.tm.BarrierArrive(v, 0, pe.clock)
	if err != nil {
		panic(err)
	}
	if arrive > d.maxArr {
		d.maxArr, d.maxBy = arrive, v
	}
	if d.arrived++; d.arrived < d.n {
		return false, false
	}
	release, by := d.maxArr, d.maxBy
	d.arrived, d.maxArr = 0, 0
	err = d.tm.BarrierRelease(d.world, release, func(m int, at uint64) {
		d.pes[m].by = by
		if m != v {
			d.wake(m, at)
		} else {
			pe.clock = max(pe.clock, at)
		}
	})
	if err != nil {
		panic(err)
	}
	return false, true
}

// dissem is barrier for the dissemination algorithm: ⌈log₂ n⌉ rounds of
// signal-the-peer-ahead, wait-for-the-peer-behind.
func (d *dryRun) dissem(v int, pe *dryPE) (yield, done bool) {
	if !pe.granted && !pe.woken && pe.dround == 0 {
		pe.clock += xbrtime.BarrierCPU
		pe.by = -1 // no single rank releases a dissemination barrier
	}
	for ; pe.dround < d.rounds; pe.dround++ {
		if !pe.woken {
			if !pe.token() {
				return true, false
			}
			peer, arrive, err := d.tm.DissemSignal(v, pe.dround, d.n, pe.clock)
			if err != nil {
				panic(err)
			}
			if d.slots.Post(peer, dissemSlot{pe.epoch, pe.dround, peer}, arrive, v) {
				d.wake(peer, arrive)
			}
		}
		pe.woken = false
		mine := dissemSlot{pe.epoch, pe.dround, v}
		at, _, ok := d.slots.Take(mine)
		if !ok {
			d.slots.Sleep(v, mine)
			return false, false
		}
		pe.clock = max(pe.clock, at)
	}
	pe.dround = 0
	pe.epoch++
	return false, true
}
