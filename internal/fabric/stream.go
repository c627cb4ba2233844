package fabric

import (
	"fmt"
	"math"

	"xbgas/internal/obs"
)

// ringWindows is the number of congestion-window slots each booking
// account keeps resident (a power of two). With the default 2048-cycle
// window the ring spans ~8.4M cycles of virtual time — far wider than
// the clock skew between free-running PEs, which only synchronise at
// barriers (GUPS-style kernels drift by hundreds of thousands of
// cycles between them). Bookings that fall off the ring are treated as
// drained: a message timestamped more than ringWindows windows before
// the newest booking in its slot's residue class sees an idle
// resource. Each account costs 64 KiB once allocated; accounts are
// allocated lazily (shard.ensure) so only NICs that actually receive
// traffic pay it, keeping 1k–4k-PE fabrics affordable.
const ringWindows = 4096

// emptyWindow marks an unused ring slot. Virtual time would need ~2^75
// cycles to reach it.
const emptyWindow = ^uint64(0)

// account is the windowed fluid-queue occupancy of one contended
// resource (a destination NIC or the shared switch). It replaces the
// seed's map[window]uint64 with a fixed ring of window slots: a booking
// is allocation-free, and Reset is a constant-size wipe. A stream books
// an account through a cursor, which keeps the resident window in
// locals so a booking inside it touches no ring slot.
//
// Callers must hold the lock that owns the account.
type account struct {
	wid    []uint64
	booked []uint64
}

// init allocates the ring on first use and empties every slot.
func (a *account) init() {
	if a.wid == nil {
		a.wid = make([]uint64, ringWindows)
		a.booked = make([]uint64, ringWindows)
	}
	for i := range a.wid {
		a.wid[i] = emptyWindow
		a.booked[i] = 0
	}
}

// book records service cycles against the window containing now and
// returns the queueing delay the message experiences: the service
// already booked in that window beyond the window's elapsed portion,
// capped at queueCap windows. The math is identical to the seed's map
// implementation for every window resident in the ring; claiming a slot
// evicts the booking of an older window in the same residue class
// (which forward-moving clocks will not revisit), and a message
// arriving for a window older than the slot's resident sees the
// resource as drained. Send and one-packet streams book this way;
// longer streams book through cursors (cursor.move, cursor.take), by
// the same rule.
func (a *account) book(window, queueCap, now, service uint64) uint64 {
	w := now / window
	idx := w % ringWindows
	switch {
	case a.wid[idx] == w:
		// Resident window: accumulate below.
	case a.wid[idx] == emptyWindow || a.wid[idx] < w:
		a.wid[idx] = w
		a.booked[idx] = 0
	default:
		// Older than the ring horizon: treat the window as drained and
		// do not book (the resident, newer window keeps its occupancy).
		return 0
	}
	elapsed := now % window
	booked := a.booked[idx]
	a.booked[idx] = booked + service
	if booked <= elapsed {
		return 0
	}
	queued := booked - elapsed
	if limit := queueCap * window; queued > limit {
		return limit
	}
	return queued
}

// cursor is one stream's view of an account: the ring slot of the
// window it last booked, that window's [start, start+width) and its
// booked service, held in locals for the length of the stream and
// written back by flush. width is the window while a slot is resident
// and 0 before the first booking or after a booking past the ring
// horizon, so the in-window test fails and move resolves the slot.
type cursor struct {
	a      *account
	window uint64
	limit  uint64 // queueCap · window
	idx    uint64
	start  uint64
	width  uint64
	booked uint64
}

// init points a zero cursor at a, which the caller books under the
// lock that owns a and flushes before releasing it. It sets the fields
// in place: copying in a cursor built elsewhere stalls on store
// forwarding, a few ns a stream.
func (c *cursor) init(f *Fabric, a *account) {
	c.a, c.window, c.limit = a, f.window, f.queueCap*f.window
}

// seek makes the window containing now resident (move), unless it is
// already. A booking is seek and then take; the two stay separate so
// each inlines into a stream's loop.
func (c *cursor) seek(now uint64) {
	if now-c.start >= c.width {
		c.move(now)
	}
}

// take books service cycles against the resident window, which must
// contain now (seek), and returns the queueing delay the message
// experiences, by account.book's rule: an add and a compare. It also
// returns the unclipped excess behind the queue, the slack a linear
// segment extrapolates (segment). With no window resident (now is past
// the ring horizon) it books nothing and returns 0.
func (c *cursor) take(now, service uint64) (queue uint64, slack int64) {
	elapsed := now - c.start
	if elapsed >= c.width {
		return 0, 0
	}
	booked := c.booked
	c.booked = booked + service
	slack = int64(booked) - int64(elapsed)
	if slack <= 0 {
		return 0, slack
	}
	return min(uint64(slack), c.limit), slack
}

// move writes the resident window back and makes now's window
// resident, claiming its ring slot (which evicts the booking of an
// older window in the same residue class, one forward-moving clocks
// will not revisit). If the slot holds a newer window, now is older
// than the ring horizon: its window counts as drained, books nothing,
// and the resident, newer window keeps its occupancy, so move leaves
// no window resident.
func (c *cursor) move(now uint64) {
	c.flush()
	w := now / c.window
	idx := w % ringWindows
	switch a := c.a; {
	case a.wid[idx] == w:
		c.booked = a.booked[idx]
	case a.wid[idx] == emptyWindow || a.wid[idx] < w:
		a.wid[idx] = w
		c.booked = 0
	default:
		c.width = 0
		return
	}
	c.idx, c.start, c.width = idx, w*c.window, c.window
}

// seekPair returns whichever of two cursors over one account holds now's
// window. A fetch books the switch twice per round trip, request and
// data, often in adjacent windows, so it keeps a cursor per leg: c is
// the booking leg's, o the other's. If neither holds now's window, c
// moves there. The legs thus do not move one cursor back and forth,
// and the two never hold the same window or ring slot.
func seekPair(c, o *cursor, now uint64) *cursor {
	if now-c.start < c.width {
		return c
	}
	return seekPairSlow(c, o, now)
}

// seekPairSlow is seekPair's slow path.
func seekPairSlow(c, o *cursor, now uint64) *cursor {
	if now-o.start < o.width {
		return o
	}
	if o.width != 0 && o.idx == now/o.window%ringWindows {
		// now's window claims (or falls behind) the slot o holds.
		o.flush()
		o.width = 0
	}
	c.move(now)
	return c
}

// segment returns how many packets k = 0, 1, … of a linear segment a
// booking allows, and its queue's change per packet, when the
// booking's time moves by dt ≥ 0 cycles per packet and the cursor
// books svc cycles per packet: the time must stay inside the resident
// window and the slack (take's, packet 0's) on the same side of the
// queue's clips, 0 and limit. A booking outside the resident window
// (another booking of the packet moved the cursor, or the window is
// past the ring horizon) allows packet 0 alone.
func (c *cursor) segment(now uint64, slack, dt int64, svc uint64) (k int, dq int64) {
	e := now - c.start
	if e >= c.width {
		return 1, 0
	}
	ds, limit := int64(svc)-dt, int64(c.limit)
	if slack > 0 && slack <= limit {
		dq = ds
	}
	return min(span(int64(e), dt, int64(c.width)-1), span(slack, ds, 0), span(slack, ds, limit)), dq
}

// span returns how many consecutive packets k = 0, 1, … keep a + k·b
// on the side of c that packet 0 is on (above it, or at or below it):
// the length of a linear segment as one of its conditions sees it.
func span(a, b, c int64) int {
	switch {
	case a > c && b < 0:
		return int((a - c - b - 1) / -b)
	case a <= c && b > 0:
		return int((c-a)/b + 1)
	}
	return math.MaxInt
}

// flowSpan is span for the flow-control branch of a pipelined stream:
// whether the backlog a packet leaves, x + k·dx cycles past its issue,
// exceeds gap + flow. A window too wide for the signed arithmetic
// allows packet 0 alone.
func flowSpan(x uint64, dx int64, gap, flow uint64) int {
	if at := gap + flow; at >= gap && at < 1<<62 {
		return span(int64(x), dx, int64(at))
	}
	return 1
}

// tail returns the sum over k = 1..m of x + k·dx and its last term:
// the m packets a linear segment books after its first.
func tail(x uint64, dx int64, m int) (sum, last uint64) {
	k := int64(m)
	return uint64(k*int64(x) + dx*k*(k+1)/2), uint64(int64(x) + k*dx)
}

// flush writes the resident window's booked service back to its slot.
func (c *cursor) flush() {
	if c.width != 0 {
		c.a.booked[c.idx] = c.booked
	}
}

// Stream describes a pipelined one-way element stream for SendStream:
// nelems = len(PreCost) messages of ElemBytes each from Src to Dst.
// PreCost[i] is added to the issue clock before element i is sent (the
// source-element read cost in a put). When Unrolled, consecutive sends
// are Gap cycles apart with flow control throttling the stream once
// more than FlowWindow cycles of arrivals back up in the network;
// otherwise each send waits for the previous element's arrival.
type Stream struct {
	Src, Dst   int
	ElemBytes  int
	Start      uint64   // issue clock before the first element
	PreCost    []uint64 // per-element pre-send cost; len = nelems
	Gap        uint64   // per-element sender occupancy when unrolled
	FlowWindow uint64   // flow-control backlog bound (depth · gap)
	Unrolled   bool
}

// next returns the issue clock after a packet that left at t and
// arrives at arrive, and whether flow control held it back.
func (s *Stream) next(t, arrive, transit uint64) (issue uint64, throttled bool) {
	if !s.Unrolled {
		return arrive, false
	}
	if backlog := arrive - transit; backlog > t+s.Gap+s.FlowWindow {
		return backlog - s.FlowWindow, true
	}
	return t + s.Gap, false
}

// SendStream books an entire element stream in one critical section and
// returns the sender's final issue clock and the latest arrival time.
// Element i leaves at issue_i = issue_{i-1}+PreCost[i] (plus pipeline
// spacing) and arrives at issue_i+queue+transit, exactly as if each
// element had been passed to Send at the same timestamp — the per-window
// booking the destination and switch accounts see is identical.
//
// The link state is read once per stream (SetLinkState): on a down
// link the stream books nothing, counts one drop and returns an
// error.
func (f *Fabric) SendStream(s Stream) (endIssue, lastArrive uint64, err error) {
	if err := f.checkPair(s.Src, s.Dst); err != nil {
		return 0, 0, err
	}
	if s.ElemBytes < 0 {
		return 0, 0, fmt.Errorf("fabric: negative message size %d", s.ElemBytes)
	}
	n := len(s.PreCost)
	if n == 0 {
		return s.Start, 0, nil
	}
	transit := f.TransitCost(s.Src, s.Dst, s.ElemBytes)
	recvSvc := f.recvService(s.Src, s.Dst, s.ElemBytes)
	swSvc := f.switchService(s.ElemBytes)
	cls := f.classIdx(s.Src, s.Dst)
	useSwitch := f.cfg.SwitchGap > 0 && cls == classInter

	var stall, nicStall, nicPeak, lastQueue uint64
	issue := s.Start
	sent := uint64(n)

	sh := &f.recv[s.Dst]
	sh.mu.Lock()
	sh.ensure(len(f.recv))
	if useSwitch {
		f.switchMu.Lock()
	}
	if f.linkDown(s.Src, s.Dst) {
		f.dropped.Add(1)
		err = fmt.Errorf("fabric: link %d->%d is down", s.Src, s.Dst)
		n, sent = 0, 0
	}
	if n == 1 {
		// A one-packet stream (an element put) books as Send does: a
		// cursor's setup and write-back would cost more than it saves.
		t := issue + s.PreCost[0]
		queue := sh.acc.book(f.window, f.queueCap, t, recvSvc)
		nicStall, nicPeak, lastQueue = queue, queue, queue
		if useSwitch {
			queue = max(queue, f.switchAc.book(f.window, f.queueCap, t, swSvc))
		}
		stall, lastArrive = queue, t+queue+transit
		issue, _ = s.next(t, lastArrive, transit)
	} else if n > 1 {
		var nic, sw cursor
		nic.init(f, &sh.acc)
		sw.init(f, &f.switchAc)
		for i := 0; i < n; {
			// Book packet i, then the packets after it that continue its
			// linear segment.
			pre := s.PreCost[i]
			t := issue + pre
			nic.seek(t)
			qn, gn := nic.take(t, recvSvc)
			queue := qn
			var qs uint64
			var gs int64
			if useSwitch {
				sw.seek(t)
				qs, gs = sw.take(t, swSvc)
				queue = max(queue, qs)
			}
			arrive := t + queue + transit
			next, throttled := s.next(t, arrive, transit)
			nicStall += qn
			nicPeak = max(nicPeak, qn)
			lastQueue = qn
			stall += queue
			lastArrive = max(lastArrive, arrive)
			issue = next
			if i++; i == n || s.PreCost[i] != pre {
				continue
			}

			// They do while every booking time moves by d per packet and
			// nothing changes side; every queue, arrival and sum is then
			// affine in the packet index, so they book in O(1).
			d := int64(next + pre - t)
			k, sqn := nic.segment(t, gn, d, recvSvc)
			sq := sqn
			if useSwitch {
				ks, sqs := sw.segment(t, gs, d, swSvc)
				k = min(k, ks, span(int64(qs)-int64(qn), sqs-sqn, 0))
				if qs > qn {
					sq = sqs
				}
			}
			if s.Unrolled {
				k = min(k, flowSpan(queue, sq, s.Gap, s.FlowWindow))
			}
			if sq != 0 && (throttled || !s.Unrolled) {
				continue // the issue step moves with the queue
			}
			m := 0
			for k = min(k-1, n-i); m < k && s.PreCost[i+m] == pre; m++ {
			}
			um := uint64(m)
			nic.booked += um * recvSvc
			if useSwitch {
				sw.booked += um * swSvc
			}
			sumN, lastN := tail(qn, sqn, m)
			sumQ, _ := tail(queue, sq, m)
			_, lastA := tail(arrive, d+sq, m)
			nicStall += sumN
			nicPeak = max(nicPeak, lastN)
			lastQueue = lastN
			stall += sumQ
			lastArrive = max(lastArrive, lastA)
			issue += um * uint64(d)
			i += m
		}
		nic.flush()
		sw.flush()
	}
	sh.fold(s.Src, cls, sent, uint64(s.ElemBytes), nicStall, nicPeak)
	if f.obs != nil && sent > 0 {
		// The destination NIC's track is appended under its shard lock,
		// so one goroutine writes it at a time.
		f.obs.FabricTrack(s.Dst).Complete("send_stream", s.Start, lastArrive,
			obs.Args{Rank: s.Src, Peer: s.Dst, Round: -1, Nelems: int(sent)})
		f.sampleCounters(s.Dst, issue, lastQueue, sh)
	}
	if useSwitch {
		f.switchMu.Unlock()
	}
	sh.mu.Unlock()

	f.messages.Add(sent)
	f.bytes.Add(sent * uint64(s.ElemBytes))
	f.stallCyc.Add(stall)
	if f.obs != nil && sent > 0 {
		f.obs.FabricMetrics().ObserveStream(false, int(sent), stall)
		f.obs.FabricMetrics().AddClass(cls, sent, sent*uint64(s.ElemBytes), nicStall)
	}
	if err != nil {
		return 0, 0, err
	}
	return issue, lastArrive, nil
}

// Fetch describes a pipelined request/response element stream for
// FetchStream: nelems = len(PostCost) round trips in which Src sends a
// ReqBytes request to Dst and Dst answers with RespBytes of data.
// ReqCost is added to each request's departure timestamp (the local
// instruction cost of issuing it); PostCost[i] is added after element
// i's data arrives (the destination-element write cost in a get).
type Fetch struct {
	Src, Dst   int
	ReqBytes   int
	RespBytes  int
	Start      uint64
	ReqCost    uint64
	PostCost   []uint64 // per-element post-arrival cost; len = nelems
	Gap        uint64
	FlowWindow uint64
	Unrolled   bool
}

// next returns the issue clock after a round trip issued at issue
// whose data arrives at data and lands post cycles later, and whether
// flow control held it back.
func (q *Fetch) next(issue, data, transit, post uint64) (next uint64, throttled bool) {
	if !q.Unrolled {
		return data + post, false
	}
	if backlog := data - transit; backlog > issue+q.Gap+q.FlowWindow {
		return backlog - q.FlowWindow, true
	}
	return issue + q.Gap, false
}

// FetchStream books an entire request/response stream in one critical
// section and returns the requester's final issue clock and the latest
// element completion time. Each round trip books the request at Dst's
// NIC and the data at Src's NIC (plus the switch for both legs) with
// timestamps identical to two chained Send calls.
//
// The link state is read once per stream (SetLinkState). A down
// request link fails the stream before its first request; a down
// response link fails it after its first request, which stays booked.
// Either counts one drop and returns an error.
func (f *Fabric) FetchStream(q Fetch) (endIssue, lastDone uint64, err error) {
	if err := f.checkPair(q.Src, q.Dst); err != nil {
		return 0, 0, err
	}
	if q.ReqBytes < 0 || q.RespBytes < 0 {
		return 0, 0, fmt.Errorf("fabric: negative message size")
	}
	n := len(q.PostCost)
	if n == 0 {
		return q.Start, 0, nil
	}
	transitReq := f.TransitCost(q.Src, q.Dst, q.ReqBytes)
	transitData := f.TransitCost(q.Dst, q.Src, q.RespBytes)
	transit := transitReq + transitData
	reqSvc := f.recvService(q.Src, q.Dst, q.ReqBytes)
	dataSvc := f.recvService(q.Dst, q.Src, q.RespBytes)
	swReqSvc := f.switchService(q.ReqBytes)
	swDataSvc := f.switchService(q.RespBytes)
	cls := f.classIdx(q.Src, q.Dst)
	useSwitch := f.cfg.SwitchGap > 0 && cls == classInter

	var stall, nicStallReq, nicStallData, peakReq, peakData, lastQr, lastQd uint64
	issue := q.Start
	reqSent, dataSent := uint64(n), uint64(n)

	// Two shards are involved: Dst receives the requests, Src receives
	// the data. Lock in ascending index order (once if they coincide),
	// then the switch — the same global order every fabric path uses.
	shReq := &f.recv[q.Dst]
	shData := &f.recv[q.Src]
	lo, hi := shReq, shData
	if q.Src < q.Dst {
		lo, hi = shData, shReq
	}
	lo.mu.Lock()
	if hi != lo {
		hi.mu.Lock()
	}
	shReq.ensure(len(f.recv))
	shData.ensure(len(f.recv))
	if useSwitch {
		f.switchMu.Lock()
	}
	dataDown := false
	switch {
	case f.linkDown(q.Src, q.Dst):
		f.dropped.Add(1)
		err = fmt.Errorf("fabric: link %d->%d is down", q.Src, q.Dst)
		n, reqSent, dataSent = 0, 0, 0
	case f.linkDown(q.Dst, q.Src):
		f.dropped.Add(1)
		err = fmt.Errorf("fabric: link %d->%d is down", q.Dst, q.Src)
		// The first request leaves; its data does not.
		dataDown, n, reqSent, dataSent = true, 1, 1, 0
	}
	if n == 1 {
		// One round trip books as two Sends do (see SendStream).
		t := issue + q.ReqCost
		qr := shReq.acc.book(f.window, f.queueCap, t, reqSvc)
		nicStallReq, peakReq, lastQr = qr, qr, qr
		if useSwitch {
			qr = max(qr, f.switchAc.book(f.window, f.queueCap, t, swReqSvc))
		}
		stall = qr
		if !dataDown {
			req := t + qr + transitReq
			qd := shData.acc.book(f.window, f.queueCap, req, dataSvc)
			nicStallData, peakData, lastQd = qd, qd, qd
			if useSwitch {
				qd = max(qd, f.switchAc.book(f.window, f.queueCap, req, swDataSvc))
			}
			stall += qd
			data := req + qd + transitData
			lastDone = data + q.PostCost[0]
			issue, _ = q.next(issue, data, transit, q.PostCost[0])
		}
	} else if n > 1 {
		// One cursor per NIC: a self fetch books both legs on one. The
		// switch keeps one per leg (seekPair).
		var reqNIC, dataCur cursor
		var sw [2]cursor
		reqNIC.init(f, &shReq.acc)
		sw[0].init(f, &f.switchAc)
		sw[1].init(f, &f.switchAc)
		dataNIC := &reqNIC
		if shData != shReq {
			dataCur.init(f, &shData.acc)
			dataNIC = &dataCur
		}
		// The service each cursor books per round trip, for segment.
		reqTot, dataTot := reqSvc, dataSvc
		if dataNIC == &reqNIC {
			reqTot, dataTot = reqSvc+dataSvc, reqSvc+dataSvc
		}
		for i := 0; i < n; {
			// Book round trip i, then the round trips after it that continue
			// its linear segment, as SendStream does.
			t := issue + q.ReqCost
			reqNIC.seek(t)
			qrN, grN := reqNIC.take(t, reqSvc)
			qr := qrN
			var qrS uint64
			var grS int64
			var swReq, swData *cursor
			if useSwitch {
				swReq = seekPair(&sw[0], &sw[1], t)
				qrS, grS = swReq.take(t, swReqSvc)
				qr = max(qr, qrS)
			}
			req := t + qr + transitReq
			dataNIC.seek(req)
			qdN, gdN := dataNIC.take(req, dataSvc)
			qd := qdN
			var qdS uint64
			var gdS int64
			if useSwitch {
				swData = seekPair(&sw[1], &sw[0], req)
				qdS, gdS = swData.take(req, swDataSvc)
				qd = max(qd, qdS)
			}
			data := req + qd + transitData
			post := q.PostCost[i]
			next, throttled := q.next(issue, data, transit, post)

			nicStallReq += qrN
			peakReq = max(peakReq, qrN)
			lastQr = qrN
			nicStallData += qdN
			peakData = max(peakData, qdN)
			lastQd = qdN
			stall += qr + qd
			lastDone = max(lastDone, data+post)
			d := int64(next - issue)
			issue = next
			if i++; i == n || (!q.Unrolled && q.PostCost[i] != post) {
				continue
			}

			// The round trips after it continue its linear segment, as in
			// SendStream.
			swReqTot, swDataTot := swReqSvc, swDataSvc
			if swReq == swData {
				swReqTot, swDataTot = swReqSvc+swDataSvc, swReqSvc+swDataSvc
			}
			k, sqrN := reqNIC.segment(t, grN, d, reqTot)
			sqr := sqrN
			if useSwitch {
				ks, sqrS := swReq.segment(t, grS, d, swReqTot)
				k = min(k, ks, span(int64(qrS)-int64(qrN), sqrS-sqrN, 0))
				if qrS > qrN {
					sqr = sqrS
				}
			}
			kd, sqdN := dataNIC.segment(req, gdN, d+sqr, dataTot)
			k = min(k, kd)
			sqd := sqdN
			if useSwitch {
				ks, sqdS := swData.segment(req, gdS, d+sqr, swDataTot)
				k = min(k, ks, span(int64(qdS)-int64(qdN), sqdS-sqdN, 0))
				if qdS > qdN {
					sqd = sqdS
				}
			}
			if q.Unrolled {
				k = min(k, flowSpan(q.ReqCost+qr+qd, sqr+sqd, q.Gap, q.FlowWindow))
			}
			if sqr+sqd != 0 && (throttled || !q.Unrolled) {
				continue // the issue step moves with the queues
			}
			k = min(k-1, n-i)
			m, dData := k, d+sqr+sqd
			if q.Unrolled {
				// PostCost enters only the completion time.
				for j, pc := range q.PostCost[i : i+m] {
					lastDone = max(lastDone, uint64(int64(data)+int64(j+1)*dData)+pc)
				}
			} else {
				for m = 0; m < k && q.PostCost[i+m] == post; m++ {
				}
				_, lastData := tail(data, dData, m)
				lastDone = max(lastDone, lastData+post)
			}
			um := uint64(m)
			reqNIC.booked += um * reqSvc
			dataNIC.booked += um * dataSvc
			if useSwitch {
				swReq.booked += um * swReqSvc
				swData.booked += um * swDataSvc
			}
			sumR, lastR := tail(qrN, sqrN, m)
			sumD, lastD := tail(qdN, sqdN, m)
			sumQ, _ := tail(qr+qd, sqr+sqd, m)
			nicStallReq += sumR
			peakReq = max(peakReq, lastR)
			lastQr = lastR
			nicStallData += sumD
			peakData = max(peakData, lastD)
			lastQd = lastD
			stall += sumQ
			issue += um * uint64(d)
			i += m
		}
		reqNIC.flush()
		dataNIC.flush()
		sw[0].flush()
		sw[1].flush()
	}
	shReq.fold(q.Src, cls, reqSent, uint64(q.ReqBytes), nicStallReq, peakReq)
	shData.fold(q.Dst, cls, dataSent, uint64(q.RespBytes), nicStallData, peakData)
	if f.obs != nil && reqSent > 0 {
		// Appended under the serving node's shard lock (held here).
		f.obs.FabricTrack(q.Dst).Complete("fetch_stream", q.Start, lastDone,
			obs.Args{Rank: q.Src, Peer: q.Dst, Round: -1, Nelems: int(reqSent)})
		f.sampleCounters(q.Dst, issue, lastQr, shReq)
		if dataSent > 0 {
			f.sampleCounters(q.Src, issue, lastQd, shData)
		}
	}
	if useSwitch {
		f.switchMu.Unlock()
	}
	if hi != lo {
		hi.mu.Unlock()
	}
	lo.mu.Unlock()

	f.messages.Add(reqSent + dataSent)
	f.bytes.Add(reqSent*uint64(q.ReqBytes) + dataSent*uint64(q.RespBytes))
	f.stallCyc.Add(stall)
	if f.obs != nil && reqSent > 0 {
		f.obs.FabricMetrics().ObserveStream(true, int(reqSent), stall)
		f.obs.FabricMetrics().AddClass(cls, reqSent, reqSent*uint64(q.ReqBytes), nicStallReq)
		f.obs.FabricMetrics().AddClass(cls, dataSent, dataSent*uint64(q.RespBytes), nicStallData)
	}
	if err != nil {
		return 0, 0, err
	}
	return issue, lastDone, nil
}
