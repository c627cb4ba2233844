package fabric

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// streamConfig is a deliberately small-window model so tests can cross
// window boundaries and hit the queue cap with few messages.
func streamConfig() Config {
	return Config{
		InjectionOverhead: 10,
		IssueGap:          5,
		HopLatency:        50,
		ByteCost:          1,
		ReceiverGap:       100,
		CongestionWindow:  256,
		QueueCap:          2,
	}
}

// sendAll is the reference: the same element recurrence evaluated with
// individual Send calls.
func sendAll(t *testing.T, f *Fabric, s Stream) (endIssue, lastArrive uint64) {
	t.Helper()
	transit := f.TransitCost(s.Src, s.Dst, s.ElemBytes)
	issue := s.Start
	for _, pre := range s.PreCost {
		issue += pre
		arrive, err := f.Send(s.Src, s.Dst, s.ElemBytes, issue)
		if err != nil {
			t.Fatalf("Send: %v", err)
		}
		if arrive > lastArrive {
			lastArrive = arrive
		}
		if s.Unrolled {
			issue += s.Gap
			if backlog := arrive - transit; backlog > issue+s.FlowWindow {
				issue = backlog - s.FlowWindow
			}
		} else {
			issue = arrive
		}
	}
	return issue, lastArrive
}

func preCosts(n int, c uint64) []uint64 {
	pc := make([]uint64, n)
	for i := range pc {
		pc[i] = c
	}
	return pc
}

// TestSendStreamMatchesSends checks the batched booking against the
// message-at-a-time reference on two identical fabrics, for streams
// that straddle many window boundaries in both pipelined and ordered
// modes.
func TestSendStreamMatchesSends(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n        int
		unrolled bool
	}{
		{"ordered-short", 3, false},
		{"ordered-straddle", 40, false}, // recv gap 100 ≫ window 256: many windows
		{"pipelined-straddle", 200, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := MustNew(FullyConnected{N: 4}, streamConfig())
			fast := MustNew(FullyConnected{N: 4}, streamConfig())
			s := Stream{
				Src: 1, Dst: 2, ElemBytes: 16, Start: 100,
				PreCost: preCosts(tc.n, 3), Gap: 5, FlowWindow: 80,
				Unrolled: tc.unrolled,
			}
			wantIssue, wantArrive := sendAll(t, ref, s)
			gotIssue, gotArrive, err := fast.SendStream(s)
			if err != nil {
				t.Fatalf("SendStream: %v", err)
			}
			if gotIssue != wantIssue || gotArrive != wantArrive {
				t.Errorf("stream: issue=%d arrive=%d, reference issue=%d arrive=%d",
					gotIssue, gotArrive, wantIssue, wantArrive)
			}
			if fast.Messages() != ref.Messages() || fast.Bytes() != ref.Bytes() ||
				fast.ContentionCycles() != ref.ContentionCycles() {
				t.Errorf("stats: stream msgs=%d bytes=%d cont=%d, reference msgs=%d bytes=%d cont=%d",
					fast.Messages(), fast.Bytes(), fast.ContentionCycles(),
					ref.Messages(), ref.Bytes(), ref.ContentionCycles())
			}
		})
	}
}

// TestFetchStreamMatchesSends does the same for the request/response
// round-trip form.
func TestFetchStreamMatchesSends(t *testing.T) {
	cfg := streamConfig()
	ref := MustNew(FullyConnected{N: 4}, cfg)
	fast := MustNew(FullyConnected{N: 4}, cfg)

	post := preCosts(64, 7)
	q := Fetch{
		Src: 0, Dst: 3, ReqBytes: 8, RespBytes: 8, Start: 50,
		ReqCost: 1, PostCost: post, Gap: 5, FlowWindow: 80, Unrolled: true,
	}

	// Reference: chained Sends.
	transit := ref.TransitCost(0, 3, 8) + ref.TransitCost(3, 0, 8)
	issue := q.Start
	var wantDone uint64
	for _, pc := range post {
		req, err := ref.Send(0, 3, 8, issue+q.ReqCost)
		if err != nil {
			t.Fatal(err)
		}
		data, err := ref.Send(3, 0, 8, req)
		if err != nil {
			t.Fatal(err)
		}
		done := data + pc
		if done > wantDone {
			wantDone = done
		}
		issue += q.Gap
		if backlog := data - transit; backlog > issue+q.FlowWindow {
			issue = backlog - q.FlowWindow
		}
	}

	gotIssue, gotDone, err := fast.FetchStream(q)
	if err != nil {
		t.Fatalf("FetchStream: %v", err)
	}
	if gotIssue != issue || gotDone != wantDone {
		t.Errorf("fetch: issue=%d done=%d, reference issue=%d done=%d",
			gotIssue, gotDone, issue, wantDone)
	}
	if fast.Messages() != ref.Messages() || fast.ContentionCycles() != ref.ContentionCycles() {
		t.Errorf("stats diverge: stream msgs=%d cont=%d, reference msgs=%d cont=%d",
			fast.Messages(), fast.ContentionCycles(), ref.Messages(), ref.ContentionCycles())
	}
}

// TestStreamQueueCapSaturation drives one window far past the queue
// cap: per-message delay must plateau at QueueCap·window exactly as
// with individual sends.
func TestStreamQueueCapSaturation(t *testing.T) {
	cfg := streamConfig() // cap = 2 windows of 256 cycles
	f := MustNew(FullyConnected{N: 2}, cfg)
	limit := cfg.QueueCap * cfg.CongestionWindow

	// 50 zero-cost messages at the same timestamp: service 100+16 each,
	// so booking blows through the cap almost immediately.
	s := Stream{Src: 0, Dst: 1, ElemBytes: 16, Start: 512,
		PreCost: preCosts(50, 0), Unrolled: true, Gap: 0, FlowWindow: 1 << 40}
	_, lastArrive, err := f.SendStream(s)
	if err != nil {
		t.Fatal(err)
	}
	wantMax := s.Start + limit + f.TransitCost(0, 1, 16)
	if lastArrive != wantMax {
		t.Errorf("saturated arrival %d, want cap-bounded %d", lastArrive, wantMax)
	}
	// Contention must reflect the cap, not unbounded backlog.
	refTotal := f.ContentionCycles()
	perMsgMax := limit * 50
	if refTotal > perMsgMax {
		t.Errorf("contention %d exceeds %d (cap × messages)", refTotal, perMsgMax)
	}
}

// TestStreamDownLinkMidStream takes the link down between two streams:
// the second stream must fail, count a drop, and leave earlier
// bookings intact.
func TestStreamDownLinkMidStream(t *testing.T) {
	f := MustNew(FullyConnected{N: 3}, streamConfig())
	if _, _, err := f.SendStream(Stream{Src: 0, Dst: 1, ElemBytes: 16, Start: 0,
		PreCost: preCosts(4, 1)}); err != nil {
		t.Fatal(err)
	}
	before := f.Messages()

	f.SetLinkState(0, 1, false)
	_, _, err := f.SendStream(Stream{Src: 0, Dst: 1, ElemBytes: 16, Start: 1000,
		PreCost: preCosts(4, 1)})
	if err == nil || !strings.Contains(err.Error(), "down") {
		t.Fatalf("want down-link error, got %v", err)
	}
	if f.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", f.Dropped())
	}
	if f.Messages() != before {
		t.Errorf("messages %d changed by failed stream (was %d)", f.Messages(), before)
	}

	// Fetch direction: only the response leg is down.
	f.SetLinkState(0, 1, true)
	f.SetLinkState(1, 0, false)
	_, _, err = f.FetchStream(Fetch{Src: 0, Dst: 1, ReqBytes: 8, RespBytes: 8,
		Start: 2000, PostCost: preCosts(4, 1)})
	if err == nil || !strings.Contains(err.Error(), "1->0") {
		t.Fatalf("want response-leg error, got %v", err)
	}
	// The request left before the response leg failed.
	if got := f.Messages(); got != before+1 {
		t.Errorf("messages = %d, want %d (request booked before failure)", got, before+1)
	}

	f.SetLinkState(1, 0, true)
	if _, _, err := f.SendStream(Stream{Src: 0, Dst: 1, ElemBytes: 16, Start: 3000,
		PreCost: preCosts(2, 1)}); err != nil {
		t.Fatalf("restored link: %v", err)
	}
}

// TestStreamSelfSend books a self-directed stream: transit is the bare
// injection overhead plus serialisation (no hops), matching Send.
func TestStreamSelfSend(t *testing.T) {
	cfg := streamConfig()
	f := MustNew(FullyConnected{N: 2}, cfg)
	ref := MustNew(FullyConnected{N: 2}, cfg)

	s := Stream{Src: 1, Dst: 1, ElemBytes: 16, Start: 0, PreCost: preCosts(5, 2)}
	wantIssue, wantArrive := sendAll(t, ref, s)
	gotIssue, gotArrive, err := f.SendStream(s)
	if err != nil {
		t.Fatal(err)
	}
	if gotIssue != wantIssue || gotArrive != wantArrive {
		t.Errorf("self stream issue=%d arrive=%d, reference %d/%d",
			gotIssue, gotArrive, wantIssue, wantArrive)
	}
	if hops := (FullyConnected{N: 2}).Hops(1, 1); hops != 0 {
		t.Fatalf("self hops = %d, want 0", hops)
	}
	if tc := f.TransitCost(1, 1, 16); tc != cfg.InjectionOverhead+16*cfg.ByteCost {
		t.Errorf("self transit %d, want injection+bytes %d", tc, cfg.InjectionOverhead+16)
	}

	// FetchStream with Src == Dst exercises the single-shard lock path.
	if _, _, err := f.FetchStream(Fetch{Src: 0, Dst: 0, ReqBytes: 8, RespBytes: 8,
		Start: 0, PostCost: preCosts(3, 1)}); err != nil {
		t.Fatalf("self fetch: %v", err)
	}
}

// TestAccountRingHorizon documents the ring semantics: a booking older
// than the resident window in its slot sees a drained resource and
// does not disturb the resident booking.
func TestAccountRingHorizon(t *testing.T) {
	var a account
	a.init()
	const window, qcap = 2048, 4

	// Fill window w with heavy service.
	w := uint64(ringWindows + 5)
	now := w * window
	a.book(window, qcap, now, 10_000)
	if q := a.book(window, qcap, now, 100); q == 0 {
		t.Fatal("second booking in a loaded window should queue")
	}

	// A booking ringWindows behind maps to the same slot but must not
	// contend with — or evict — the resident window.
	old := (w - ringWindows) * window
	if q := a.book(window, qcap, old, 100); q != 0 {
		t.Errorf("stale-window booking queued %d cycles, want drained (0)", q)
	}
	if q := a.book(window, qcap, now, 100); q == 0 {
		t.Error("resident window lost its booking to a stale-window arrival")
	}
}

// refBook is the per-packet booking rule as one function: the window
// containing now, resolved through the ring on every call.
func refBook(a *account, window, queueCap, now, service uint64) uint64 {
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

// refBookClass folds one message's NIC-side queueing into the
// link-class split, as refSendStream and refFetchStream do per packet.
func refBookClass(sh *shard, cls int, bytes, queue uint64) {
	c := &sh.cls[cls]
	c.msgs++
	c.bytes += bytes
	c.stall += queue
	if queue > c.peak {
		c.peak = queue
	}
}

// refSendStream is SendStream booked one packet at a time: every
// packet resolves its window through the ring and folds its queue into
// the shard as it goes. It is the oracle for the window cursors.
func refSendStream(f *Fabric, s Stream) (endIssue, lastArrive uint64, err error) {
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

	var sent, stall uint64
	issue := s.Start

	sh := &f.recv[s.Dst]
	sh.mu.Lock()
	sh.ensure(len(f.recv))
	if useSwitch {
		f.switchMu.Lock()
	}
	for i := 0; i < n; i++ {
		if f.linkDown(s.Src, s.Dst) {
			f.dropped.Add(1)
			err = fmt.Errorf("fabric: link %d->%d is down", s.Src, s.Dst)
			break
		}
		issue += s.PreCost[i]
		queue := refBook(&sh.acc, f.window, f.queueCap, issue, recvSvc)
		sh.stall += queue
		if queue > sh.peakQueue {
			sh.peakQueue = queue
		}
		refBookClass(sh, cls, uint64(s.ElemBytes), queue)
		if useSwitch {
			if qs := refBook(&f.switchAc, f.window, f.queueCap, issue, swSvc); qs > queue {
				queue = qs
			}
		}
		stall += queue
		sent++
		arrive := issue + queue + transit
		if arrive > lastArrive {
			lastArrive = arrive
		}
		if s.Unrolled {
			issue += s.Gap
			if backlog := arrive - transit; backlog > issue+s.FlowWindow {
				issue = backlog - s.FlowWindow
			}
		} else {
			issue = arrive
		}
	}
	sh.matMsgs[s.Src] += sent
	sh.matBytes[s.Src] += sent * uint64(s.ElemBytes)
	if useSwitch {
		f.switchMu.Unlock()
	}
	sh.mu.Unlock()

	f.messages.Add(sent)
	f.bytes.Add(sent * uint64(s.ElemBytes))
	f.stallCyc.Add(stall)
	if err != nil {
		return 0, 0, err
	}
	return issue, lastArrive, nil
}

// refFetchStream is FetchStream booked one packet at a time, as
// refSendStream is SendStream.
func refFetchStream(f *Fabric, q Fetch) (endIssue, lastDone uint64, err error) {
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

	var reqSent, dataSent, stall uint64
	issue := q.Start

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
	for i := 0; i < n; i++ {
		if f.linkDown(q.Src, q.Dst) {
			f.dropped.Add(1)
			err = fmt.Errorf("fabric: link %d->%d is down", q.Src, q.Dst)
			break
		}
		t := issue + q.ReqCost
		qr := refBook(&shReq.acc, f.window, f.queueCap, t, reqSvc)
		shReq.stall += qr
		if qr > shReq.peakQueue {
			shReq.peakQueue = qr
		}
		refBookClass(shReq, cls, uint64(q.ReqBytes), qr)
		if useSwitch {
			if qs := refBook(&f.switchAc, f.window, f.queueCap, t, swReqSvc); qs > qr {
				qr = qs
			}
		}
		stall += qr
		reqSent++
		req := t + qr + transitReq

		if f.linkDown(q.Dst, q.Src) {
			f.dropped.Add(1)
			err = fmt.Errorf("fabric: link %d->%d is down", q.Dst, q.Src)
			break
		}
		qd := refBook(&shData.acc, f.window, f.queueCap, req, dataSvc)
		shData.stall += qd
		if qd > shData.peakQueue {
			shData.peakQueue = qd
		}
		refBookClass(shData, cls, uint64(q.RespBytes), qd)
		if useSwitch {
			if qs := refBook(&f.switchAc, f.window, f.queueCap, req, swDataSvc); qs > qd {
				qd = qs
			}
		}
		stall += qd
		dataSent++
		data := req + qd + transitData

		done := data + q.PostCost[i]
		if done > lastDone {
			lastDone = done
		}
		if q.Unrolled {
			issue += q.Gap
			if backlog := data - transit; backlog > issue+q.FlowWindow {
				issue = backlog - q.FlowWindow
			}
		} else {
			issue = done
		}
	}
	shReq.matMsgs[q.Src] += reqSent
	shReq.matBytes[q.Src] += reqSent * uint64(q.ReqBytes)
	shData.matMsgs[q.Dst] += dataSent
	shData.matBytes[q.Dst] += dataSent * uint64(q.RespBytes)
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
	if err != nil {
		return 0, 0, err
	}
	return issue, lastDone, nil
}

// diffFabricState reports the first difference between two fabrics'
// booking state: every ring slot of every NIC account and of the
// switch, each shard's traffic column, stall, peak queue and class
// split, and the global counters.
func diffFabricState(got, want *Fabric) string {
	for d := range want.recv {
		g, w := &got.recv[d], &want.recv[d]
		if s := diffAccount(&g.acc, &w.acc); s != "" {
			return fmt.Sprintf("NIC %d: %s", d, s)
		}
		for s := range w.matMsgs {
			if g.matMsgs[s] != w.matMsgs[s] || g.matBytes[s] != w.matBytes[s] {
				return fmt.Sprintf("NIC %d traffic from %d: %d msgs %d B, want %d msgs %d B",
					d, s, g.matMsgs[s], g.matBytes[s], w.matMsgs[s], w.matBytes[s])
			}
		}
		if g.stall != w.stall || g.peakQueue != w.peakQueue || g.cls != w.cls {
			return fmt.Sprintf("NIC %d: stall %d peak %d classes %+v, want %d %d %+v",
				d, g.stall, g.peakQueue, g.cls, w.stall, w.peakQueue, w.cls)
		}
	}
	if s := diffAccount(&got.switchAc, &want.switchAc); s != "" {
		return "switch: " + s
	}
	if got.Messages() != want.Messages() || got.Bytes() != want.Bytes() ||
		got.ContentionCycles() != want.ContentionCycles() || got.Dropped() != want.Dropped() {
		return fmt.Sprintf("counters msgs %d bytes %d contention %d dropped %d, want %d %d %d %d",
			got.Messages(), got.Bytes(), got.ContentionCycles(), got.Dropped(),
			want.Messages(), want.Bytes(), want.ContentionCycles(), want.Dropped())
	}
	return ""
}

func diffAccount(g, w *account) string {
	if (g.wid == nil) != (w.wid == nil) {
		return fmt.Sprintf("allocated %v, want %v", g.wid != nil, w.wid != nil)
	}
	for i := range w.wid {
		if g.wid[i] != w.wid[i] || g.booked[i] != w.booked[i] {
			return fmt.Sprintf("slot %d: window %d booked %d, want window %d booked %d",
				i, g.wid[i], g.booked[i], w.wid[i], w.booked[i])
		}
	}
	return ""
}

// TestStreamStateMatchesReference runs seeded random sequences of send
// and fetch streams on twin fabrics, one booked by SendStream and
// FetchStream, the other by the per-packet reference loops, and after
// every stream requires the same returned clocks and error and the
// same booking state, ring slot by ring slot (diffFabricState). The
// sequences mix blocking and unrolled streams, self streams and
// fetches with Src == Dst, PreCost that changes inside a window,
// several sources into the same windows, clocks that jump past the
// ring horizon and back behind it, queues driven into the cap, and
// links that go down and up between streams.
func TestStreamStateMatchesReference(t *testing.T) {
	grouped := Grouped{N: 8, PerNode: 4}
	noSwitch := DefaultConfig()
	noSwitch.SwitchGap = 0
	switchBound := streamConfig()
	switchBound.ReceiverGap, switchBound.SwitchGap, switchBound.SwitchByteCost = 20, 60, 1
	// NIC and switch services close and bytes free: the two queues of
	// one leg cross inside a window, and a self fetch's data leg sees
	// the switch too (a flat fabric routes every message through it).
	balanced := streamConfig()
	balanced.ByteCost, balanced.HopLatency, balanced.ReceiverGap, balanced.SwitchGap = 0, 29, 37, 27
	// A queue cap longer than the ring: a fetch's data leg can land a
	// whole ring of windows after its request, in the request's slot.
	deep := balanced
	deep.CongestionWindow, deep.QueueCap = 2, 3*ringWindows
	for _, tc := range []struct {
		name string
		topo Topology
		cfg  Config
	}{
		{"small-window", FullyConnected{N: 4}, streamConfig()},
		{"switch-bound", FullyConnected{N: 4}, switchBound},
		{"balanced", FullyConnected{N: 4}, balanced},
		{"deep-queue", FullyConnected{N: 4}, deep},
		{"default", FullyConnected{N: 8}, DefaultConfig()},
		{"grouped4", grouped, DefaultConfig()},
		{"grouped4-noswitch", grouped, noSwitch},
		{"grouped4-switch-bound", grouped, switchBound},
		{"ring-message", Ring{N: 6}, MessageConfig()},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				checkStreamsAgainstReference(t, tc.topo, tc.cfg, seed)
			})
		}
	}

	// One fetch whose requests pile into one window until a data leg
	// lands a whole ring of windows later, in the requests' ring slot:
	// the data leg evicts the request window, whose later requests then
	// see a drained switch.
	t.Run("fetch-past-ring", func(t *testing.T) {
		cfg := deep
		cfg.ReceiverGap, cfg.SwitchGap = 2, 1
		got, want := MustNew(FullyConnected{N: 2}, cfg), MustNew(FullyConnected{N: 2}, cfg)
		q := Fetch{Src: 0, Dst: 1, ReqBytes: 8, RespBytes: 8, Start: 1 << 20,
			PostCost: make([]uint64, 4400), FlowWindow: 1 << 40, Unrolled: true}
		gEnd, gDone, _ := got.FetchStream(q)
		wEnd, wDone, _ := refFetchStream(want, q)
		if gEnd != wEnd || gDone != wDone {
			t.Errorf("end %d done %d, reference %d %d", gEnd, gDone, wEnd, wDone)
		}
		if d := diffFabricState(got, want); d != "" {
			t.Error(d)
		}
	})
}

func checkStreamsAgainstReference(t *testing.T, topo Topology, cfg Config, seed int64) {
	got, want := MustNew(topo, cfg), MustNew(topo, cfg)
	rng := rand.New(rand.NewSource(seed))
	nodes := topo.Nodes()
	window := got.Window()
	horizon := ringWindows * window
	clock := make([]uint64, nodes) // each source's next issue clock
	for k := range clock {
		clock[k] = uint64(rng.Intn(int(4 * window)))
	}
	costs := func(n int) []uint64 {
		c := make([]uint64, n)
		base := uint64(rng.Intn(40))
		for i := range c {
			switch r := rng.Intn(16); {
			case r == 0:
				base = uint64(rng.Intn(300)) // a new run, e.g. a DRAM stretch
			case r == 1:
				c[i] = base + 60 // a page walk inside the run
				continue
			}
			c[i] = base
		}
		return c
	}
	for step := 0; step < 300; step++ {
		src, dst := rng.Intn(nodes), rng.Intn(nodes)
		if rng.Intn(8) == 0 {
			dst = src
		}
		start := clock[src]
		switch rng.Intn(20) {
		case 0: // jump forward past the ring horizon
			start += horizon + uint64(rng.Intn(int(window)))
		case 1: // fall behind the newest bookings by more than the horizon
			if start > horizon {
				start -= horizon + uint64(rng.Intn(int(window)))
			}
		case 2, 3: // join another source's windows
			start = clock[rng.Intn(nodes)]
		}
		if rng.Intn(25) == 0 {
			a, b := rng.Intn(nodes), rng.Intn(nodes)
			up := rng.Intn(2) == 0
			got.SetLinkState(a, b, up)
			want.SetLinkState(a, b, up)
		}
		n := 1 // one-packet streams book without cursors
		if rng.Intn(6) != 0 {
			n += rng.Intn(300)
		}
		unrolled := rng.Intn(4) != 0
		gap := uint64(rng.Intn(40))
		flow := uint64(rng.Intn(16)) * gap
		if rng.Intn(6) == 0 {
			flow = 1 << 40 // no throttle: queues run into the cap
		}
		bytes := []int{0, 8, 16, 72}[rng.Intn(4)]
		var gEnd, gLast, wEnd, wLast uint64
		var gErr, wErr error
		kind := "send"
		if rng.Intn(2) == 0 {
			s := Stream{Src: src, Dst: dst, ElemBytes: bytes, Start: start, PreCost: costs(n),
				Gap: gap, FlowWindow: flow, Unrolled: unrolled}
			gEnd, gLast, gErr = got.SendStream(s)
			wEnd, wLast, wErr = refSendStream(want, s)
		} else {
			kind = "fetch"
			q := Fetch{Src: src, Dst: dst, ReqBytes: []int{8, 72}[rng.Intn(2)], RespBytes: bytes, Start: start,
				ReqCost: uint64(rng.Intn(3)), PostCost: costs(n),
				Gap: gap, FlowWindow: flow, Unrolled: unrolled}
			gEnd, gLast, gErr = got.FetchStream(q)
			wEnd, wLast, wErr = refFetchStream(want, q)
		}
		if gEnd != wEnd || gLast != wLast || fmt.Sprint(gErr) != fmt.Sprint(wErr) {
			t.Fatalf("step %d %s %d->%d n=%d: end %d last %d err %v, reference %d %d %v",
				step, kind, src, dst, n, gEnd, gLast, gErr, wEnd, wLast, wErr)
		}
		if d := diffFabricState(got, want); d != "" {
			t.Fatalf("step %d %s %d->%d n=%d unrolled=%v: %s", step, kind, src, dst, n, unrolled, d)
		}
		if wErr == nil {
			clock[src] = max(wEnd, wLast-wLast%window)
		}
	}
}
