package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xbgas/internal/obs"
)

// Config parameterises the network cost model. Times are in core cycles
// (the simulation's nominal clock is 1 GHz, so 1 cycle = 1 ns).
type Config struct {
	// InjectionOverhead is the fixed per-message software+NIC latency on
	// the sender, counted in every message's transit time. xBGAS remote
	// accesses issue "directly from the user-space" avoiding kernel
	// involvement (paper §3.1), so this is small; message-passing
	// baselines configure it much larger.
	InjectionOverhead uint64
	// IssueGap is the sender-side occupancy per message in a pipelined
	// (unrolled or non-blocking) element stream: a core can start a new
	// remote element operation at most once per IssueGap cycles. It is
	// the throughput counterpart of InjectionOverhead's latency.
	IssueGap uint64
	// HopLatency is the per-hop propagation cost (α term).
	HopLatency uint64
	// ByteCost is the per-byte serialisation cost (β term), in cycles
	// per byte.
	ByteCost uint64
	// ReceiverGap is the per-message service time at the receiving
	// NIC/memory port; concurrent senders to one node queue behind it.
	ReceiverGap uint64
	// SwitchGap is the per-message service time of the shared central
	// switch every message crosses. Aggregate traffic grows with the
	// PE count, so this is the resource whose saturation produces the
	// scaling knee at higher PE counts. Zero disables the switch model.
	SwitchGap uint64
	// SwitchByteCost is the per-byte component of switch service.
	SwitchByteCost uint64
	// CongestionWindow is the width, in cycles, of the occupancy
	// windows used by the contention model. Messages whose timestamps
	// fall in the same window queue behind each other's service time;
	// the windowed booking is insensitive to the real-time order in
	// which the per-PE goroutines issue their sends. Zero selects the
	// default.
	CongestionWindow uint64
	// QueueCap bounds the queueing delay of a single message to this
	// many windows (an overloaded resource drops to its service rate
	// rather than building unbounded backlog). Zero selects the
	// default.
	QueueCap uint64
	// IntraHopLatency overrides HopLatency on intra-node hops of a
	// Classed topology (Grouped, Dragonfly): PEs sharing a node talk
	// over the on-node fabric, not the network. Zero keeps HopLatency.
	// Inert on single-class topologies.
	IntraHopLatency uint64
	// IntraByteCost overrides ByteCost on intra-node hops of a Classed
	// topology. Zero keeps ByteCost.
	IntraByteCost uint64
	// InterByteCost overrides ByteCost on inter-node hops of a Classed
	// topology (the network link is narrower than the on-node fabric).
	// Zero keeps ByteCost.
	InterByteCost uint64
}

const (
	defaultWindow   = 2048
	defaultQueueCap = 4
)

// DefaultConfig returns the xBGAS-style cost model used in the
// evaluation: cheap user-space injection, single-switch latency,
// 1 byte/cycle links, DMA-speed receiver service. On grouped (Classed)
// topologies the intra-node overrides make the on-node fabric ~5×
// lower-latency and 4× wider than the inter-node network
// (intra α = 60+40 = 100 vs inter α = 60+2·250 = 560 cycles); on flat
// topologies they are inert.
func DefaultConfig() Config {
	return Config{
		InjectionOverhead: 60,
		IssueGap:          20,
		HopLatency:        250,
		ByteCost:          1,
		ReceiverGap:       8,
		SwitchGap:         15,
		SwitchByteCost:    0,
		IntraHopLatency:   40,
		IntraByteCost:     1,
		InterByteCost:     4,
	}
}

// MessageConfig returns a cost model representative of a two-sided
// message-passing transport: heavy injection (socket setup, handshakes,
// system calls — paper §3.1) and receiver-side matching costs.
func MessageConfig() Config {
	return Config{
		InjectionOverhead: 1500,
		IssueGap:          400,
		HopLatency:        250,
		ByteCost:          1,
		ReceiverGap:       400,
		SwitchGap:         15,
		SwitchByteCost:    0,
		IntraHopLatency:   40,
		IntraByteCost:     1,
		InterByteCost:     4,
	}
}

// shard is the independently locked booking state of one destination
// NIC. Sharding receivers (rather than one fabric-wide mutex) lets
// streams to different destinations book concurrently; only traffic
// that would physically contend serialises on the same lock.
type shard struct {
	mu  sync.Mutex
	acc account
	// Per-source traffic counters into this destination (the shard's
	// column of the traffic matrix), owned by the shard lock and
	// allocated on the first message in (shard.ensure).
	matMsgs  []uint64
	matBytes []uint64
	// NIC-side contention seen by messages into this destination:
	// cumulative queueing delay and the worst single-message queue
	// depth, both in cycles and excluding the shared switch's share
	// (which is not attributable to one link). Owned by the shard lock.
	stall     uint64
	peakQueue uint64
	// Per-link-class split of the same traffic (classIntra/classInter).
	// On flat topologies every link is a network link and books as
	// inter. Owned by the shard lock.
	cls [2]classCounters
}

// classCounters is one link class's share of a NIC's traffic and
// NIC-side contention.
type classCounters struct {
	msgs, bytes, stall, peak uint64
}

// Link-class indices for the per-shard and per-metrics splits. They
// mirror ClassIntra/ClassInter but are plain array indices so flat
// (classless) fabrics can book too.
const (
	classIntra = 0
	classInter = 1
)

// classIdx maps the src→dst link to its counter index. Flat fabrics
// have no on-node links, so everything is inter-node network traffic.
func (f *Fabric) classIdx(src, dst int) int {
	if f.intraLink(src, dst) {
		return classIntra
	}
	return classInter
}

// ensure allocates the shard's booking ring and traffic column on first
// use. Callers must hold the shard lock.
func (sh *shard) ensure(n int) {
	if sh.matMsgs == nil {
		sh.acc.init()
		sh.matMsgs = make([]uint64, n)
		sh.matBytes = make([]uint64, n)
	}
}

// fold adds msgs messages of msgBytes each from src into the shard's
// traffic column and its NIC-side contention: stall is their summed
// queueing delay and peak the largest single one. A stream folds once,
// after its last booking. Callers must hold the shard lock.
func (sh *shard) fold(src, cls int, msgs, msgBytes, stall, peak uint64) {
	sh.matMsgs[src] += msgs
	sh.matBytes[src] += msgs * msgBytes
	sh.stall += stall
	sh.peakQueue = max(sh.peakQueue, peak)
	c := &sh.cls[cls]
	c.msgs += msgs
	c.bytes += msgs * msgBytes
	c.stall += stall
	c.peak = max(c.peak, peak)
}

// sampleCounters emits one point on each of the NIC's counter tracks
// after a booking: the queueing delay the message saw and the
// cumulative per-class stall and load. Callers must hold the shard
// lock (the cumulative values read coherently) and have checked
// f.obs != nil.
func (f *Fabric) sampleCounters(dst int, now, queue uint64, sh *shard) {
	fc := f.obs.FabricCounters(dst)
	if fc == nil {
		return
	}
	fc.Queue.Sample(now, float64(queue), 0)
	fc.Stall.Sample(now, float64(sh.cls[classIntra].stall), float64(sh.cls[classInter].stall))
	fc.Load.Sample(now, float64(sh.cls[classIntra].bytes), float64(sh.cls[classInter].bytes))
}

// Fabric is a contention-aware network shared by all simulated nodes.
// It is safe for concurrent use by per-PE goroutines.
//
// Contention uses windowed booking: virtual time is divided into
// fixed-width windows, and every message books its service time at its
// destination (and at the shared switch) in the window of its send
// timestamp. A message's queueing delay is the service already booked
// in that window, capped at QueueCap windows. Because booking keys on
// virtual timestamps, PEs whose virtual clocks have drifted apart do
// not falsely contend, and the model is insensitive (up to window
// granularity) to the real-time order in which goroutines issue sends.
//
// Booking state is sharded: each destination NIC has its own lock and
// window-slot ring, and the shared switch has a separately locked
// account. Send and one-packet streams book through the ring directly;
// longer SendStream and FetchStream calls hold each account's current
// window in a cursor for the length of the stream and book each linear
// run of packets in closed form (stream.go). Global statistics are atomic counters. See
// docs/PERF.md for the hot-path design.
type Fabric struct {
	cfg      Config
	topo     Topology
	classed  Classed // non-nil when topo distinguishes link classes
	window   uint64
	queueCap uint64

	recv     []shard // one per destination node
	switchMu sync.Mutex
	switchAc account

	// downLinks holds the directed links taken down for fault
	// injection. It is copy-on-write: the hot path pays one atomic
	// load, and nil means "all links up".
	downLinks atomic.Pointer[map[[2]int]bool]

	// obs, when non-nil, receives stream-booking events on per-NIC
	// timeline tracks and fabric-level stream metrics. Set before the
	// simulation starts; hot paths pay a single nil test when unset.
	obs *obs.Run

	messages atomic.Uint64
	bytes    atomic.Uint64
	stallCyc atomic.Uint64 // cycles lost to queueing
	dropped  atomic.Uint64 // sends refused on down links
}

// New builds a fabric over the given topology.
func New(topo Topology, cfg Config) (*Fabric, error) {
	if topo == nil || topo.Nodes() <= 0 {
		return nil, fmt.Errorf("fabric: topology with no nodes")
	}
	window := cfg.CongestionWindow
	if window == 0 {
		window = defaultWindow
	}
	qcap := cfg.QueueCap
	if qcap == 0 {
		qcap = defaultQueueCap
	}
	n := topo.Nodes()
	f := &Fabric{
		cfg:      cfg,
		topo:     topo,
		window:   window,
		queueCap: qcap,
		recv:     make([]shard, n),
	}
	f.classed, _ = topo.(Classed)
	// Shard booking rings and traffic-matrix columns are allocated
	// lazily on first use (shard.ensure): a 4096-PE fabric would
	// otherwise pay ~0.5 GiB up front even for runs that touch a
	// handful of NICs. Only the shared switch account is eager.
	f.switchAc.init()
	return f, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(topo Topology, cfg Config) *Fabric {
	f, err := New(topo, cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Topology returns the fabric's topology.
func (f *Fabric) Topology() Topology { return f.topo }

// Config returns the fabric's cost model.
func (f *Fabric) Config() Config { return f.cfg }

// Window returns the width of the congestion windows, in cycles.
// Bookings in different windows never interact, so a caller that
// replays schedules on one fabric starts each at a fresh window
// boundary instead of calling Reset.
func (f *Fabric) Window() uint64 { return f.window }

// TransitCost returns the uncontended cost of moving n bytes from src to
// dst: injection + hops·α + n·β. On a Classed topology the hop and byte
// coefficients come from the link class (intra-node traffic rides the
// on-node fabric). A self-send costs only the injection overhead (the
// paper's runtime turns PE-local "remote" accesses into plain loads and
// stores, but collectives never self-send anyway).
func (f *Fabric) TransitCost(src, dst int, n int) uint64 {
	if n < 0 {
		n = 0
	}
	hops := uint64(f.topo.Hops(src, dst))
	hop := f.cfg.HopLatency
	if f.classed != nil && src != dst && f.cfg.IntraHopLatency > 0 &&
		f.classed.Class(src, dst) == ClassIntra {
		hop = f.cfg.IntraHopLatency
	}
	return f.cfg.InjectionOverhead + hops*hop + uint64(n)*f.classByteCost(src, dst)
}

// classByteCost returns the per-byte serialisation cost of the src→dst
// link: the flat ByteCost, or the class override on a Classed topology.
func (f *Fabric) classByteCost(src, dst int) uint64 {
	bc := f.cfg.ByteCost
	if f.classed != nil && src != dst {
		if f.classed.Class(src, dst) == ClassIntra {
			if f.cfg.IntraByteCost > 0 {
				bc = f.cfg.IntraByteCost
			}
		} else if f.cfg.InterByteCost > 0 {
			bc = f.cfg.InterByteCost
		}
	}
	return bc
}

// intraLink reports whether src→dst stays on one physical node of a
// Classed topology. Intra-node traffic never crosses the shared switch.
func (f *Fabric) intraLink(src, dst int) bool {
	return f.classed != nil && (src == dst || f.classed.Class(src, dst) == ClassIntra)
}

// linkDown reports whether the directed link src→dst is down.
func (f *Fabric) linkDown(src, dst int) bool {
	m := f.downLinks.Load()
	return m != nil && (*m)[[2]int{src, dst}]
}

// checkPair validates a src/dst pair against the topology.
func (f *Fabric) checkPair(src, dst int) error {
	if src < 0 || src >= f.topo.Nodes() || dst < 0 || dst >= f.topo.Nodes() {
		return fmt.Errorf("fabric: send %d->%d outside topology of %d nodes",
			src, dst, f.topo.Nodes())
	}
	return nil
}

// recvService returns the receiver-side service time of an n-byte
// message over the src→dst link. The per-byte share rides the link's
// class: a pipelined stream into a node across the narrow inter-node
// network drains at that link's serialisation rate, so the class byte
// cost — not just the transit latency — must gate stream throughput.
func (f *Fabric) recvService(src, dst, n int) uint64 {
	return f.cfg.ReceiverGap + uint64(n)*f.classByteCost(src, dst)
}

// switchService returns the shared-switch service time of an n-byte
// message.
func (f *Fabric) switchService(n int) uint64 {
	return f.cfg.SwitchGap + uint64(n)*f.cfg.SwitchByteCost
}

// Send models a message of n bytes leaving src at time now and returns
// the cycle at which it is fully received at dst. Messages sharing a
// congestion window queue behind each other at the destination NIC and
// at the shared switch; the resulting delay is recorded in
// ContentionCycles.
//
// Send is the single-message form; pipelined element streams should use
// SendStream or FetchStream, which book a whole stream per critical
// section.
func (f *Fabric) Send(src, dst int, n int, now uint64) (arrive uint64, err error) {
	if err := f.checkPair(src, dst); err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("fabric: negative message size %d", n)
	}
	if f.linkDown(src, dst) {
		f.dropped.Add(1)
		return 0, fmt.Errorf("fabric: link %d->%d is down", src, dst)
	}
	transit := f.TransitCost(src, dst, n)
	cls := f.classIdx(src, dst)

	sh := &f.recv[dst]
	sh.mu.Lock()
	sh.ensure(len(f.recv))
	queue := sh.acc.book(f.window, f.queueCap, now, f.recvService(src, dst, n))
	sh.fold(src, cls, 1, uint64(n), queue, queue)
	nicQueue := queue
	if f.obs != nil {
		f.sampleCounters(dst, now, queue, sh)
	}
	sh.mu.Unlock()

	if f.cfg.SwitchGap > 0 && cls == classInter {
		f.switchMu.Lock()
		if qs := f.switchAc.book(f.window, f.queueCap, now, f.switchService(n)); qs > queue {
			queue = qs
		}
		f.switchMu.Unlock()
	}

	f.stallCyc.Add(queue)
	f.messages.Add(1)
	f.bytes.Add(uint64(n))
	if f.obs != nil {
		f.obs.FabricMetrics().AddStall(queue)
		f.obs.FabricMetrics().AddClass(cls, 1, uint64(n), nicQueue)
	}
	return now + queue + transit, nil
}

// SendAfter is Send for ordered-channel control messages: the message
// leaves src at now but is not delivered before notBefore. Completion
// flags use it so a flag store trailing its payload on the same path
// cannot overtake the data it signals; the booking is otherwise
// identical to Send.
func (f *Fabric) SendAfter(src, dst int, n int, now, notBefore uint64) (arrive uint64, err error) {
	arrive, err = f.Send(src, dst, n, now)
	if err != nil {
		return 0, err
	}
	if arrive < notBefore {
		arrive = notBefore
	}
	return arrive, nil
}

// SetLinkState marks the directed link src→dst up or down. Sends over
// a down link fail — the fault-injection hook used to test that
// runtime and collective error paths propagate cleanly instead of
// deadlocking. A change takes effect at the next Send, SendStream or
// FetchStream: a stream reads the link state once, under the shard
// lock it holds throughout, so a stream already booking finishes (or
// fails) on the state it started with.
func (f *Fabric) SetLinkState(src, dst int, up bool) {
	for {
		old := f.downLinks.Load()
		next := make(map[[2]int]bool)
		if old != nil {
			for k, v := range *old {
				next[k] = v
			}
		}
		if up {
			delete(next, [2]int{src, dst})
		} else {
			next[[2]int{src, dst}] = true
		}
		var p *map[[2]int]bool
		if len(next) > 0 {
			p = &next
		}
		if f.downLinks.CompareAndSwap(old, p) {
			return
		}
	}
}

// Dropped returns the number of sends refused because the link was
// down.
func (f *Fabric) Dropped() uint64 { return f.dropped.Load() }

// Messages returns the number of messages sent.
func (f *Fabric) Messages() uint64 { return f.messages.Load() }

// Bytes returns the total payload bytes sent.
func (f *Fabric) Bytes() uint64 { return f.bytes.Load() }

// ContentionCycles returns the cumulative queueing delay experienced at
// busy receivers and the shared switch.
func (f *Fabric) ContentionCycles() uint64 { return f.stallCyc.Load() }

// Traffic returns the per-directed-pair message and byte counts:
// msgs[src][dst] and bytes[src][dst].
func (f *Fabric) Traffic() (msgs, bytes [][]uint64) {
	n := f.topo.Nodes()
	msgs = make([][]uint64, n)
	bytes = make([][]uint64, n)
	for s := 0; s < n; s++ {
		msgs[s] = make([]uint64, n)
		bytes[s] = make([]uint64, n)
	}
	for d := 0; d < n; d++ {
		sh := &f.recv[d]
		sh.mu.Lock()
		for s := 0; s < n && sh.matMsgs != nil; s++ {
			msgs[s][d] = sh.matMsgs[s]
			bytes[s][d] = sh.matBytes[s]
		}
		sh.mu.Unlock()
	}
	return msgs, bytes
}

// Reset clears occupancy and statistics, for reuse between benchmark
// repetitions. Shards never touched stay unallocated.
func (f *Fabric) Reset() {
	for d := range f.recv {
		sh := &f.recv[d]
		sh.mu.Lock()
		if sh.matMsgs != nil {
			sh.acc.init()
			for s := range sh.matMsgs {
				sh.matMsgs[s], sh.matBytes[s] = 0, 0
			}
		}
		sh.stall, sh.peakQueue = 0, 0
		sh.cls = [2]classCounters{}
		sh.mu.Unlock()
	}
	f.switchMu.Lock()
	f.switchAc.init()
	f.switchMu.Unlock()
	f.messages.Store(0)
	f.bytes.Store(0)
	f.stallCyc.Store(0)
	f.dropped.Store(0)
}
