package xbrtime

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"xbgas/internal/fabric"
	"xbgas/internal/mem"
	"xbgas/internal/obs"
	"xbgas/internal/sim"
)

// Memory-map constants shared by every simulated node. Programs loaded
// by the Spike transport live below StackTop; the private and shared
// segments sit above it (Figure 2 of the paper: each PE has a private
// segment and a symmetric shared segment).
const (
	// PrivateBase is the start of the per-PE private data segment.
	PrivateBase uint64 = 0x0050_0000
	// DefaultPrivateSize is the default private segment size.
	DefaultPrivateSize uint64 = 8 << 20
	// SharedBase is the start of the symmetric shared segment. The
	// offset of an allocation from SharedBase is identical on all PEs.
	SharedBase uint64 = 0x0100_0000
	// DefaultSharedSize is the default symmetric segment size.
	DefaultSharedSize uint64 = 48 << 20
	// ClockHz is the nominal core clock used to convert cycles to
	// seconds in reports (1 GHz: 1 cycle = 1 ns).
	ClockHz = 1_000_000_000
)

// DefaultUnrollThreshold is the nelems threshold at or above which the
// put/get inner loops switch to the unrolled (pipelined) form, per the
// implementation note in paper §3.3.
const DefaultUnrollThreshold = 8

// DefaultInflightDepth is the default flow-control window for pipelined
// element transfers (see Config.InflightDepth).
const DefaultInflightDepth = 16

// Transport selects how put/get move bytes.
type Transport uint8

// Transports.
const (
	// TransportNative performs transfers directly in Go with the cycle
	// cost model. It is the default and the fast path for benchmarks.
	TransportNative Transport = iota
	// TransportSpike generates the xBGAS instruction sequence for every
	// transfer and executes it on an internal/sim core, exercising the
	// full ISA path (decode, OLB, e-registers).
	TransportSpike
)

// Config parameterises a runtime instance.
type Config struct {
	// NumPEs is the number of processing elements. Required.
	NumPEs int
	// SharedSize overrides the symmetric segment size (0 = default).
	SharedSize uint64
	// PrivateSize overrides the private segment size (0 = default).
	PrivateSize uint64
	// Mem overrides the per-node memory geometry (zero value = paper
	// defaults: 256-entry TLB, 16KB/8-way L1, 8MB/8-way L2).
	Mem mem.Config
	// Topology overrides the network topology (nil = fully connected).
	Topology fabric.Topology
	// TopoSpec names a topology by spec string ("torus:32x32",
	// "grouped:8x16", ...; see fabric.ParseTopo) and is resolved against
	// NumPEs when Topology is nil. The CLI -topo flags feed through
	// here.
	TopoSpec string
	// Fabric overrides the network cost model (zero value = xBGAS
	// defaults).
	Fabric fabric.Config
	// UnrollThreshold overrides the put/get unrolling threshold
	// (0 = DefaultUnrollThreshold).
	UnrollThreshold int
	// InflightDepth is the flow-control window of pipelined element
	// transfers: at most this many remote element operations may be in
	// flight per transfer stream before the issuing core throttles to
	// the network's drain rate (0 = DefaultInflightDepth).
	InflightDepth int
	// Transport selects the transfer engine.
	Transport Transport
	// OLBEntries overrides the per-node OLB translation-cache size
	// (0 = olb.DefaultEntries).
	OLBEntries int
	// Barrier selects the world-barrier algorithm (default: the
	// paper's simple centralised barrier).
	Barrier BarrierAlgorithm
	// SpikeRawClass makes the Spike transport generate raw-class
	// remote accesses (erld/ersd with an explicit extended register)
	// instead of the default base-class forms (eld/esd through the
	// paired register) — the two addressing classes of paper §3.2.
	SpikeRawClass bool
	// Deterministic runs PEs in lockstep: a single execution token is
	// handed to the runnable PE with the smallest virtual clock
	// (ties to the lowest rank), and PEs yield it at communication
	// points. Cycle totals become exactly reproducible across runs and
	// GOMAXPROCS settings, at the cost of serialising the host
	// execution. Free-running mode (the default) is faster and agrees
	// with lockstep up to contention-window granularity.
	Deterministic bool
	// Obs attaches an observability recorder (internal/obs): spans for
	// every collective call, tree round, transfer, and fabric stream
	// booking, plus counters and latency histograms, all keyed to the
	// virtual clock. Nil (the default) disables observability; the
	// disabled hot paths cost one nil test and zero allocations (see
	// the overhead-guard tests).
	Obs *obs.Recorder
}

func (c *Config) fillDefaults() {
	if c.SharedSize == 0 {
		c.SharedSize = DefaultSharedSize
	}
	if c.PrivateSize == 0 {
		c.PrivateSize = DefaultPrivateSize
	}
	if c.Mem == (mem.Config{}) {
		c.Mem = mem.DefaultConfig()
	}
	if c.Fabric == (fabric.Config{}) {
		c.Fabric = fabric.DefaultConfig()
	}
	if c.Topology == nil {
		c.Topology = fabric.FullyConnected{N: c.NumPEs}
	}
	if c.UnrollThreshold == 0 {
		c.UnrollThreshold = DefaultUnrollThreshold
	}
	if c.InflightDepth == 0 {
		c.InflightDepth = DefaultInflightDepth
	}
}

// Runtime is one initialised xBGAS runtime environment: the Go analogue
// of the state between xbrtime_init() and xbrtime_close().
type Runtime struct {
	cfg     Config
	machine *sim.Machine
	timing  *Timing // clock arithmetic of the remote primitives on machine.Fabric
	pes     []*PE
	barrier *barrierState
	dissem  *rendezvous[dissemKey]
	flags   *rendezvous[flagKey]
	sched   *lockstep // the Deterministic scheduler, nil otherwise
	ls      *lockstep // sched while a Run is active, so PE calls outside Run run free
	obsRun  *obs.Run  // non-nil when cfg.Obs is set

	barriersMu sync.Mutex
	barriers   []*barrierState // barrier and every team's, for breakAll
}

// New initialises a runtime with cfg.NumPEs processing elements.
func New(cfg Config) (*Runtime, error) {
	if cfg.NumPEs <= 0 {
		return nil, fmt.Errorf("xbrtime: NumPEs must be positive, got %d", cfg.NumPEs)
	}
	if cfg.Topology == nil && cfg.TopoSpec != "" {
		topo, err := fabric.ParseTopo(cfg.TopoSpec, cfg.NumPEs)
		if err != nil {
			return nil, fmt.Errorf("xbrtime: %w", err)
		}
		cfg.Topology = topo
	}
	cfg.fillDefaults()
	m, err := sim.NewMachine(sim.Config{
		Nodes:    cfg.NumPEs,
		Mem:      cfg.Mem,
		Topology: cfg.Topology,
		Fabric:   cfg.Fabric,
		OLBSize:  cfg.OLBEntries,
	})
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		cfg:     cfg,
		machine: m,
		timing:  NewTiming(m.Fabric, cfg.InflightDepth, cfg.UnrollThreshold),
		barrier: newBarrierState(cfg.NumPEs),
		dissem:  newRendezvous[dissemKey](cfg.NumPEs),
		flags:   newRendezvous[flagKey](cfg.NumPEs),
	}
	rt.barriers = []*barrierState{rt.barrier}
	if cfg.Deterministic && cfg.Transport == TransportNative {
		rt.sched = newLockstep(cfg.NumPEs)
	}
	if cfg.Obs != nil {
		rt.obsRun = cfg.Obs.Attach(fmt.Sprintf("%d PEs", cfg.NumPEs), cfg.NumPEs)
		rt.obsRun.SetMeta(obs.RunMeta{
			PEs:           cfg.NumPEs,
			Topo:          topoName(cfg.TopoSpec, cfg.Topology),
			Deterministic: cfg.Deterministic,
		})
		m.SetObs(rt.obsRun)
	}
	for rank := 0; rank < cfg.NumPEs; rank++ {
		rt.pes = append(rt.pes, &PE{
			rt:         rt,
			rank:       rank,
			node:       m.Nodes[rank],
			shared:     newHeap(SharedBase, cfg.SharedSize),
			privBrk:    PrivateBase,
			track:      rt.obsRun.PETrack(rank),
			met:        rt.obsRun.PEMetrics(rank),
			slog:       rt.obsRun.StepLog(rank),
			lastWaitBy: -1,
		})
	}
	return rt, nil
}

// topoName returns the run-metadata topology string: the user's -topo
// spec when one was given (it round-trips through fabric.ParseTopo, so
// analyzers can rebuild the shape), otherwise the topology's display
// name.
func topoName(spec string, topo fabric.Topology) string {
	if spec != "" {
		return spec
	}
	if topo != nil {
		return topo.Name()
	}
	return "flat"
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Runtime {
	rt, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return rt
}

// Close releases the runtime. It exists for symmetry with
// xbrtime_close(); the Go implementation holds no external resources.
func (rt *Runtime) Close() {}

// NumPEs returns the number of processing elements.
func (rt *Runtime) NumPEs() int { return rt.cfg.NumPEs }

// PE returns the processing element with the given rank, for drivers
// that orchestrate PEs manually instead of via Run.
func (rt *Runtime) PE(rank int) *PE { return rt.pes[rank] }

// Machine exposes the underlying simulated cluster (for statistics).
func (rt *Runtime) Machine() *sim.Machine { return rt.machine }

// Observability returns the runtime's attached observability run, or
// nil when Config.Obs was not set.
func (rt *Runtime) Observability() *obs.Run { return rt.obsRun }

// Config returns the effective configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// MaxClock returns the largest per-PE virtual clock: the simulated
// makespan of the work executed so far.
func (rt *Runtime) MaxClock() uint64 {
	var max uint64
	for _, pe := range rt.pes {
		if c := pe.Now(); c > max {
			max = c
		}
	}
	return max
}

// Run executes fn once per PE, each on its own goroutine (the SPMD
// model), and returns after all PEs finish. A PE returning an error
// while others sit in a barrier or flag wait would deadlock them, so
// Run then breaks every barrier and flag wait, releasing the
// survivors with ErrBarrierBroken / ErrWaitBroken; it returns the
// lowest-ranked error that is not such a release. In lockstep mode a
// program in which every live PE sleeps on something nobody will signal
// is released the same way and Run returns an ErrStalled diagnosis.
func (rt *Runtime) Run(fn func(pe *PE) error) error {
	var wg sync.WaitGroup
	var stallErr error
	if rt.sched != nil {
		rt.sched.reset(rt.pes, func() {
			// Called by the PE goroutine that found the stall, holding
			// no lock; wg still counts it.
			stallErr = rt.diagnoseStall()
			rt.breakAll()
		})
		rt.ls = rt.sched
		defer func() { rt.ls = nil }()
	}
	errs := make([]error, rt.cfg.NumPEs)
	for _, pe := range rt.pes {
		wg.Add(1)
		go func(p *PE) {
			defer wg.Done()
			if ls := rt.ls; ls != nil {
				ls.start(p.rank)
				defer ls.done(p.rank)
			}
			if err := fn(p); err != nil {
				errs[p.rank] = err
				rt.breakAll()
			}
		}(pe)
	}
	wg.Wait()
	if stallErr != nil {
		return stallErr
	}
	var released error
	for _, err := range errs {
		switch {
		case err == nil:
		case !errors.Is(err, ErrBarrierBroken) && !errors.Is(err, ErrWaitBroken):
			return err
		case released == nil:
			released = err
		}
	}
	return released
}

// breakAll releases every PE asleep in a barrier or flag wait, and
// makes every later wait fail, so survivors of a failure unwind.
func (rt *Runtime) breakAll() {
	if rt.sched != nil {
		// First: a sleeper that sees a broken structure must find the
		// scheduler already expecting it to re-queue itself.
		rt.sched.markBroken()
	}
	rt.barriersMu.Lock()
	for _, b := range rt.barriers {
		b.breakBarrier()
	}
	rt.barriersMu.Unlock()
	rt.dissem.breakAll()
	rt.flags.breakAll()
}

// PE is one processing element's runtime context. All methods must be
// called from the PE's own goroutine (the function passed to Run).
type PE struct {
	rt   *Runtime
	rank int
	node *sim.Node

	clock uint64 // virtual time, cycles

	shared      *heap
	privBrk     uint64
	scratchAddr uint64
	scratchLen  uint64
	dissemEpoch uint64
	commTrace   func(TraceEvent)

	// Observability hooks (internal/obs): both nil unless Config.Obs
	// was set, in which case track records timeline spans and met
	// maintains counters and latency histograms. Every hot-path use is
	// behind a nil test so the disabled path stays allocation-free.
	track *obs.Track
	met   *obs.PEMetrics
	slog  *obs.StepLog // per-PE step log for critical-path extraction

	// lastWaitBy is the rank whose action released this PE's most
	// recent barrier or flag wait (-1 when unknown): the causal edge
	// the critical-path extractor follows across PEs.
	lastWaitBy int

	spike *spikeEngine // lazily built for TransportSpike

	// Reusable host-side workspaces for the batched transfer path and
	// the collectives. They grow monotonically and are never returned
	// to the garbage collector, so steady-state put/get streams and
	// collective calls allocate nothing per call.
	costBuf    []uint64
	elemBuf    []uint64
	byteBuf    []byte
	intPool    [][]int
	handlePool [][]Handle

	// Workspace pool balance: borrows minus returns. Zero whenever no
	// collective is mid-flight; the pool-leak tests assert on it.
	intsOut, handlesOut int

	// planners tallies plan executions by "collective/algorithm" label
	// (core.Execute calls NotePlanner); StatsReport aggregates the
	// per-PE maps.
	planners map[string]uint64

	// Traffic statistics.
	puts, gets         uint64
	putElems, getElems uint64
	barriers           uint64
}

// costs returns the PE's reusable cost workspace, sized to n.
func (pe *PE) costs(n int) []uint64 {
	if cap(pe.costBuf) < n {
		pe.costBuf = make([]uint64, n)
	}
	return pe.costBuf[:n]
}

// elems returns the PE's reusable element workspace, sized to n.
func (pe *PE) elems(n int) []uint64 {
	if cap(pe.elemBuf) < n {
		pe.elemBuf = make([]uint64, n)
	}
	return pe.elemBuf[:n]
}

// bytes returns the PE's reusable byte workspace (the remote transfers'
// staging block), sized to n > 0. It grows to the next power of two, so
// transfers of rising sizes reallocate it a few times, not once each.
func (pe *PE) bytes(n int) []byte {
	if cap(pe.byteBuf) < n {
		pe.byteBuf = make([]byte, 1<<bits.Len(uint(n-1)))
	}
	return pe.byteBuf[:n]
}

// BorrowInts returns a zeroed []int of length n from the PE's host
// workspace pool. Collectives use it for displacement and count
// vectors so steady-state calls allocate nothing; pair each borrow
// with ReturnInts. Like every PE method it must only be called from
// the PE's own goroutine.
func (pe *PE) BorrowInts(n int) []int {
	pe.intsOut++
	if k := len(pe.intPool); k > 0 {
		s := pe.intPool[k-1]
		pe.intPool = pe.intPool[:k-1]
		if cap(s) < n {
			return make([]int, n)
		}
		s = s[:n]
		for i := range s {
			s[i] = 0
		}
		return s
	}
	return make([]int, n)
}

// ReturnInts gives a slice from BorrowInts back to the pool.
func (pe *PE) ReturnInts(s []int) {
	pe.intsOut--
	pe.intPool = append(pe.intPool, s)
}

// BorrowHandles returns an empty Handle slice with capacity ≥ n from
// the PE's workspace pool; pair with ReturnHandles.
func (pe *PE) BorrowHandles(n int) []Handle {
	pe.handlesOut++
	if k := len(pe.handlePool); k > 0 {
		s := pe.handlePool[k-1]
		pe.handlePool = pe.handlePool[:k-1]
		if cap(s) < n {
			return make([]Handle, 0, n)
		}
		return s[:0]
	}
	return make([]Handle, 0, n)
}

// ReturnHandles gives a slice from BorrowHandles back to the pool.
func (pe *PE) ReturnHandles(s []Handle) {
	pe.handlesOut--
	pe.handlePool = append(pe.handlePool, s)
}

// WorkspaceOutstanding reports the PE's workspace pool imbalance:
// borrows minus returns for the int pool (first value) and the handle
// pool (second). Both are zero whenever no collective is mid-flight;
// tests assert on it to catch leaked borrows (success and error paths
// alike).
func (pe *PE) WorkspaceOutstanding() (ints, handles int) {
	return pe.intsOut, pe.handlesOut
}

// NotePlanner tallies one collective plan execution under its
// "collective/algorithm" label; StatsReport aggregates the counts. The
// map is keyed by the plan's interned label, so steady-state calls
// allocate nothing.
func (pe *PE) NotePlanner(label string) {
	if pe.planners == nil {
		pe.planners = make(map[string]uint64, 8)
	}
	pe.planners[label]++
}

// MyPE returns the PE's rank: xbrtime_mype().
func (pe *PE) MyPE() int { return pe.rank }

// NumPEs returns the number of PEs: xbrtime_num_pes().
func (pe *PE) NumPEs() int { return pe.rt.cfg.NumPEs }

// PEsPerNode returns the fabric topology's node grouping — how many
// consecutive PE ranks share a node — or 1 when the topology has no
// node structure. The collective planners use it to split schedules
// into intra-node and inter-node phases.
func (pe *PE) PEsPerNode() int {
	if g, ok := pe.rt.machine.Fabric.Topology().(fabric.NodeGrouper); ok {
		return g.PEsPerNode()
	}
	return 1
}

// Runtime returns the owning runtime.
func (pe *PE) Runtime() *Runtime { return pe.rt }

// Now returns the PE's virtual clock in cycles.
func (pe *PE) Now() uint64 { return pe.clock }

// Advance adds compute cycles to the PE's clock. Workloads use it to
// model local computation between communication calls.
func (pe *PE) Advance(cycles uint64) { pe.clock += cycles }

// advanceTo moves the clock forward to t (never backward).
func (pe *PE) advanceTo(t uint64) {
	if t > pe.clock {
		pe.clock = t
	}
}

// Malloc allocates n bytes from the symmetric shared segment and
// returns its address: xbrtime_malloc(). Every PE must call Malloc in
// the same sequence (the SHMEM symmetric-allocation contract); the
// returned address is then valid on every PE and names the peer copy.
func (pe *PE) Malloc(n uint64) (uint64, error) {
	addr, err := pe.shared.alloc(n)
	if err != nil {
		return 0, err
	}
	// A handful of cycles for the allocator itself.
	pe.Advance(MallocCycles)
	return addr, nil
}

// Free releases a symmetric allocation: xbrtime_free().
func (pe *PE) Free(addr uint64) error {
	pe.Advance(FreeCycles)
	return pe.shared.release(addr)
}

// PrivateAlloc reserves n bytes of PE-private memory (a bump
// allocator; private memory is never freed, matching static/stack data
// in the C runtime's examples).
func (pe *PE) PrivateAlloc(n uint64) (uint64, error) {
	n = alignUp(n)
	if pe.privBrk+n > PrivateBase+pe.rt.cfg.PrivateSize {
		return 0, fmt.Errorf("xbrtime: private segment exhausted on PE %d", pe.rank)
	}
	addr := pe.privBrk
	pe.privBrk += n
	return addr, nil
}

// Scratch returns a PE-private scratch region of at least n bytes. The
// region is reused across calls (a later Scratch invalidates the data
// of an earlier one) and grows monotonically; collectives use it for
// their per-call landing buffers so that long benchmark loops do not
// consume the private segment.
func (pe *PE) Scratch(n uint64) (uint64, error) {
	if n <= pe.scratchLen && pe.scratchLen > 0 {
		return pe.scratchAddr, nil
	}
	addr, err := pe.PrivateAlloc(n)
	if err != nil {
		return 0, err
	}
	pe.scratchAddr, pe.scratchLen = addr, alignUp(n)
	return addr, nil
}

// SharedUsed reports the bytes currently allocated from the symmetric
// segment.
func (pe *PE) SharedUsed() uint64 { return pe.shared.used() }

// IsShared reports whether addr falls inside the symmetric segment.
func (pe *PE) IsShared(addr uint64) bool {
	return addr >= SharedBase && addr < SharedBase+pe.rt.cfg.SharedSize
}

// Stats is a snapshot of one PE's communication counters.
type Stats struct {
	Puts, Gets         uint64
	PutElems, GetElems uint64
	Barriers           uint64
	Cycles             uint64
}

// Stats returns the PE's traffic counters.
func (pe *PE) Stats() Stats {
	return Stats{
		Puts: pe.puts, Gets: pe.gets,
		PutElems: pe.putElems, GetElems: pe.getElems,
		Barriers: pe.barriers,
		Cycles:   pe.clock,
	}
}

// SegmentMap renders the PE's memory layout in the shape of paper
// Figure 2: private segment, then the symmetric shared segment with its
// live allocations.
func (pe *PE) SegmentMap() string {
	s := fmt.Sprintf("PE %d memory map (PGAS model, paper Figure 2)\n", pe.rank)
	s += fmt.Sprintf("  private  [%#010x, %#010x)  brk=%#x\n",
		PrivateBase, PrivateBase+pe.rt.cfg.PrivateSize, pe.privBrk)
	s += fmt.Sprintf("  shared   [%#010x, %#010x)  symmetric across %d PEs\n",
		SharedBase, SharedBase+pe.rt.cfg.SharedSize, pe.NumPEs())
	for _, a := range pe.shared.liveAllocs() {
		s += fmt.Sprintf("    alloc  [%#010x, %#010x)  offset +%#x  %d bytes\n",
			a.addr, a.addr+a.size, a.addr-SharedBase, a.size)
	}
	return s
}
