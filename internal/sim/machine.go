package sim

import (
	"fmt"
	"sync"

	"xbgas/internal/asm"
	"xbgas/internal/fabric"
	"xbgas/internal/mem"
	"xbgas/internal/obs"
	"xbgas/internal/olb"
)

// ObjectID returns the object ID that addresses node n from any peer.
// The runtime convention, following the xbrtime runtime library, is
// ID = rank + 1 (ID 0 being architecturally reserved for "local").
func ObjectID(node int) uint64 { return uint64(node) + 1 }

// NodeOfObjectID inverts ObjectID.
func NodeOfObjectID(id uint64) int { return int(id) - 1 }

// Node is one processing element: private memory system plus the OLB
// used to translate remote object IDs.
type Node struct {
	ID   int
	Hier *mem.Hierarchy
	OLB  *olb.OLB

	// mu guards functional RAM contents against concurrent remote
	// accesses issued by other nodes' cores.
	mu sync.Mutex
	_  [64]byte // keeps the next node's mu, taken by another PE, off our host line
}

// LockedRead reads size bytes at addr under the node's memory lock.
func (n *Node) LockedRead(addr uint64, size int) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.Hier.RAM().ReadUint(addr, size)
}

// LockedWrite writes size bytes at addr under the node's memory lock.
func (n *Node) LockedWrite(addr uint64, size int, v uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.Hier.RAM().WriteUint(addr, size, v)
}

// Load is one timed local read by the node's own core: the hierarchy
// cost of the access and the raw size bytes at addr, read under the lock.
func (n *Node) Load(addr uint64, size int) (raw, cost uint64) {
	cost = n.Hier.Touch(addr, size, false)
	return n.LockedRead(addr, size), cost
}

// Store is Load's write counterpart; it returns the cycle cost.
func (n *Node) Store(addr uint64, size int, v uint64) (cost uint64) {
	cost = n.Hier.Touch(addr, size, true)
	n.LockedWrite(addr, size, v)
	return cost
}

// LockedReadElems reads n size-byte elements at addr, addr+step, ...
// into dst[:n] under one acquisition of the node's memory lock — the
// batch form of n LockedRead calls.
func (n *Node) LockedReadElems(addr uint64, size int, step uint64, count int, dst []uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.Hier.RAM().ReadElems(addr, size, step, count, dst)
}

// LockedWriteElems writes n size-byte elements from src[:n] to addr,
// addr+step, ... under one acquisition of the node's memory lock.
func (n *Node) LockedWriteElems(addr uint64, size int, step uint64, count int, src []uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.Hier.RAM().WriteElems(addr, size, step, count, src)
}

// LockedCopyElems copies count size-byte elements from src, src+srcStep,
// ... to dest, dest+destStep, ... (both on this node) under one lock
// acquisition, element by element in order — the same read-then-write
// interleaving, and therefore the same overlap semantics, as a loop of
// LockedRead/LockedWrite pairs. Contiguous ranges that do not overlap
// cannot observe that order, so they move as bytes, page run by page
// run.
func (n *Node) LockedCopyElems(dest, src uint64, size int, destStep, srcStep uint64, count int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ram := n.Hier.RAM()
	w := uint64(size)
	if span := uint64(count) * w; destStep == w && srcStep == w && (dest+span <= src || src+span <= dest) {
		ram.Copy(dest, src, span)
		return
	}
	for i := 0; i < count; i++ {
		ram.WriteUint(dest+uint64(i)*destStep, size, ram.ReadUint(src+uint64(i)*srcStep, size))
	}
}

// LockedUpdate rewrites count size-byte elements under one acquisition
// of the node's memory lock: f, a slice kernel, rewrites raw
// destination elements xs (at dest+i·destStep) in place, element by
// element, from xs and the matching source elements ys (at
// src+i·srcStep); only the low size bytes of each are stored. xs and ys
// are the caller's workspace, len(ys) >= len(xs) >= 1. Where the ranges
// are disjoint, or coincide (dest == src, equal steps: ys is xs), f
// sees blocks of at most len(xs) elements, each read, rewritten and
// written back in turn. Otherwise it sees one element at a time in
// element order: the overlap semantics of a loop that reads x, reads y
// (x itself where the addresses meet) and writes the result. f runs
// under the lock, so it must not access this node's memory.
func (n *Node) LockedUpdate(dest, src uint64, size int, destStep, srcStep uint64, count int, xs, ys []uint64, f func(xs, ys []uint64)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ram, w := n.Hier.RAM(), uint64(size)
	same := dest == src && destStep == srcStep
	if count > 1 && destStep >= w && (same || dest+uint64(count-1)*destStep+w <= src || src+uint64(count-1)*srcStep+w <= dest) {
		for i := 0; i < count; i += len(xs) {
			k := min(len(xs), count-i)
			d, x, y := dest+uint64(i)*destStep, xs[:k], xs[:k]
			ram.ReadElems(d, size, destStep, k, x)
			if !same {
				y = ys[:k]
				ram.ReadElems(src+uint64(i)*srcStep, size, srcStep, k, y)
			}
			f(x, y)
			ram.WriteElems(d, size, destStep, k, x)
		}
		return
	}
	x, y := xs[:1], ys[:1]
	for i := 0; i < count; i++ {
		d, s := dest+uint64(i)*destStep, src+uint64(i)*srcStep
		x[0] = ram.ReadUint(d, size)
		y[0] = x[0]
		if s != d {
			y[0] = ram.ReadUint(s, size)
		}
		f(x, y)
		ram.WriteUint(d, size, x[0])
	}
}

// LockedReadBytes copies len(dst) bytes from addr under the memory lock.
func (n *Node) LockedReadBytes(addr uint64, dst []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.Hier.RAM().ReadBytes(addr, dst)
}

// LockedWriteBytes copies src to addr under the memory lock.
func (n *Node) LockedWriteBytes(addr uint64, src []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.Hier.RAM().WriteBytes(addr, src)
}

// Config assembles the pieces of a Machine.
type Config struct {
	Nodes    int
	Mem      mem.Config
	Topology fabric.Topology // default: fully connected over Nodes
	Fabric   fabric.Config
	OLBSize  int // translation-cache entries per node; default olb.DefaultEntries
}

// DefaultConfig returns the paper's simulation environment: the given
// number of nodes with §5.1 memory geometry on a fully-connected fabric.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:    nodes,
		Mem:      mem.DefaultConfig(),
		Topology: fabric.FullyConnected{N: nodes},
		Fabric:   fabric.DefaultConfig(),
		OLBSize:  olb.DefaultEntries,
	}
}

// Machine is the simulated cluster.
type Machine struct {
	Nodes  []*Node
	Fabric *fabric.Fabric

	// obs, when non-nil, is the observability run cores created by Load
	// attach to (one timeline track and metrics registry per node).
	obs *obs.Run
}

// NewMachine builds a cluster and pre-registers every node's object ID
// in every OLB (the runtime does this during xbrtime_init).
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("sim: machine needs at least one node, got %d", cfg.Nodes)
	}
	topo := cfg.Topology
	if topo == nil {
		topo = fabric.FullyConnected{N: cfg.Nodes}
	}
	if topo.Nodes() < cfg.Nodes {
		return nil, fmt.Errorf("sim: topology %s has %d nodes, machine needs %d",
			topo.Name(), topo.Nodes(), cfg.Nodes)
	}
	fab, err := fabric.New(topo, cfg.Fabric)
	if err != nil {
		return nil, err
	}
	olbSize := cfg.OLBSize
	if olbSize == 0 {
		olbSize = olb.DefaultEntries
	}
	m := &Machine{Fabric: fab}
	for i := 0; i < cfg.Nodes; i++ {
		h, err := mem.NewHierarchy(cfg.Mem)
		if err != nil {
			return nil, err
		}
		n := &Node{ID: i, Hier: h, OLB: olb.New(olbSize)}
		m.Nodes = append(m.Nodes, n)
	}
	// "The OLB contains a mapping of every unique object ID" (paper
	// §3.2) — including the node's own: addressing yourself through
	// your own object ID is legal, it just loops through the NIC
	// instead of taking the ID-0 local short-circuit.
	for _, n := range m.Nodes {
		for _, peer := range m.Nodes {
			if err := n.OLB.Register(ObjectID(peer.ID), olb.Entry{Node: peer.ID}); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// MustMachine is NewMachine for static configurations.
func MustMachine(cfg Config) *Machine {
	m, err := NewMachine(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// NumNodes returns the cluster size.
func (m *Machine) NumNodes() int { return len(m.Nodes) }

// Load copies an assembled program into node's RAM (functionally, no
// timing charge) and returns a Core with pc at the program base and sp
// at the top of a fresh stack region.
func (m *Machine) Load(node int, p *asm.Program) (*Core, error) {
	if node < 0 || node >= len(m.Nodes) {
		return nil, fmt.Errorf("sim: load on node %d of %d", node, len(m.Nodes))
	}
	n := m.Nodes[node]
	n.LockedWriteBytes(p.Base, p.Bytes())
	c := NewCore(m, node)
	if m.obs != nil {
		c.SetObs(m.obs.PETrack(node), m.obs.PEMetrics(node))
	}
	c.PC = p.Base
	if entry, ok := p.Symbols["_start"]; ok {
		c.PC = entry
	}
	return c, nil
}
