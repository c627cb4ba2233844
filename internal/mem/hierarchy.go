package mem

// Config describes one node's memory system. The geometry defaults come
// straight from paper §5.1; the latencies are nominal cycle costs typical
// for that geometry and are the knobs of the performance model.
type Config struct {
	TLBEntries int // translation entries per core
	L1Size     int // bytes
	L1Ways     int
	L2Size     int // bytes
	L2Ways     int

	L1Latency   uint64 // cycles on an L1 hit
	L2Latency   uint64 // additional cycles on an L1 miss / L2 hit
	MemLatency  uint64 // additional cycles on an L2 miss
	TLBMissCost uint64 // page-walk penalty

	// Prefetch enables a next-line stream prefetcher: when two
	// consecutive L1 misses hit adjacent lines, the following line is
	// brought into both cache levels for free. Sequential sweeps (the
	// sort phases of IS) benefit; random access (GUPS) does not. Off by
	// default to match the paper's plain cache configuration.
	Prefetch bool
}

// DefaultConfig returns the paper's evaluation configuration: 256-entry
// TLB, 8-way 16 KB L1, 8-way 8 MB L2 (§5.1).
func DefaultConfig() Config {
	return Config{
		TLBEntries:  256,
		L1Size:      16 << 10,
		L1Ways:      8,
		L2Size:      8 << 20,
		L2Ways:      8,
		L1Latency:   2,
		L2Latency:   18,
		MemLatency:  200,
		TLBMissCost: 60,
	}
}

// Hierarchy stacks TLB → L1 → L2 → DRAM over a backing Memory and
// charges cycle costs per access.
type Hierarchy struct {
	cfg Config
	ram *Memory
	tlb *TLB
	l1  *Cache
	l2  *Cache

	accesses uint64
	cycles   uint64

	lastMissLine uint64 // stream-prefetcher state
	prefetches   uint64
}

// NewHierarchy builds a memory hierarchy with the given configuration.
func NewHierarchy(cfg Config) (*Hierarchy, error) {
	l1, err := NewCache("L1", cfg.L1Size, cfg.L1Ways)
	if err != nil {
		return nil, err
	}
	l2, err := NewCache("L2", cfg.L2Size, cfg.L2Ways)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{
		cfg: cfg,
		ram: NewMemory(),
		tlb: NewTLB(cfg.TLBEntries),
		l1:  l1,
		l2:  l2,
	}, nil
}

// MustHierarchy is NewHierarchy for static configurations.
func MustHierarchy(cfg Config) *Hierarchy {
	h, err := NewHierarchy(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// RAM exposes the backing memory for functional reads and writes that
// should not perturb timing state (e.g. program loading).
func (h *Hierarchy) RAM() *Memory { return h.ram }

// TLB exposes the translation buffer (for statistics).
func (h *Hierarchy) TLB() *TLB { return h.tlb }

// L1 exposes the first-level cache (for statistics).
func (h *Hierarchy) L1() *Cache { return h.l1 }

// L2 exposes the second-level cache (for statistics).
func (h *Hierarchy) L2() *Cache { return h.l2 }

// Touch charges the cycle cost of a size-byte access at addr without
// moving data, updating TLB and cache state. It returns the cost.
func (h *Hierarchy) Touch(addr uint64, size int, write bool) uint64 {
	if size <= 0 {
		return 0
	}
	h.accesses++
	cost := h.cfg.L1Latency
	if !h.tlb.Lookup(addr) {
		cost += h.cfg.TLBMissCost
	}
	line := addr / LineSize
	if (addr+uint64(size)-1)/LineSize == line {
		// The access lies in one line — every aligned element access
		// and every bulk line touch: probe it directly instead of
		// through the range form.
		if !h.l1.access(line, write) {
			cost += h.cfg.L2Latency
			if !h.l2.access(line, write) {
				cost += h.cfg.MemLatency
			}
			h.streamMiss(line)
		}
	} else if !h.l1.Access(addr, size, write) {
		cost += h.cfg.L2Latency
		if !h.l2.Access(addr, size, write) {
			cost += h.cfg.MemLatency
		}
		h.streamMiss(line)
	}
	h.cycles += cost
	return cost
}

// streamMiss feeds an L1 miss on line to the stream prefetcher: two
// misses on adjacent lines pull the following line into both levels
// ahead of the access that would miss on it.
func (h *Hierarchy) streamMiss(line uint64) {
	if !h.cfg.Prefetch {
		return
	}
	if line == h.lastMissLine+1 {
		h.l1.access(line+1, false)
		h.l2.access(line+1, false)
		h.prefetches++
	}
	h.lastMissLine = line
}

// TouchRange charges the cycle cost of n size-byte accesses at
// addr, addr+step, ..., addr+(n-1)·step, exactly as n successive Touch
// calls would (same TLB, cache, and prefetcher transitions). When costs
// is non-nil it must have length ≥ n and receives the per-access cost;
// the total is returned either way. Batched transfer paths use it to
// price a whole element stream in one call.
func (h *Hierarchy) TouchRange(addr uint64, size int, step uint64, n int, write bool, costs []uint64) uint64 {
	if size <= 0 || n <= 0 {
		return 0
	}
	var total uint64
	for i := 0; i < n; i++ {
		c := h.Touch(addr+uint64(i)*step, size, write)
		if costs != nil {
			costs[i] = c
		}
		total += c
	}
	return total
}

// Prefetches returns the number of lines brought in by the stream
// prefetcher.
func (h *Hierarchy) Prefetches() uint64 { return h.prefetches }

// Read performs a timed read of size bytes at addr.
func (h *Hierarchy) Read(addr uint64, size int) (value uint64, cost uint64) {
	cost = h.Touch(addr, size, false)
	return h.ram.ReadUint(addr, size), cost
}

// Write performs a timed write of size bytes at addr.
func (h *Hierarchy) Write(addr uint64, size int, v uint64) (cost uint64) {
	cost = h.Touch(addr, size, true)
	h.ram.WriteUint(addr, size, v)
	return cost
}

// Accesses returns the number of timed accesses issued.
func (h *Hierarchy) Accesses() uint64 { return h.accesses }

// Cycles returns the cumulative cycle cost of all timed accesses.
func (h *Hierarchy) Cycles() uint64 { return h.cycles }

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }
