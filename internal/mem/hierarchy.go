package mem

import "math"

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

// TouchCopy charges the cycle cost of an n-element copy: for i in
// [0, n), a size-byte read at src+i·srcStep and then a size-byte write
// at dst+i·dstStep. Its total, its counters and the TLB, cache and
// prefetcher state it leaves are exactly those of that loop of 2n Touch
// calls.
//
// A pair whose read and write start and end in the lines of the pair
// before it is counted, not probed: two TLB hits, two L1 hits, two L1
// latencies. That is exact once one full pair on those lines has left
// them resident with a recency order the repeat restores (see
// foldable): the repeat moves the source page and line to the front,
// then the destination's, which is where the full pair left them, and
// a hit neither feeds the prefetcher nor reaches L2.
func (h *Hierarchy) TouchCopy(dst, src uint64, size int, dstStep, srcStep uint64, n int) uint64 {
	if size <= 0 || n <= 0 {
		return 0
	}
	var total uint64
	for i := 0; i < n; i++ {
		s, d := src+uint64(i)*srcStep, dst+uint64(i)*dstStep
		pf := h.prefetches
		total += h.Touch(s, size, false) + h.Touch(d, size, true)
		if i+1 == n || h.prefetches != pf || !h.foldable(s, d, size) {
			continue
		}
		k := min(lineRun(s, size, srcStep), lineRun(d, size, dstStep), uint64(n-1-i))
		h.accesses += 2 * k
		h.tlb.hits += 2 * k
		h.l1.hits += 2 * k
		c := 2 * k * h.cfg.L1Latency
		h.cycles += c
		total += c
		i += int(k)
	}
	return total
}

// foldable reports whether repeating the read of [s, s+size) and the
// write of [d, d+size) just issued would hit twice and leave every
// recency order as it is: each access lies in one line, and neither
// the destination's page nor its line can have evicted the source's —
// the TLB holds two pages or both are one page, and L1 holds two ways
// or the lines are one line or sit in different sets.
func (h *Hierarchy) foldable(s, d uint64, size int) bool {
	span := uint64(size) - 1
	sl, dl := s/LineSize, d/LineSize
	if (s+span)/LineSize != sl || (d+span)/LineSize != dl {
		return false
	}
	return (h.tlb.Entries() >= 2 || s/PageSize == d/PageSize) &&
		(h.l1.ways >= 2 || sl == dl || h.l1.set(sl) != h.l1.set(dl))
}

// lineRun returns how many of the accesses at a+step, a+2·step, ...
// lie wholly in the line of the size-byte access at a, which must
// itself lie in one line.
func lineRun(a uint64, size int, step uint64) uint64 {
	if step == 0 {
		return math.MaxUint64
	}
	return ((a/LineSize+1)*LineSize - a - uint64(size)) / step
}

// Prefetches returns the number of lines brought in by the stream
// prefetcher.
func (h *Hierarchy) Prefetches() uint64 { return h.prefetches }

// Accesses returns the number of timed accesses issued.
func (h *Hierarchy) Accesses() uint64 { return h.accesses }

// Cycles returns the cumulative cycle cost of all timed accesses.
func (h *Hierarchy) Cycles() uint64 { return h.cycles }

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }
