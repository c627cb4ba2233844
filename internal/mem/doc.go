// Package mem models the per-node memory system of the xBGAS simulation
// environment described in paper §5.1: each simulated RISC-V core is
// "configured with a 256-Entry TLB and 8-way set associative L1 (16KB)
// and L2 (8MB) caches".
//
// The package provides three composable pieces:
//
//   - Memory: a sparse, byte-addressable 64-bit physical memory,
//   - TLB: a fully-associative, LRU translation look-aside buffer,
//   - Cache: a set-associative, write-allocate, write-back LRU cache,
//
// and a Hierarchy that stacks TLB → L1 → L2 → DRAM, charging a cycle
// cost per access and keeping hit/miss statistics. The hierarchy is the
// source of the local-memory component of the performance model used by
// the runtime and the benchmarks; the absolute latencies are nominal
// (Config documents them), but the capacity and associativity behaviour
// follows the paper's configuration exactly.
//
// Hierarchy.TouchRange and Hierarchy.TouchCopy price a whole access
// stream in one call: TouchRange n accesses of one kind, TouchCopy an
// element copy (read src, write dst), a read-modify-write (the copy
// with dst == src) or an element combine (read dst, read src, write
// dst). Each returns the costs, and leaves the counters and the TLB,
// cache and prefetcher state, of the equivalent loop of Touch calls,
// but counts the accesses whose outcome that state already fixes
// instead of probing them: an access in the line (and page) of the
// access just made, which issued no prefetch — a counted write marks
// the line dirty, as its probe would —, a copy or combine group on the
// lines of the group before it, and in a line sweep every line of a
// page after the first (the TLB) and every line after the sweep's
// first sets·ways (L1, settled per set by Cache.settle).
package mem
