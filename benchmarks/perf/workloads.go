package main

import (
	"xbgas/internal/bench"
	"xbgas/internal/core"
)

// opKind is the call one op of a collective workload makes.
type opKind uint8

const (
	opBroadcast opKind = iota
	opReduce
	opScatter
	opGather
	opAllReduce
	opAllGather
	opReduceScatter
	opBarrier
)

// collective maps the op to the plan registry's collective; opBarrier
// has none (ok=false).
func (k opKind) collective() (core.Collective, bool) {
	switch k {
	case opBroadcast:
		return core.CollBroadcast, true
	case opReduce:
		return core.CollReduce, true
	case opScatter:
		return core.CollScatter, true
	case opGather:
		return core.CollGather, true
	case opAllReduce:
		return core.CollAllReduce, true
	case opAllGather:
		return core.CollAllGather, true
	case opReduceScatter:
		return core.CollReduceScatter, true
	}
	return 0, false
}

func (k opKind) rooted() bool {
	return k == opBroadcast || k == opReduce || k == opScatter || k == opGather
}

func (k opKind) reduces() bool {
	return k == opReduce || k == opAllReduce || k == opReduceScatter
}

// cell is one entry of a workload's op mix: a collective call with a
// fixed shape. name is the stem of its per-layer metrics
// (core.<name>.host_us, core.<name>.sim_cycles).
type cell struct {
	name   string
	kind   opKind
	algo   core.Algorithm
	nelems int // int64 elements (total across PEs for the vector collectives)
	stride int
}

// workload is one named set of inputs. A collective workload cycles
// its cells in order; a kernel workload runs one bench kernel per op.
type workload struct {
	name  string
	why   string
	pes   int
	topo  string // xbrtime.Config.TopoSpec; "" = flat
	cells []cell
	// A kernel workload sets exactly one of these.
	gups *bench.GUPSParams
	is   *bench.ISParams

	// lockCycles is the fixed number of mix cycles (kernel runs) of the
	// lockstep pass: the same on every commit, so the sim metrics and
	// exact counts compare bit for bit. batchCycles is how many mix
	// cycles (kernel runs) one host-time sample covers.
	lockCycles  int
	batchCycles int
}

// kernel names the bench kernel a kernel workload runs, "" otherwise.
func (w *workload) kernel() string {
	switch {
	case w.gups != nil:
		return "gups"
	case w.is != nil:
		return "is"
	}
	return ""
}

func (w *workload) opsPerCycle() int {
	if w.kernel() != "" {
		return 1
	}
	return len(w.cells)
}

// rootPeriod is the number of timed-pass samples after which the roots
// of the rooted cells repeat: roots advance by one rank per cycle, so by
// batchCycles ranks per sample. 1 for a kernel workload.
func (w *workload) rootPeriod() int {
	if w.kernel() != "" {
		return 1
	}
	step := w.batchCycles % w.pes
	if step == 0 {
		return 1
	}
	a, b := step, w.pes
	for b != 0 {
		a, b = b, a%b
	}
	return w.pes / a
}

const (
	elems64B  = 8
	elems2K   = 256
	elems64K  = 8 << 10
	elems1MiB = 128 << 10
)

// workloads is the benchmark. Each why is the one-line record of why
// the workload exists (BENCHMARK.json carries it; README.md has the
// longer argument).
//
// Every collective mix contains at least one rootless collective, so no
// PE can run a whole cycle ahead of another: the checked cycles rely on
// that to poison destinations between two barriers only.
var workloads = []*workload{
	{
		name: "tree_small_8pe",
		why:  "latency-bound binomial trees on 64 B-2 KiB (the paper's regime): core plan/executor and xbrtime barrier/flag work, the chunk path idles; the stride-2 cell takes the element stream",
		pes:  8,
		cells: []cell{
			{"bcast64", opBroadcast, core.AlgoBinomial, elems64B, 1},
			{"reduce64", opReduce, core.AlgoBinomial, elems64B, 1},
			{"scatter2k", opScatter, core.AlgoBinomial, elems2K, 1},
			{"gather2k", opGather, core.AlgoBinomial, elems2K, 1},
			{"bcast2k_s2", opBroadcast, core.AlgoBinomial, elems2K, 2},
			{"allreduce64", opAllReduce, core.AlgoAuto, elems64B, 1},
		},
		lockCycles:  3000,
		batchCycles: 20,
	},
	{
		name: "bw_move_8pe",
		why:  "bandwidth-bound 1 MiB moves with no arithmetic: mem.TouchRange, fabric stream booking and the xbrtime chunk path dominate; push (broadcast/scatter) beside pull (gather)",
		pes:  8,
		cells: []cell{
			{"bcast1m", opBroadcast, core.AlgoAuto, elems1MiB, 1},
			{"allgather1m", opAllGather, core.AlgoAuto, elems1MiB, 1},
			{"scatter1m", opScatter, core.AlgoBinomial, elems1MiB, 1},
			{"gather1m", opGather, core.AlgoBinomial, elems1MiB, 1},
		},
		lockCycles:  12,
		batchCycles: 1,
	},
	{
		name: "bw_reduce_8pe",
		why:  "the same 1 MiB data path used as read-combine-write: core.Combine and Read/WriteElemsChunk gains show here and must leave bw_move_8pe unmoved",
		pes:  8,
		cells: []cell{
			{"redscat1m", opReduceScatter, core.AlgoAuto, elems1MiB, 1},
			{"allreduce1m", opAllReduce, core.AlgoAuto, elems1MiB, 1},
			{"reduce1m", opReduce, core.AlgoAuto, elems1MiB, 1},
		},
		lockCycles:  4,
		batchCycles: 1,
	},
	{
		name: "scaleout_grouped_64pe",
		why:  "64 PEs on grouped:8: goroutine hand-off, lockstep scheduler, central barrier, flag hub and link classes do the work; only here do hierarchical/PAT planners and intra links exist",
		pes:  64,
		topo: "grouped:8",
		cells: []cell{
			{"allreduce64k", opAllReduce, core.AlgoAuto, elems64K, 1},
			{"allgather64k", opAllGather, core.AlgoAuto, elems64K, 1},
			{"bcast64k", opBroadcast, core.AlgoAuto, elems64K, 1},
			{"allreduce64_64pe", opAllReduce, core.AlgoAuto, elems64B, 1},
			{"barrier64", opBarrier, "", 0, 1},
		},
		lockCycles:  10,
		batchCycles: 1,
	},
	{
		name:        "gups_8pe",
		why:         "paper Figure 4: element-granular random remote get/xor/put, so mem TLB/L2 misses and per-message fabric.Send booking dominate and collectives are almost absent",
		pes:         8,
		gups:        gupsParams(),
		lockCycles:  14,
		batchCycles: 1,
	},
	{
		name:        "is_8pe",
		why:         "paper Figure 5: local compute interleaved with mid-size reduce/broadcast/gather, where a collective-layer change reaches a user-visible MOPS figure",
		pes:         8,
		is:          isParams(),
		lockCycles:  10,
		batchCycles: 1,
	},
}

func gupsParams() *bench.GUPSParams {
	p := bench.DefaultGUPSParams() // 16 MiB table, 2048 updates per PE, verify on
	return &p
}

func isParams() *bench.ISParams {
	p := bench.DefaultISParams() // 2^16 keys, 3 iterations, verify on
	return &p
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
