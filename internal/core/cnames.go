package core

import "xbgas/internal/xbrtime"

// The paper's C library "chooses to provide explicit calls for each
// data type supported" (§4.7): one function per Table 1 TYPENAME, and
// for reductions per operator, named xbrtime_TYPENAME_<call>[_OP]. The
// Go entry points take the type and the operator as values instead, so
// what remains of that surface is its name table, computed here.

// CEntry is one C function of the paper's surface and the Go call that
// serves it: Entry(…, Type[, Op], …).
type CEntry struct {
	Name  string        // C spelling, e.g. xbrtime_int32_allreduce_sum
	Call  string        // the <call> part of Name, e.g. allreduce
	Pkg   string        // package of the Go entry point: xbrtime (a *PE method) or core
	Entry string        // Go entry point, e.g. AllReduce
	Type  xbrtime.DType // its dt argument
	Op    ReduceOp      // its op argument; meaningful only when HasOp
	HasOp bool
}

// cEntryPoints lists the Go entry points behind the C surface with the
// <call> part of their C names. The paper names no separate C call for
// the non-blocking transfers, so PutNB and GetNB share the blocking
// spelling.
var cEntryPoints = [...]struct {
	pkg, entry, call string
	hasOp            bool
}{
	{"xbrtime", "Put", "put", false},
	{"xbrtime", "PutNB", "put", false},
	{"xbrtime", "Get", "get", false},
	{"xbrtime", "GetNB", "get", false},
	{"core", "Broadcast", "broadcast", false},
	{"core", "AllReduce", "allreduce", true},
	{"core", "ReduceScatter", "reduce_scatter", true},
	{"core", "AllGather", "allgather", false},
	{"core", "Alltoall", "alltoall", false},
	{"core", "Gather", "gather", false},
	{"core", "Reduce", "reduce", true},
	{"core", "Scatter", "scatter", false},
}

// CSurface returns the paper's per-type C surface: every entry point ×
// every Table 1 type × (for reductions) every operator valid for that
// type, entry points in cEntryPoints order, types in xbrtime.Types
// order, operators in AllReduceOps order.
func CSurface() []CEntry {
	var out []CEntry
	ops := AllReduceOps()
	for _, e := range cEntryPoints {
		for _, dt := range xbrtime.Types {
			c := CEntry{
				Name: "xbrtime_" + dt.Name + "_" + e.call, Call: e.call,
				Pkg: e.pkg, Entry: e.entry, Type: dt, HasOp: e.hasOp,
			}
			if !e.hasOp {
				out = append(out, c)
				continue
			}
			for _, op := range ops {
				if op.ValidFor(dt) {
					cell := c
					cell.Name += "_" + op.String()
					cell.Op = op
					out = append(out, cell)
				}
			}
		}
	}
	return out
}
