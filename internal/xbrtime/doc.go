// Package xbrtime is the xBGAS machine-level runtime library of paper
// §3.3: the Go counterpart of github.com/tactcomplabs/xbgas-runtime.
//
// The runtime realises the PGAS memory model of paper Figure 2. Each
// processing element (PE) owns a private segment and a shared segment;
// shared segments are kept fully symmetric — an allocation returns the
// same offset from the segment base on every PE — so that a single
// address names complementary objects on every PE. On top of that sit:
//
//   - initialisation/teardown and PE identity (MyPE, NumPEs),
//   - a symmetric shared-memory allocator (Malloc/Free),
//   - a barrier,
//   - one-sided, typed, strided Put and Get in blocking and
//     non-blocking forms for the 24 data types of paper Table 1.
//
// SPMD programs run through Runtime.Run, which executes the supplied
// function once per PE on its own goroutine:
//
//	rt, _ := xbrtime.New(xbrtime.Config{NumPEs: 4})
//	defer rt.Close()
//	err := rt.Run(func(pe *xbrtime.PE) error {
//		sym, _ := pe.Malloc(8)
//		...
//		return pe.Barrier()
//	})
//
// # Time model
//
// Every PE carries a virtual clock in cycles (1 GHz nominal). Local
// memory traffic is charged through the node's mem.Hierarchy (TLB + L1 +
// L2 per paper §5.1); remote traffic is charged through the shared
// fabric model, which serialises concurrent messages at the receiving
// NIC. Put and Get follow the paper's implementation note that the
// underlying assembly applies "loop unrolling when nelems exceeds a
// given threshold": below the threshold element transfers issue
// strictly one after another; at or above it they pipeline at the
// injection rate.
//
// # Transports
//
// The default native transport performs transfers directly with the cost
// model above. The Spike transport instead generates the actual xBGAS
// instruction sequence for each transfer and executes it on an
// internal/sim core, exercising the full ISA path; both transports
// produce identical memory contents (see the equivalence tests).
//
// Put, Get, PutNB and GetNB take the element type as a DType value —
// one of the Types of paper Table 1 — where the C library spells it
// into the function name (xbrtime_TYPENAME_put, …); core.CSurface
// lists those names.
package xbrtime
