// Package xbgas is a Go reproduction of the collective communication
// library for the RISC-V xBGAS ISA extension described in
//
//	Williams, Wang, Leidel, Chen. "Collective Communication for the
//	RISC-V xBGAS ISA Extension." ICPP 2019 Workshops.
//
// The repository contains the full stack the paper depends on:
//
//   - internal/isa: the RV64I + xBGAS instruction set model,
//   - internal/asm: a two-pass assembler for that subset,
//   - internal/mem: node memory with TLB and L1/L2 cache models,
//   - internal/olb: the Object Look-aside Buffer,
//   - internal/fabric: the inter-node network model,
//   - internal/sim: a Spike-like functional multi-core simulator,
//   - internal/xbrtime: the xBGAS runtime (symmetric heap, put/get, barrier),
//   - internal/core: the paper's contribution — binomial-tree collectives,
//   - internal/bench: the GUPS and NAS IS evaluation workloads.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package xbgas
