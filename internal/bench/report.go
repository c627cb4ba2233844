package bench

import (
	"fmt"
	"io"
	"strings"

	"xbgas/internal/core"
	"xbgas/internal/fabric"
	"xbgas/internal/isa"
	"xbgas/internal/mem"
	"xbgas/internal/xbrtime"
)

// PESweep is the PE-count series of the paper's evaluation (§5.2:
// "Results for the two benchmarks are reported ... for simulations with
// 1, 2, 4, and 8 PEs").
var PESweep = []int{1, 2, 4, 8}

// Table1 prints the matched type names and types of paper Table 1.
func Table1(w io.Writer) error {
	fmt.Fprintln(w, "Table 1: xBGAS Matched Type Names & Types")
	fmt.Fprintf(w, "%-12s %s\n", "TYPENAME", "TYPE")
	for _, dt := range xbrtime.Types {
		fmt.Fprintf(w, "%-12s %s\n", dt.Name, dt.CName)
	}
	return nil
}

// APISurface renders the C call surface Table 1 spans (§4.7) as
// markdown: core.CSurface summarised per Go entry point, the Table 1
// types, and the dtype × operator validity matrix. docs/API_SURFACE.md
// is this output, checked in (TestAPISurfaceDoc).
func APISurface(w io.Writer) error {
	fmt.Fprint(w, `# The typed API surface

<!-- Rendered by bench.APISurface (xbgas-bench -table 1). Refresh:
     UPDATE_API_SURFACE=1 go test ./internal/bench -run TestAPISurfaceDoc -->

The paper's C library exposes explicit calls per data type (Table 1,
§4.7): the TYPENAME, and for reductions the operator, are part of the
function name. The Go entry points take both as values — an
`+"`xbrtime.DType`"+` from `+"`xbrtime.Types`"+` and a `+"`core.ReduceOp`"+` — so one Go
function serves a whole row below, and `+"`core.CSurface()`"+` lists the C
name of every cell.

## Entry points

| Go call | C spelling | C functions |
|---|---|---|
`)
	surface := core.CSurface()
	for i := 0; i < len(surface); {
		// One row per entry point, with the number of cells it spans.
		e, n := surface[i], 1
		for i+n < len(surface) && surface[i+n].Entry == e.Entry {
			n++
		}
		call := "core." + e.Entry + "(pe, dt, "
		if e.Pkg == "xbrtime" {
			call = "pe." + e.Entry + "(dt, "
		}
		c := "xbrtime_TYPE_" + e.Call
		if e.HasOp {
			call += "op, "
			c += "_OP"
		}
		note := ""
		if strings.HasSuffix(e.Entry, "NB") {
			note = " (non-blocking form)"
		}
		fmt.Fprintf(w, "| `%s…)` | `%s`%s | %d |\n", call, c, note, n)
		i += n
	}
	fmt.Fprintf(w, "| **total** | | **%d** |\n", len(surface))

	fmt.Fprint(w, "\n## Data types (`xbrtime.Types`, paper Table 1)\n\n")
	fmt.Fprint(w, "| TYPENAME | C type | width | domain |\n|---|---|---|---|\n")
	domains := [...]string{xbrtime.KindInt: "Int", xbrtime.KindUint: "Uint", xbrtime.KindFloat: "Float"}
	for _, dt := range xbrtime.Types {
		fmt.Fprintf(w, "| `%s` | `%s` | %d | %s |\n", dt.Name, dt.CName, dt.Width, domains[dt.Kind])
	}

	fmt.Fprint(w, `
## Reduction operator validity (dtype × op)

A ✓ cell is accepted by `+"`ReduceOp.ValidFor`"+` and has a C name under every
reduction entry point; a — cell is rejected at run time by
`+"`core.Combine`"+` and every reduction (bitwise operators are undefined for
floating-point types, §4.4) and has no C name. The property tests
assert there is no third state.

| TYPENAME |`)
	ops := core.AllReduceOps()
	for _, op := range ops {
		fmt.Fprintf(w, " %s |", op)
	}
	fmt.Fprint(w, "\n|---|", strings.Repeat("---|", len(ops)), "\n")
	for _, dt := range xbrtime.Types {
		fmt.Fprintf(w, "| `%s` |", dt.Name)
		for _, op := range ops {
			mark := "✓"
			if !op.ValidFor(dt) {
				mark = "—"
			}
			fmt.Fprintf(w, " %s |", mark)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Table2 prints the logical-to-virtual rank mapping of paper Table 2
// (7 PEs, root 4).
func Table2(w io.Writer) error {
	fmt.Fprintln(w, "Table 2:", "")
	fmt.Fprint(w, core.Table2Mapping(7, 4))
	return nil
}

// Figure1 prints the extended register file layout of paper Figure 1.
func Figure1(w io.Writer) error {
	fmt.Fprintln(w, "Figure 1: Extended xBGAS Register File")
	fmt.Fprint(w, isa.RegisterFileLayout())
	return nil
}

// Figure2 prints the PGAS memory model of paper Figure 2: two PEs with
// private segments and symmetric shared allocations.
func Figure2(w io.Writer) error {
	fmt.Fprintln(w, "Figure 2: PGAS Memory Model (2 PEs, symmetric shared segments)")
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: 2})
	if err != nil {
		return err
	}
	defer rt.Close()
	maps := make([]string, 2)
	err = rt.Run(func(pe *xbrtime.PE) error {
		if _, err := pe.Malloc(4096); err != nil {
			return err
		}
		if _, err := pe.Malloc(1024); err != nil {
			return err
		}
		if _, err := pe.PrivateAlloc(2048); err != nil {
			return err
		}
		maps[pe.MyPE()] = pe.SegmentMap()
		return nil
	})
	if err != nil {
		return err
	}
	for _, m := range maps {
		fmt.Fprint(w, m)
	}
	fmt.Fprintln(w, "Shared allocations sit at identical offsets on both PEs: the")
	fmt.Fprintln(w, "shared-data segment of each PE is fully symmetric with its peers.")
	return nil
}

// Figure3 prints the binomial tree with recursive halving of paper
// Figure 3 (8 PEs).
func Figure3(w io.Writer) error {
	fmt.Fprint(w, core.RenderTree(8))
	return nil
}

// Figure4 runs the GUPS sweep of paper Figure 4 and prints total and
// per-PE MOPS for 1, 2, 4, and 8 PEs.
func Figure4(w io.Writer, p GUPSParams) error {
	fmt.Fprintln(w, "Figure 4: GUPS Performance (millions of operations per second)")
	fmt.Fprintf(w, "%-5s %-12s %-12s %-10s %s\n", "PEs", "total MOPS", "per-PE MOPS", "verified", "contention cycles")
	for _, n := range PESweep {
		r, err := RunGUPS(p, n)
		if err != nil {
			return fmt.Errorf("GUPS with %d PEs: %w", n, err)
		}
		fmt.Fprintf(w, "%-5d %-12.3f %-12.3f %-10v %d\n",
			n, r.TotalMOPS(), r.PerPEMOPS(), r.Verified, r.ContentionCycles)
	}
	return nil
}

// Figure5 runs the Integer Sort sweep of paper Figure 5 and prints
// total and per-PE MOPS for 1, 2, 4, and 8 PEs.
func Figure5(w io.Writer, p ISParams) error {
	fmt.Fprintln(w, "Figure 5: Integer Sort Performance (millions of operations per second)")
	fmt.Fprintf(w, "%-5s %-12s %-12s %-10s %s\n", "PEs", "total MOPS", "per-PE MOPS", "verified", "contention cycles")
	for _, n := range PESweep {
		r, err := RunIS(p, n)
		if err != nil {
			return fmt.Errorf("IS with %d PEs: %w", n, err)
		}
		fmt.Fprintf(w, "%-5d %-12.3f %-12.3f %-10v %d\n",
			n, r.TotalMOPS(), r.PerPEMOPS(), r.Verified, r.ContentionCycles)
	}
	return nil
}

// Comparison contrasts the xBGAS one-sided transport against a
// message-passing-style transport (§3.1/§4.7): the same binomial-tree
// collectives run over both fabric cost models.
func Comparison(w io.Writer) error {
	fmt.Fprintln(w, "Transport comparison: xBGAS one-sided vs message-passing cost model")
	fmt.Fprintln(w, "(binomial-tree collectives, 8 PEs, cycles per invocation)")
	fmt.Fprintf(w, "%-10s %-8s %-15s %-15s %s\n", "op", "nelems", "xBGAS cycles", "msg-pass cycles", "speedup")
	const iters = 10
	for _, op := range []CollectiveOp{OpBroadcast, OpReduce, OpBarrier} {
		for _, nelems := range []int{1, 16, 256} {
			if op == OpBarrier && nelems != 1 {
				continue
			}
			var lat [2]float64
			for i, fc := range []fabric.Config{fabric.DefaultConfig(), fabric.MessageConfig()} {
				r, err := RunCollective(CollectiveSpec{
					Op: op, PEs: 8, Nelems: nelems, Iters: iters,
					Algo:    core.AlgoBinomial,
					Runtime: xbrtime.Config{Fabric: fc},
				})
				if err != nil {
					return err
				}
				lat[i] = LatencyCycles(r, iters)
			}
			fmt.Fprintf(w, "%-10s %-8d %-15.0f %-15.0f %.2fx\n",
				op, nelems, lat[0], lat[1], lat[1]/lat[0])
		}
	}
	fmt.Fprintln(w, "\nThe xBGAS model wins on every row: user-space remote loads and")
	fmt.Fprintln(w, "stores avoid the injection and matching overheads of two-sided")
	fmt.Fprintln(w, "message passing (paper §3.1).")
	return nil
}

// AblationTreeVsLinear compares the binomial tree against the flat
// linear baseline across PE counts (§4.1–4.2).
func AblationTreeVsLinear(w io.Writer) error {
	fmt.Fprintln(w, "Ablation: binomial tree vs linear broadcast (cycles per invocation, 64 elems)")
	fmt.Fprintf(w, "%-5s %-15s %-15s %s\n", "PEs", "binomial", "linear", "tree speedup")
	const iters = 10
	for _, n := range []int{2, 4, 8, 12} {
		var lat [2]float64
		for i, algo := range []core.Algorithm{core.AlgoBinomial, core.AlgoLinear} {
			r, err := RunCollective(CollectiveSpec{
				Op: OpBroadcast, PEs: n, Nelems: 64, Iters: iters, Algo: algo,
			})
			if err != nil {
				return err
			}
			lat[i] = LatencyCycles(r, iters)
		}
		fmt.Fprintf(w, "%-5d %-15.0f %-15.0f %.2fx\n", n, lat[0], lat[1], lat[1]/lat[0])
	}
	return nil
}

// AblationMessageSize sweeps the broadcast payload across all three
// algorithms (§4.2: trees win at small transaction sizes where latency
// dominates; the §7 large-message scatter+all-gather takes over past
// the crossover).
func AblationMessageSize(w io.Writer) error {
	const iters = 5
	algos := []core.Algorithm{core.AlgoBinomial, core.AlgoLinear, core.AlgoScatterAllgather}
	fabrics := []struct {
		name string
		cfg  fabric.Config
	}{
		{"shared central switch (paper's single-cluster fabric)", fabric.DefaultConfig()},
		{"full-bisection fabric (SwitchGap=0)", func() fabric.Config {
			c := fabric.DefaultConfig()
			c.SwitchGap = 0
			return c
		}()},
	}
	for _, fab := range fabrics {
		fmt.Fprintf(w, "Ablation: broadcast payload sweep, 8 PEs, %s (cycles per invocation)\n", fab.name)
		fmt.Fprintf(w, "%-8s %-14s %-14s %-18s %s\n",
			"nelems", "binomial", "linear", "scatter-allgather", "best")
		for _, nelems := range []int{1, 8, 64, 512, 4096, 16384} {
			lat := make([]float64, len(algos))
			for i, algo := range algos {
				r, err := RunCollective(CollectiveSpec{
					Op: OpBroadcast, PEs: 8, Nelems: nelems, Iters: iters, Algo: algo,
					Runtime: xbrtime.Config{Fabric: fab.cfg},
				})
				if err != nil {
					return err
				}
				lat[i] = LatencyCycles(r, iters)
			}
			best := 0
			for i := range lat {
				if lat[i] < lat[best] {
					best = i
				}
			}
			fmt.Fprintf(w, "%-8d %-14.0f %-14.0f %-18.0f %s\n",
				nelems, lat[0], lat[1], lat[2], algos[best])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "On a single shared switch, total traffic decides and the binomial")
	fmt.Fprintln(w, "tree stays ahead at every size; scatter+all-gather's lower per-node")
	fmt.Fprintln(w, "load pays off once the fabric offers full bisection bandwidth.")
	return nil
}

// AblationTopology demonstrates topology independence (§4.2: "our
// collective library will perform effectively regardless of whether it
// is utilized on a torus or hypercube topology"). The spread between
// fully-connected and ring at small payloads is the per-hop latency the
// paper's §7 location-aware OLB optimisation would target; at large
// payloads pipelined element streams hide per-hop latency entirely and
// the topologies converge.
func AblationTopology(w io.Writer) error {
	fmt.Fprintln(w, "Ablation: broadcast across topologies, 8 PEs (cycles per invocation)")
	fmt.Fprintf(w, "%-18s %-20s %s\n", "topology", "64 elems", "4096 elems")
	topos := []fabric.Topology{
		fabric.FullyConnected{N: 8},
		fabric.Ring{N: 8},
		fabric.Torus2D{W: 4, H: 2},
		fabric.Hypercube{Dim: 3},
	}
	for _, topo := range topos {
		var lat [2]float64
		for i, nelems := range []int{64, 4096} {
			iters := 10 / (i*4 + 1)
			r, err := RunCollective(CollectiveSpec{
				Op: OpBroadcast, PEs: 8, Nelems: nelems, Iters: iters,
				Algo:    core.AlgoBinomial,
				Runtime: xbrtime.Config{Topology: topo},
			})
			if err != nil {
				return err
			}
			lat[i] = LatencyCycles(r, iters)
		}
		fmt.Fprintf(w, "%-18s %-20.0f %.0f\n", topo.Name(), lat[0], lat[1])
	}
	return nil
}

// AblationUnroll measures the put/get loop-unrolling threshold of §3.3.
func AblationUnroll(w io.Writer) error {
	fmt.Fprintln(w, "Ablation: put loop unrolling (256 x int64 to one peer, cycles)")
	fmt.Fprintf(w, "%-22s %s\n", "mode", "cycles")
	for _, mode := range []struct {
		name      string
		threshold int
	}{
		{"unrolled (default)", xbrtime.DefaultUnrollThreshold},
		{"element-wise", 1 << 30},
	} {
		rt, err := xbrtime.New(xbrtime.Config{NumPEs: 2, UnrollThreshold: mode.threshold})
		if err != nil {
			return err
		}
		var cycles uint64
		err = rt.Run(func(pe *xbrtime.PE) error {
			buf, err := pe.Malloc(8 * 256)
			if err != nil {
				return err
			}
			if err := pe.Barrier(); err != nil {
				return err
			}
			if pe.MyPE() == 0 {
				src, err := pe.PrivateAlloc(8 * 256)
				if err != nil {
					return err
				}
				start := pe.Now()
				if err := pe.Put(xbrtime.TypeInt64, buf, src, 256, 1, 1); err != nil {
					return err
				}
				cycles = pe.Now() - start
			}
			return nil
		})
		rt.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-22s %d\n", mode.name, cycles)
	}
	return nil
}

// AblationRoot verifies that the virtual-rank remapping keeps non-zero
// roots as cheap as rank 0 (§4.3, Table 2).
func AblationRoot(w io.Writer) error {
	fmt.Fprintln(w, "Ablation: broadcast root placement, 7 PEs, 64 elems (cycles)")
	fmt.Fprintf(w, "%-6s %s\n", "root", "cycles per invocation")
	const iters = 10
	for _, root := range []int{0, 3, 4, 6} {
		r, err := RunCollective(CollectiveSpec{
			Op: OpBroadcast, PEs: 7, Nelems: 64, Iters: iters,
			Root: root, Algo: core.AlgoBinomial,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6d %.0f\n", root, LatencyCycles(r, iters))
	}
	return nil
}

// TrafficMatrix runs a small GUPS at 4 PEs and prints the per-pair
// message matrix — GUPS's uniformly random updates must fill the
// off-diagonal uniformly, which makes this both an observability
// report and a sanity check of the workload.
func TrafficMatrix(w io.Writer) error {
	const nPEs = 4
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: nPEs})
	if err != nil {
		return err
	}
	defer rt.Close()
	err = rt.Run(func(pe *xbrtime.PE) error {
		buf, err := pe.Malloc(8 * 64)
		if err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		src, err := pe.PrivateAlloc(8)
		if err != nil {
			return err
		}
		x := uint64(pe.MyPE()) * 0x9E3779B97F4A7C15
		for i := 0; i < 512; i++ {
			x = gupsLCG(x)
			target := int(x>>33) % pe.NumPEs()
			if target == pe.MyPE() {
				continue
			}
			if err := pe.Put(xbrtime.TypeUint64, buf, src, 1, 1, target); err != nil {
				return err
			}
		}
		return pe.Barrier()
	})
	if err != nil {
		return err
	}
	msgs, bytes := rt.Machine().Fabric.Traffic()
	fmt.Fprintln(w, "Traffic matrix: random one-sided puts, 4 PEs (messages / payload bytes)")
	fmt.Fprintf(w, "%-8s", "src\\dst")
	for d := 0; d < nPEs; d++ {
		fmt.Fprintf(w, " %12d", d)
	}
	fmt.Fprintln(w)
	for s := 0; s < nPEs; s++ {
		fmt.Fprintf(w, "%-8d", s)
		for d := 0; d < nPEs; d++ {
			fmt.Fprintf(w, " %5d/%-6d", msgs[s][d], bytes[s][d])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// AblationBarrier compares the paper's simple centralised barrier
// against a dissemination barrier across PE counts. The barrier closes
// every round of every collective, so its cost scales everything.
func AblationBarrier(w io.Writer) error {
	fmt.Fprintln(w, "Ablation: barrier algorithm (cycles per barrier)")
	fmt.Fprintf(w, "%-5s %-15s %-15s\n", "PEs", "central", "dissemination")
	const iters = 20
	for _, n := range []int{2, 4, 8, 12} {
		var lat [2]float64
		for i, algo := range []xbrtime.BarrierAlgorithm{xbrtime.BarrierCentral, xbrtime.BarrierDissemination} {
			r, err := RunCollective(CollectiveSpec{
				Op: OpBarrier, PEs: n, Nelems: 1, Iters: iters,
				Runtime: xbrtime.Config{Barrier: algo},
			})
			if err != nil {
				return err
			}
			lat[i] = LatencyCycles(r, iters)
		}
		fmt.Fprintf(w, "%-5d %-15.0f %-15.0f\n", n, lat[0], lat[1])
	}
	return nil
}

// MicroPointToPoint prints OSU-style put/get latency and bandwidth
// curves for the one-sided primitives everything else is built from.
func MicroPointToPoint(w io.Writer) error {
	fmt.Fprintln(w, "Point-to-point microbenchmarks (blocking put/get, 2 PEs)")
	fmt.Fprintf(w, "%-10s %-16s %-16s %-14s %s\n",
		"bytes", "put cycles", "get cycles", "put GB/s", "get GB/s")
	for _, nelems := range []int{1, 4, 16, 64, 256, 1024, 4096} {
		rt, err := xbrtime.New(xbrtime.Config{NumPEs: 2})
		if err != nil {
			return err
		}
		var putCyc, getCyc uint64
		err = rt.Run(func(pe *xbrtime.PE) error {
			buf, err := pe.Malloc(uint64(nelems) * 8)
			if err != nil {
				return err
			}
			if err := pe.Barrier(); err != nil {
				return err
			}
			if pe.MyPE() != 0 {
				return nil
			}
			src, err := pe.PrivateAlloc(uint64(nelems) * 8)
			if err != nil {
				return err
			}
			start := pe.Now()
			if err := pe.Put(xbrtime.TypeInt64, buf, src, nelems, 1, 1); err != nil {
				return err
			}
			putCyc = pe.Now() - start
			start = pe.Now()
			if err := pe.Get(xbrtime.TypeInt64, src, buf, nelems, 1, 1); err != nil {
				return err
			}
			getCyc = pe.Now() - start
			return nil
		})
		rt.Close()
		if err != nil {
			return err
		}
		bytes := float64(nelems * 8)
		fmt.Fprintf(w, "%-10d %-16d %-16d %-14.3f %.3f\n",
			nelems*8, putCyc, getCyc, bytes/float64(putCyc), bytes/float64(getCyc))
	}
	return nil
}

// AblationPrefetch toggles the optional next-line stream prefetcher:
// it should accelerate Integer Sort's streaming phases and leave GUPS's
// random access untouched — workload-dependence in one table.
func AblationPrefetch(w io.Writer) error {
	fmt.Fprintln(w, "Ablation: stream prefetcher (4 PEs, total MOPS)")
	fmt.Fprintf(w, "%-10s %-12s %-12s %s\n", "workload", "baseline", "prefetch", "speedup")
	memPF := mem.DefaultConfig()
	memPF.Prefetch = true

	gp := DefaultGUPSParams()
	gp.TableWords = 1 << 18
	gp.UpdatesPerPE = 1024
	gBase, err := RunGUPS(gp, 4)
	if err != nil {
		return err
	}
	gp.Runtime = xbrtime.Config{Mem: memPF}
	gPF, err := RunGUPS(gp, 4)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %-12.3f %-12.3f %.2fx\n", "GUPS",
		gBase.TotalMOPS(), gPF.TotalMOPS(), gPF.TotalMOPS()/gBase.TotalMOPS())

	ip := DefaultISParams()
	ip.TotalKeys = 1 << 14
	ip.MaxKey = 1 << 10
	ip.Iterations = 2
	iBase, err := RunIS(ip, 4)
	if err != nil {
		return err
	}
	ip.Runtime = xbrtime.Config{Mem: memPF}
	iPF, err := RunIS(ip, 4)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %-12.3f %-12.3f %.2fx\n", "IS",
		iBase.TotalMOPS(), iPF.TotalMOPS(), iPF.TotalMOPS()/iBase.TotalMOPS())
	return nil
}

// AblationOLB contrasts a full-size OLB translation cache against a
// thrashing single-entry one (§3.2).
func AblationOLB(w io.Writer) error {
	fmt.Fprintln(w, "Ablation: OLB translation-cache behaviour (8 PEs, all-pairs gets)")
	fmt.Fprintf(w, "%-14s %-10s %-10s\n", "OLB entries", "hits", "misses")
	for _, entries := range []int{256, 1} {
		rt, err := xbrtime.New(xbrtime.Config{NumPEs: 8, OLBEntries: entries})
		if err != nil {
			return err
		}
		err = rt.Run(func(pe *xbrtime.PE) error {
			buf, err := pe.Malloc(8)
			if err != nil {
				return err
			}
			if err := pe.Barrier(); err != nil {
				return err
			}
			dst, err := pe.PrivateAlloc(8)
			if err != nil {
				return err
			}
			for round := 0; round < 4; round++ {
				for p := 0; p < pe.NumPEs(); p++ {
					if p == pe.MyPE() {
						continue
					}
					if err := pe.Get(xbrtime.TypeInt64, dst, buf, 1, 1, p); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		var hits, misses uint64
		for n := 0; n < 8; n++ {
			o := rt.Machine().Nodes[n].OLB
			hits += o.Hits()
			misses += o.Misses()
		}
		rt.Close()
		fmt.Fprintf(w, "%-14d %-10d %-10d\n", entries, hits, misses)
	}
	return nil
}

// FigureCSV writes a Figure 4 or 5 sweep as CSV for plotting pipelines:
// one row per PE count with total and per-PE MOPS.
func FigureCSV(w io.Writer, figure int, gups GUPSParams, is ISParams) error {
	fmt.Fprintln(w, "figure,pes,total_mops,per_pe_mops,verified,contention_cycles")
	for _, n := range PESweep {
		var r Result
		var err error
		switch figure {
		case 4:
			r, err = RunGUPS(gups, n)
		case 5:
			r, err = RunIS(is, n)
		default:
			return fmt.Errorf("bench: no CSV form for figure %d", figure)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d,%d,%.4f,%.4f,%v,%d\n",
			figure, n, r.TotalMOPS(), r.PerPEMOPS(), r.Verified, r.ContentionCycles)
	}
	return nil
}
