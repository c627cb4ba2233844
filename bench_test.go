// Benchmark harness: one testing.B benchmark per table and figure of
// the paper, plus the ablation studies listed in DESIGN.md. Each
// benchmark drives the simulated system and reports the *simulated*
// metric the paper plots (MOPS at the 1 GHz model clock, or simulated
// cycles per operation) via b.ReportMetric; wall-clock ns/op measures
// only the simulator itself.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// or print the paper-formatted tables with cmd/xbgas-bench.
package xbgas_test

import (
	"fmt"
	"testing"

	"xbgas/internal/bench"
	"xbgas/internal/core"
	"xbgas/internal/fabric"
	"xbgas/internal/xbrtime"
)

// benchGUPS are the Figure 4 parameters, scaled for the harness (the
// full-size sweep lives behind cmd/xbgas-bench -figure 4).
func benchGUPS() bench.GUPSParams {
	p := bench.DefaultGUPSParams()
	p.TableWords = 1 << 18
	p.UpdatesPerPE = 1024
	return p
}

func benchIS() bench.ISParams {
	p := bench.DefaultISParams()
	p.TotalKeys = 1 << 14
	p.MaxKey = 1 << 10
	p.Iterations = 1
	return p
}

// BenchmarkFigure4GUPS regenerates the Figure 4 series: GUPS total and
// per-PE MOPS at 1, 2, 4, and 8 PEs.
func BenchmarkFigure4GUPS(b *testing.B) {
	p := benchGUPS()
	for _, n := range bench.PESweep {
		b.Run(fmt.Sprintf("PEs=%d", n), func(b *testing.B) {
			var last bench.Result
			for i := 0; i < b.N; i++ {
				r, err := bench.RunGUPS(p, n)
				if err != nil {
					b.Fatal(err)
				}
				if !r.Verified {
					b.Fatalf("verification failed: %d errors", r.Errors)
				}
				last = r
			}
			b.ReportMetric(last.TotalMOPS(), "simMOPS")
			b.ReportMetric(last.PerPEMOPS(), "simMOPS/PE")
		})
	}
}

// BenchmarkFigure5IS regenerates the Figure 5 series: Integer Sort
// total and per-PE MOPS at 1, 2, 4, and 8 PEs.
func BenchmarkFigure5IS(b *testing.B) {
	p := benchIS()
	for _, n := range bench.PESweep {
		b.Run(fmt.Sprintf("PEs=%d", n), func(b *testing.B) {
			var last bench.Result
			for i := 0; i < b.N; i++ {
				r, err := bench.RunIS(p, n)
				if err != nil {
					b.Fatal(err)
				}
				if !r.Verified {
					b.Fatalf("verification failed: %d errors", r.Errors)
				}
				last = r
			}
			b.ReportMetric(last.TotalMOPS(), "simMOPS")
			b.ReportMetric(last.PerPEMOPS(), "simMOPS/PE")
		})
	}
}

// BenchmarkTable1TypedPut exercises the explicit per-type put surface of
// Table 1: one strided put per supported type per iteration.
func BenchmarkTable1TypedPut(b *testing.B) {
	rt := xbrtime.MustNew(xbrtime.Config{NumPEs: 2})
	defer rt.Close()
	err := rt.Run(func(pe *xbrtime.PE) error {
		buf, err := pe.Malloc(1 << 12)
		if err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		if pe.MyPE() != 0 {
			return nil
		}
		src, err := pe.PrivateAlloc(1 << 12)
		if err != nil {
			return err
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, dt := range xbrtime.Types {
				if err := pe.Put(dt, buf, src, 16, 2, 1); err != nil {
					return err
				}
			}
		}
		b.ReportMetric(float64(len(xbrtime.Types)), "types/op")
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTable2VirtualRank measures the logical→virtual remapping of
// Table 2 (it sits on the critical path of every collective call).
func BenchmarkTable2VirtualRank(b *testing.B) {
	sum := 0
	for i := 0; i < b.N; i++ {
		for l := 0; l < 7; l++ {
			sum += core.VirtualRank(l, 4, 7)
		}
	}
	if sum < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkFigure3Broadcast measures the binomial-tree broadcast of
// Figure 3 (8 PEs) and reports the simulated latency per invocation.
func BenchmarkFigure3Broadcast(b *testing.B) {
	for _, nelems := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("nelems=%d", nelems), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				r, err := bench.RunCollective(bench.CollectiveSpec{
					Op: bench.OpBroadcast, PEs: 8, Nelems: nelems, Iters: 4,
					Algo: core.AlgoBinomial,
				})
				if err != nil {
					b.Fatal(err)
				}
				lat = bench.LatencyCycles(r, 4)
			}
			b.ReportMetric(lat, "simCycles/coll")
		})
	}
}

// BenchmarkCollectiveComparison is the §3.1/§4.7 quantitative
// comparison: the same binomial collectives over the xBGAS one-sided
// cost model versus a message-passing cost model.
func BenchmarkCollectiveComparison(b *testing.B) {
	transports := []struct {
		name string
		cfg  fabric.Config
	}{
		{"xbgas", fabric.DefaultConfig()},
		{"message-passing", fabric.MessageConfig()},
	}
	for _, tr := range transports {
		for _, op := range []bench.CollectiveOp{bench.OpBroadcast, bench.OpReduce} {
			b.Run(fmt.Sprintf("%s/%s", tr.name, op), func(b *testing.B) {
				var lat float64
				for i := 0; i < b.N; i++ {
					r, err := bench.RunCollective(bench.CollectiveSpec{
						Op: op, PEs: 8, Nelems: 64, Iters: 4,
						Algo:    core.AlgoBinomial,
						Runtime: xbrtime.Config{Fabric: tr.cfg},
					})
					if err != nil {
						b.Fatal(err)
					}
					lat = bench.LatencyCycles(r, 4)
				}
				b.ReportMetric(lat, "simCycles/coll")
			})
		}
	}
}

// BenchmarkAblationTreeVsLinear compares the binomial tree against the
// flat baseline (§4.1–4.2) across PE counts.
func BenchmarkAblationTreeVsLinear(b *testing.B) {
	for _, algo := range []core.Algorithm{core.AlgoBinomial, core.AlgoLinear} {
		for _, n := range []int{4, 8, 12} {
			b.Run(fmt.Sprintf("%s/PEs=%d", algo, n), func(b *testing.B) {
				var lat float64
				for i := 0; i < b.N; i++ {
					r, err := bench.RunCollective(bench.CollectiveSpec{
						Op: bench.OpBroadcast, PEs: n, Nelems: 64, Iters: 4, Algo: algo,
					})
					if err != nil {
						b.Fatal(err)
					}
					lat = bench.LatencyCycles(r, 4)
				}
				b.ReportMetric(lat, "simCycles/coll")
			})
		}
	}
}

// BenchmarkAblationMessageSize sweeps the broadcast payload (§4.2:
// trees shine at small transaction sizes).
func BenchmarkAblationMessageSize(b *testing.B) {
	for _, nelems := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("nelems=%d", nelems), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				r, err := bench.RunCollective(bench.CollectiveSpec{
					Op: bench.OpBroadcast, PEs: 8, Nelems: nelems, Iters: 2,
					Algo: core.AlgoBinomial,
				})
				if err != nil {
					b.Fatal(err)
				}
				lat = bench.LatencyCycles(r, 2)
			}
			b.ReportMetric(lat, "simCycles/coll")
		})
	}
}

// BenchmarkAblationUnroll measures the §3.3 put loop-unrolling
// optimisation.
func BenchmarkAblationUnroll(b *testing.B) {
	for _, mode := range []struct {
		name      string
		threshold int
	}{
		{"unrolled", xbrtime.DefaultUnrollThreshold},
		{"element-wise", 1 << 30},
	} {
		b.Run(mode.name, func(b *testing.B) {
			rt := xbrtime.MustNew(xbrtime.Config{NumPEs: 2, UnrollThreshold: mode.threshold})
			defer rt.Close()
			var cycles uint64
			err := rt.Run(func(pe *xbrtime.PE) error {
				buf, err := pe.Malloc(8 * 256)
				if err != nil {
					return err
				}
				if err := pe.Barrier(); err != nil {
					return err
				}
				if pe.MyPE() != 0 {
					return nil
				}
				src, err := pe.PrivateAlloc(8 * 256)
				if err != nil {
					return err
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					start := pe.Now()
					if err := pe.Put(xbrtime.TypeInt64, buf, src, 256, 1, 1); err != nil {
						return err
					}
					cycles = pe.Now() - start
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(cycles), "simCycles/put")
		})
	}
}

// BenchmarkAblationTopology demonstrates the §4.2 topology-independence
// claim across four interconnects.
func BenchmarkAblationTopology(b *testing.B) {
	topos := []fabric.Topology{
		fabric.FullyConnected{N: 8},
		fabric.Ring{N: 8},
		fabric.Torus2D{W: 4, H: 2},
		fabric.Hypercube{Dim: 3},
	}
	for _, topo := range topos {
		b.Run(topo.Name(), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				r, err := bench.RunCollective(bench.CollectiveSpec{
					Op: bench.OpBroadcast, PEs: 8, Nelems: 64, Iters: 4,
					Algo:    core.AlgoBinomial,
					Runtime: xbrtime.Config{Topology: topo},
				})
				if err != nil {
					b.Fatal(err)
				}
				lat = bench.LatencyCycles(r, 4)
			}
			b.ReportMetric(lat, "simCycles/coll")
		})
	}
}

// BenchmarkAblationRoot verifies non-zero roots cost the same as rank 0
// thanks to the Table 2 virtual-rank remapping.
func BenchmarkAblationRoot(b *testing.B) {
	for _, root := range []int{0, 4} {
		b.Run(fmt.Sprintf("root=%d", root), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				r, err := bench.RunCollective(bench.CollectiveSpec{
					Op: bench.OpBroadcast, PEs: 7, Nelems: 64, Iters: 4,
					Root: root, Algo: core.AlgoBinomial,
				})
				if err != nil {
					b.Fatal(err)
				}
				lat = bench.LatencyCycles(r, 4)
			}
			b.ReportMetric(lat, "simCycles/coll")
		})
	}
}

// BenchmarkAblationOLB contrasts a full-size OLB translation cache with
// a single-entry thrashing one (§3.2).
func BenchmarkAblationOLB(b *testing.B) {
	for _, entries := range []int{256, 1} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			rt := xbrtime.MustNew(xbrtime.Config{NumPEs: 8, OLBEntries: entries})
			defer rt.Close()
			var cycles uint64
			err := rt.Run(func(pe *xbrtime.PE) error {
				buf, err := pe.Malloc(8)
				if err != nil {
					return err
				}
				if err := pe.Barrier(); err != nil {
					return err
				}
				if pe.MyPE() != 0 {
					return nil
				}
				dst, err := pe.PrivateAlloc(8)
				if err != nil {
					return err
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					start := pe.Now()
					for p := 1; p < pe.NumPEs(); p++ {
						if err := pe.Get(xbrtime.TypeInt64, dst, buf, 1, 1, p); err != nil {
							return err
						}
					}
					cycles += pe.Now() - start
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "simCycles/round")
		})
	}
}

// BenchmarkPutGetLatency is the point-to-point microbenchmark
// underlying everything else: blocking single-element put and get.
func BenchmarkPutGetLatency(b *testing.B) {
	rt := xbrtime.MustNew(xbrtime.Config{NumPEs: 2})
	defer rt.Close()
	err := rt.Run(func(pe *xbrtime.PE) error {
		buf, err := pe.Malloc(8)
		if err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		if pe.MyPE() != 0 {
			return nil
		}
		src, err := pe.PrivateAlloc(8)
		if err != nil {
			return err
		}
		start := pe.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := pe.Put(xbrtime.TypeInt64, buf, src, 1, 1, 1); err != nil {
				return err
			}
			if err := pe.Get(xbrtime.TypeInt64, src, buf, 1, 1, 1); err != nil {
				return err
			}
		}
		b.ReportMetric(float64(pe.Now()-start)/float64(b.N)/2, "simCycles/op")
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAblationBarrierAlgo compares the paper's simple centralised
// barrier against a dissemination barrier (the barrier closes every
// round of every collective).
func BenchmarkAblationBarrierAlgo(b *testing.B) {
	for _, algo := range []xbrtime.BarrierAlgorithm{xbrtime.BarrierCentral, xbrtime.BarrierDissemination} {
		for _, n := range []int{4, 8} {
			b.Run(fmt.Sprintf("%s/PEs=%d", algo, n), func(b *testing.B) {
				var lat float64
				for i := 0; i < b.N; i++ {
					r, err := bench.RunCollective(bench.CollectiveSpec{
						Op: bench.OpBarrier, PEs: n, Nelems: 1, Iters: 20,
						Runtime: xbrtime.Config{Barrier: algo},
					})
					if err != nil {
						b.Fatal(err)
					}
					lat = bench.LatencyCycles(r, 20)
				}
				b.ReportMetric(lat, "simCycles/barrier")
			})
		}
	}
}

// BenchmarkSpikeTransportPut measures the instruction-level transport:
// each put is compiled to an xBGAS stub and interpreted.
func BenchmarkSpikeTransportPut(b *testing.B) {
	rt := xbrtime.MustNew(xbrtime.Config{NumPEs: 2, Transport: xbrtime.TransportSpike})
	defer rt.Close()
	err := rt.Run(func(pe *xbrtime.PE) error {
		buf, err := pe.Malloc(8 * 64)
		if err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		if pe.MyPE() != 0 {
			return nil
		}
		src, err := pe.PrivateAlloc(8 * 64)
		if err != nil {
			return err
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := pe.Put(xbrtime.TypeInt64, buf, src, 64, 1, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
