package bench

// Host-performance microbenchmarks: these measure the *simulator's*
// wall-clock cost per simulated operation (ns/op, allocs/op), not
// simulated cycles. tools/benchdiff compares two `go test -bench`
// outputs of this file and records the trajectory in BENCH_*.json.
//
// Everything here sticks to the public runtime API, so the same file
// drops into older checkouts to produce comparable baselines.

import (
	"testing"

	"xbgas/internal/core"
	"xbgas/internal/obs"
	"xbgas/internal/xbrtime"
)

// benchRuntime builds a runtime for direct single-goroutine driving of
// PE 0 (no Run, no barriers): the tightest loop over the native
// transport hot path.
func benchRuntime(b *testing.B, npes int) (*xbrtime.Runtime, uint64) {
	b.Helper()
	rt := xbrtime.MustNew(xbrtime.Config{NumPEs: npes})
	addr, err := rt.PE(0).Malloc(8 * 8192 * 2)
	if err != nil {
		b.Fatal(err)
	}
	return rt, addr
}

func benchPutStream(b *testing.B, nelems int) {
	rt, buf := benchRuntime(b, 2)
	defer rt.Close()
	pe := rt.PE(0)
	b.ReportAllocs()
	b.SetBytes(int64(nelems) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pe.Put(xbrtime.TypeULong, buf+8*8192, buf, nelems, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func benchGetStream(b *testing.B, nelems int) {
	rt, buf := benchRuntime(b, 2)
	defer rt.Close()
	pe := rt.PE(0)
	b.ReportAllocs()
	b.SetBytes(int64(nelems) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pe.Get(xbrtime.TypeULong, buf+8*8192, buf, nelems, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutElem(b *testing.B)       { benchPutStream(b, 1) }
func BenchmarkPutStream64(b *testing.B)   { benchPutStream(b, 64) }
func BenchmarkPutStream4096(b *testing.B) { benchPutStream(b, 4096) }
func BenchmarkGetElem(b *testing.B)       { benchGetStream(b, 1) }
func BenchmarkGetStream64(b *testing.B)   { benchGetStream(b, 64) }
func BenchmarkGetStream4096(b *testing.B) { benchGetStream(b, 4096) }

// benchCollective measures one collective call per iteration across a
// live 8-PE runtime (goroutine spawn and barriers included, as a real
// caller pays them).
func benchCollective(b *testing.B, fn func(pe *xbrtime.PE, dest, src uint64) error) {
	rt := xbrtime.MustNew(xbrtime.Config{NumPEs: 8})
	defer rt.Close()
	var dest, src uint64
	err := rt.Run(func(pe *xbrtime.PE) error {
		d, err := pe.Malloc(8 * 4096)
		if err != nil {
			return err
		}
		s, err := pe.Malloc(8 * 4096)
		if err != nil {
			return err
		}
		dest, src = d, s
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Run(func(pe *xbrtime.PE) error { return fn(pe, dest, src) }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBroadcast(b *testing.B) {
	benchCollective(b, func(pe *xbrtime.PE, dest, src uint64) error {
		return core.Broadcast(pe, xbrtime.TypeULong, dest, src, 1024, 1, 0)
	})
}

func BenchmarkReduce(b *testing.B) {
	benchCollective(b, func(pe *xbrtime.PE, dest, src uint64) error {
		return core.Reduce(pe, xbrtime.TypeULong, core.OpSum, dest, src, 1024, 1, 0)
	})
}

func BenchmarkScatter(b *testing.B) {
	benchCollective(b, func(pe *xbrtime.PE, dest, src uint64) error {
		msgs := []int{128, 128, 128, 128, 128, 128, 128, 128}
		disp := []int{0, 128, 256, 384, 512, 640, 768, 896}
		return core.Scatter(pe, xbrtime.TypeULong, dest, src, msgs, disp, 1024, 0)
	})
}

func BenchmarkGather(b *testing.B) {
	benchCollective(b, func(pe *xbrtime.PE, dest, src uint64) error {
		msgs := []int{128, 128, 128, 128, 128, 128, 128, 128}
		disp := []int{0, 128, 256, 384, 512, 640, 768, 896}
		return core.Gather(pe, xbrtime.TypeULong, dest, src, msgs, disp, 1024, 0)
	})
}

// benchLargeBroadcast drives a large-message broadcast with a fixed
// chunk override: -1 pins the unsegmented baseline, 0 is auto
// selection, >0 forces that segment size. The chunk ablation in
// docs/PERF.md is one sweep of this helper.
func benchLargeBroadcast(b *testing.B, elems, chunk int) {
	b.Helper()
	core.SetChunkBytes(chunk)
	defer core.SetChunkBytes(0)
	rt := xbrtime.MustNew(xbrtime.Config{NumPEs: 8})
	defer rt.Close()
	var dest, src uint64
	err := rt.Run(func(pe *xbrtime.PE) error {
		d, err := pe.Malloc(uint64(elems) * 8)
		if err != nil {
			return err
		}
		s, err := pe.Malloc(uint64(elems) * 8)
		if err != nil {
			return err
		}
		dest, src = d, s
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(elems) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Run(func(pe *xbrtime.PE) error {
			return core.Broadcast(pe, xbrtime.TypeULong, dest, src, elems, 1, 0)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBcast1MB8PE is the large-message headline number: a 1 MiB
// broadcast across 8 PEs with auto-selected segmentation. benchdiff
// tracks it in the checked-in baseline next to GUPS8PE.
func BenchmarkBcast1MB8PE(b *testing.B) { benchLargeBroadcast(b, 1<<17, 0) }

// BenchmarkGather1MB8PE is the paper's binomial gather (Algorithm 4) of
// 1 MiB across 8 PEs, root 0, with the default segmentation, which
// leaves it unsegmented and on the element path: every block is staged
// by virtual rank and the root reorders it, so the PE-local timed
// element copy is its largest host cost.
func BenchmarkGather1MB8PE(b *testing.B) {
	benchLargeGathered(b, 1<<17, func(pe *xbrtime.PE, dest, src uint64, msgs, disp []int, elems int) error {
		return core.GatherWith(core.AlgoBinomial, pe, xbrtime.TypeULong, dest, src, msgs, disp, elems, 0)
	})
}

// BenchmarkBcast1MB8PEUnsegmented is the same payload with
// segmentation disabled — the pair is the speedup the pipelined
// executor buys on the host.
func BenchmarkBcast1MB8PEUnsegmented(b *testing.B) { benchLargeBroadcast(b, 1<<17, -1) }

// BenchmarkBcastChunk sweeps the chunk size over a 256 KiB broadcast;
// docs/PERF.md tabulates one run to justify DefaultChunkBytes and the
// SegmentMinBytes crossover.
func BenchmarkBcastChunk(b *testing.B) {
	for _, c := range []struct {
		name  string
		chunk int
	}{
		{"off", -1},
		{"4KiB", 4 << 10},
		{"8KiB", 8 << 10},
		{"16KiB", 16 << 10},
		{"32KiB", 32 << 10},
		{"64KiB", 64 << 10},
		{"128KiB", 128 << 10},
		{"auto", 0},
	} {
		b.Run(c.name, func(b *testing.B) { benchLargeBroadcast(b, 1<<15, c.chunk) })
	}
}

// benchLargeAllreduce drives a large-message allreduce under a fixed
// algorithm ("" = auto) with auto chunk selection. The headline pair in
// docs/PERF.md compares auto against the pinned binomial path.
func benchLargeAllreduce(b *testing.B, elems int, algo core.Algorithm) {
	benchLargeAllreduceOn(b, elems, algo, xbrtime.Config{NumPEs: 8})
}

func benchLargeAllreduceOn(b *testing.B, elems int, algo core.Algorithm, cfg xbrtime.Config) {
	b.Helper()
	rt := xbrtime.MustNew(cfg)
	defer rt.Close()
	var dest, src uint64
	err := rt.Run(func(pe *xbrtime.PE) error {
		d, err := pe.Malloc(uint64(elems) * 8)
		if err != nil {
			return err
		}
		s, err := pe.Malloc(uint64(elems) * 8)
		if err != nil {
			return err
		}
		dest, src = d, s
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(elems) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Run(func(pe *xbrtime.PE) error {
			return core.AllReduceWith(pe, algo, xbrtime.TypeULong, core.OpSum, dest, src, elems, 1)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLargeAllgather drives an allgather whose concatenated result is
// elems elements: each of the 8 PEs contributes elems/8.
func benchLargeAllgather(b *testing.B, elems int, algo core.Algorithm) {
	benchLargeGathered(b, elems, func(pe *xbrtime.PE, dest, src uint64, msgs, disp []int, elems int) error {
		return core.AllGatherWith(pe, algo, xbrtime.TypeULong, dest, src, msgs, disp, elems)
	})
}

// benchLargeGathered drives a gather-shaped call on 8 PEs whose
// concatenated result is elems elements, each PE contributing elems/8.
func benchLargeGathered(b *testing.B, elems int, call func(pe *xbrtime.PE, dest, src uint64, msgs, disp []int, elems int) error) {
	b.Helper()
	rt := xbrtime.MustNew(xbrtime.Config{NumPEs: 8})
	defer rt.Close()
	per := elems / 8
	msgs := make([]int, 8)
	disp := make([]int, 8)
	for i := range msgs {
		msgs[i] = per
		disp[i] = i * per
	}
	var dest, src uint64
	err := rt.Run(func(pe *xbrtime.PE) error {
		d, err := pe.Malloc(uint64(elems) * 8)
		if err != nil {
			return err
		}
		s, err := pe.Malloc(uint64(per) * 8)
		if err != nil {
			return err
		}
		dest, src = d, s
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(elems) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Run(func(pe *xbrtime.PE) error {
			return call(pe, dest, src, msgs, disp, elems)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllreduce1MB8PE and BenchmarkAllgather1MB8PE are the
// bandwidth-optimal headline numbers: 1 MiB payloads across 8 PEs with
// the auto algorithm. Both sit in the blocking benchdiff CI gate next
// to GUPS8PE and Bcast1MB8PE.
func BenchmarkAllreduce1MB8PE(b *testing.B) { benchLargeAllreduce(b, 1<<17, core.AlgoAuto) }
func BenchmarkAllgather1MB8PE(b *testing.B) { benchLargeAllgather(b, 1<<17, core.AlgoAuto) }

// The pinned-binomial twins measure what auto is being compared
// against; the ratio is the PR's acceptance criterion.
func BenchmarkAllreduce1MB8PEBinomial(b *testing.B) { benchLargeAllreduce(b, 1<<17, core.AlgoBinomial) }
func BenchmarkAllgather1MB8PEBinomial(b *testing.B) { benchLargeAllgather(b, 1<<17, core.AlgoBinomial) }

// BenchmarkAllreduce1MB64PEGrouped is the scale-out headline: the same
// 1 MiB payload on 64 PEs packed 8-per-node, where auto resolves to the
// hierarchical planner. Its name carries the PE count and topology so
// benchdiff refuses to compare it against flat or 8-PE baselines.
func BenchmarkAllreduce1MB64PEGrouped(b *testing.B) {
	benchLargeAllreduceOn(b, 1<<17, core.AlgoAuto,
		xbrtime.Config{NumPEs: 64, TopoSpec: "grouped:8"})
}

func BenchmarkGUPS8PE(b *testing.B) {
	p := GUPSParams{
		TableWords:   1 << 18,
		UpdatesPerPE: 1024,
		Lookahead:    64,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunGUPS(p, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGUPS8PEObs is BenchmarkGUPS8PE with tracing and metrics
// live; docs/PERF.md compares the pair to bound the enabled-path cost.
// A fresh recorder per iteration keeps the retained event buffers from
// compounding across b.N.
func BenchmarkGUPS8PEObs(b *testing.B) {
	p := GUPSParams{
		TableWords:   1 << 18,
		UpdatesPerPE: 1024,
		Lookahead:    64,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Runtime.Obs = obs.NewRecorder(obs.Options{Trace: true, Metrics: true})
		if _, err := RunGUPS(p, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIS8PE(b *testing.B) {
	p := DefaultISParams()
	p.TotalKeys = 1 << 15
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunIS(p, 8); err != nil {
			b.Fatal(err)
		}
	}
}
