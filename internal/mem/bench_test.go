package mem

import "testing"

// The mem row of the layered host-cost ledger (docs/PERF.md): what one
// modelled access costs the host under the two access shapes the
// workloads produce, and what the functional element codecs cost per
// batch. All of them must stay at 0 allocs/op.

const (
	benchBase  = 0x0100_0000 // xbrtime.SharedBase: where the runtime puts the shared segment
	benchSweep = 1 << 20     // bytes per sequential sweep
)

// BenchmarkTouchRangeSeq is the bulk data path's shape: a 1 MiB range
// swept one touch per cache line. One op is one sweep; successive ops
// rotate over 8 hierarchies (the PEs of the 8-PE workloads) and 3
// buffers each (source, destination, scratch), so the modelled caches'
// host footprint — 8 × (L1 + L2) — competes for the host's caches the
// way it does under a collective, instead of one L2 staying hot.
func BenchmarkTouchRangeSeq(b *testing.B) {
	const lines = benchSweep / LineSize
	var hs [8]*Hierarchy
	for i := range hs {
		hs[i] = MustHierarchy(DefaultConfig())
		for buf := uint64(0); buf < 3; buf++ {
			hs[i].TouchRange(benchBase+buf*benchSweep, LineSize, LineSize, lines, false, nil)
		}
	}
	var cycles uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := hs[i%len(hs)]
		buf := uint64(i/len(hs)) % 3
		cycles += h.TouchRange(benchBase+buf*benchSweep, LineSize, LineSize, lines, i&1 == 1, nil)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/lines, "ns/line")
	b.ReportMetric(float64(cycles)/float64(b.N)/lines, "simCycles/line")
}

// BenchmarkTouchRangeElems is the element stream's shape (a put or get
// of 8-byte elements priced in one TouchRange call): a 1 MiB stride-1
// stream, one touch per element, rotating over 8 hierarchies as
// BenchmarkTouchRangeSeq does. One op is one stream.
func BenchmarkTouchRangeElems(b *testing.B) {
	const elems = benchSweep / 8
	var hs [8]*Hierarchy
	for i := range hs {
		hs[i] = MustHierarchy(DefaultConfig())
		hs[i].TouchRange(benchBase, 8, 8, elems, false, nil)
	}
	var cycles uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycles += hs[i%len(hs)].TouchRange(benchBase, 8, 8, elems, i&1 == 1, nil)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/elems, "ns/elem")
	b.ReportMetric(float64(cycles)/float64(b.N)/elems, "simCycles/elem")
}

// BenchmarkTouchCopy is the element path's PE-local copy shape (the
// binomial scatter/gather staging copies): a 1 MiB stride-1 copy of
// 8-byte elements, a read and a write touch per element, rotating over
// 8 hierarchies as BenchmarkTouchRangeSeq does. One op is one copy.
func BenchmarkTouchCopy(b *testing.B) {
	const elems = benchSweep / 8
	var hs [8]*Hierarchy
	for i := range hs {
		hs[i] = MustHierarchy(DefaultConfig())
		hs[i].TouchCopy(benchBase+benchSweep, benchBase, 8, 8, 8, elems, false)
	}
	var cycles uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycles += hs[i%len(hs)].TouchCopy(benchBase+benchSweep, benchBase, 8, 8, 8, elems, false)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/elems, "ns/elem")
	b.ReportMetric(float64(cycles)/float64(b.N)/elems, "simCycles/elem")
}

// BenchmarkTouchRandom is GUPS's local side: 8-byte touches at random
// words of one PE's 2 MiB table slice, alternating read and write.
func BenchmarkTouchRandom(b *testing.B) {
	h := MustHierarchy(DefaultConfig())
	const words = (2 << 20) / 8
	x := uint64(0x2545F4914F6CDD1D)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		h.Touch(benchBase+(x>>33)%words*8, 8, i&1 == 1)
	}
	b.StopTimer()
	b.ReportMetric(float64(h.Cycles())/float64(b.N), "simCycles/op")
}

const benchElems = 4096 // the block xbrtime.ReadElemsChunk/WriteElemsChunk and a combine (sim.Node.LockedUpdate) hand down

// benchElemsMemory returns a memory holding benchElems 8-byte elements
// at benchBase (eight mapped pages) and the values written there.
func benchElemsMemory() (*Memory, []uint64) {
	m := NewMemory()
	buf := make([]uint64, benchElems)
	for i := range buf {
		buf[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	m.WriteElems(benchBase, 8, 8, benchElems, buf)
	return m, buf
}

// BenchmarkReadElems decodes a stride-1 run of 4096 8-byte elements,
// the batch under xbrtime.ReadElemsChunk.
func BenchmarkReadElems(b *testing.B) {
	m, buf := benchElemsMemory()
	b.ReportAllocs()
	b.SetBytes(benchElems * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ReadElems(benchBase, 8, 8, benchElems, buf)
	}
}

// BenchmarkWriteElems is the encoding direction of BenchmarkReadElems.
func BenchmarkWriteElems(b *testing.B) {
	m, buf := benchElemsMemory()
	b.ReportAllocs()
	b.SetBytes(benchElems * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WriteElems(benchBase, 8, 8, benchElems, buf)
	}
}
