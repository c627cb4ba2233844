package xbrtime

import "testing"

// BenchmarkLocalElem is the xbrtime row of the layered host-cost ledger
// under NAS IS (docs/PERF.md): one PE's timed element accesses,
// alternating a ReadElem from one 64 KiB region with a WriteElem to
// another, both swept in address order the way IS's bucket phases walk
// keys into a staging buffer. One op is one element access — the TLB,
// L1/L2 probe and the locked RAM access — and must allocate nothing.
func BenchmarkLocalElem(b *testing.B) {
	const region = 64 << 10
	const elems = region / 8
	dt := TypeInt64
	pe := MustNew(Config{NumPEs: 1}).PE(0)
	src, err := pe.Malloc(region)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := pe.Malloc(region)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]uint64, elems)
	for i := range keys {
		keys[i] = uint64(i) * 0x9E3779B97F4A7C15 >> 40
	}
	pe.PokeElems(dt, src, keys)
	var v uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(i/2%elems) * 8
		if i&1 == 0 {
			v = pe.ReadElem(dt, src+off)
		} else {
			pe.WriteElem(dt, dst+off, v+1)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/elem")
}
