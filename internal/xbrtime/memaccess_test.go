package xbrtime

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

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

// hierStats is every counter of a PE's memory hierarchy and the
// number of resident pages of its RAM.
type hierStats struct {
	accesses, cycles, prefetches           uint64
	tlbHit, tlbMiss                        uint64
	l1Hit, l1Miss, l1Evict, l1WB           uint64
	l2Hit, l2Miss, l2Evict, l2WB, resident uint64
}

func readHierStats(pe *PE) hierStats {
	h := pe.node.Hier
	return hierStats{
		h.Accesses(), h.Cycles(), h.Prefetches(),
		h.TLB().Hits(), h.TLB().Misses(),
		h.L1().Hits(), h.L1().Misses(), h.L1().Evictions(), h.L1().WritebackBytes(),
		h.L2().Hits(), h.L2().Misses(), h.L2().Evictions(), h.L2().WritebackBytes(),
		uint64(h.RAM().Footprint()),
	}
}

// TestCopyElemsMatchesElemLoop pins CopyElems to its definition, a
// ReadElem/WriteElem loop, on twin one-PE runtimes driven through the
// same call sequence: the clock, the hierarchy counters and every byte
// must agree after each call. Overlapping ranges must smear in element
// order, and a contiguous copy between disjoint ranges, which moves as
// bytes, must land what the loop lands, on pages never written before
// too.
func TestCopyElemsMatchesElemLoop(t *testing.T) {
	const region = 3 * 4096
	copied, looped := MustNew(Config{NumPEs: 1}).PE(0), MustNew(Config{NumPEs: 1}).PE(0)
	base, err := copied.Malloc(4 * region)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := looped.Malloc(4 * region); err != nil || b != base {
		t.Fatalf("twin Malloc: %#x, %v; want %#x", b, err, base)
	}
	fill := make([]byte, region)
	rand.New(rand.NewSource(32)).Read(fill)
	copied.PokeBytes(base, fill)
	looped.PokeBytes(base, fill)

	check := func(name string, dt DType, dst, src uint64, n, ds, ss int) {
		t.Helper()
		copied.CopyElems(dt, dst, src, n, ds, ss)
		w := uint64(dt.Width)
		for i := 0; i < n; i++ {
			v := looped.ReadElem(dt, src+uint64(i*ss)*w)
			looped.WriteElem(dt, dst+uint64(i*ds)*w, v)
		}
		if got, want := copied.Now(), looped.Now(); got != want {
			t.Fatalf("%s: clock %d, element loop %d", name, got, want)
		}
		if got, want := readHierStats(copied), readHierStats(looped); got != want {
			t.Fatalf("%s: hierarchy\nCopyElems    %+v\nelement loop %+v", name, got, want)
		}
		got, want := make([]byte, 4*region), make([]byte, 4*region)
		copied.PeekBytes(base, got)
		looped.PeekBytes(base, want)
		if !bytes.Equal(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: byte %#x is %#x, element loop %#x", name, base+uint64(i), got[i], want[i])
				}
			}
		}
	}

	widths := []DType{TypeUChar, TypeShort, TypeUInt, TypeLong}
	for _, dt := range widths {
		w := dt.Width
		for ds := 1; ds <= 3; ds++ {
			for ss := 1; ss <= 3; ss++ {
				src := base + 40*uint64(w) + 3
				for k := -3; k <= 3; k++ {
					dst := uint64(int64(src) + int64(k*w))
					check(fmt.Sprintf("%s ds=%d ss=%d overlap %+d", dt, ds, ss, k), dt, dst, src, 200, ds, ss)
				}
				check(fmt.Sprintf("%s ds=%d ss=%d disjoint", dt, ds, ss), dt, base+region+uint64(ds*ss), base+5, 300, ds, ss)
			}
		}
		// Contiguous and disjoint, several blocks long and across
		// pages, into a page nothing has written yet.
		n := (region - 8) / w
		check(fmt.Sprintf("%s contiguous, fresh pages", dt), dt, base+2*region+uint64(w)*7, base+1, n, 1, 1)
		check(fmt.Sprintf("%s contiguous, backwards neighbour", dt), dt, base+1, base+1+uint64(n*w), n, 1, 1)
	}
	check("empty", TypeLong, base, base+8, 0, 1, 1)

	for _, c := range []struct {
		name   string
		dst    uint64
		ds, ss int
	}{{"contiguous", base + region, 1, 1}, {"overlapping", base + 8, 1, 1}, {"strided", base + region, 2, 1}} {
		if a := testing.AllocsPerRun(20, func() { copied.CopyElems(TypeLong, c.dst, base, 256, c.ds, c.ss) }); a != 0 {
			t.Errorf("%s CopyElems: %v allocs/op, want 0", c.name, a)
		}
	}
}

// TestCopyChunkMovesAsElemLoop pins CopyChunk's bytes (not its price,
// which is line-granular) to the ReadElem/WriteElem loop: overlapping
// ranges smear in element order, and disjoint ones, several staging
// blocks long and onto fresh pages, land what the loop lands.
func TestCopyChunkMovesAsElemLoop(t *testing.T) {
	const region = 80 << 10
	chunked, looped := MustNew(Config{NumPEs: 1}).PE(0), MustNew(Config{NumPEs: 1}).PE(0)
	base, err := chunked.Malloc(3 * region)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := looped.Malloc(3 * region); err != nil || b != base {
		t.Fatalf("twin Malloc: %#x, %v; want %#x", b, err, base)
	}
	fill := make([]byte, region)
	rand.New(rand.NewSource(33)).Read(fill)
	chunked.PokeBytes(base, fill)
	looped.PokeBytes(base, fill)
	got, want := make([]byte, 3*region), make([]byte, 3*region)
	for _, dt := range []DType{TypeUChar, TypeShort, TypeUInt, TypeLong} {
		w := dt.Width
		src := base + 40*uint64(w) + 3
		type copyCase struct {
			name string
			dst  uint64
			n    int
		}
		cases := []copyCase{{"disjoint, fresh pages", base + 2*region + 5, (region - 64) / w}}
		for k := -3; k <= 3; k++ {
			cases = append(cases, copyCase{fmt.Sprintf("overlap %+d", k), uint64(int64(src) + int64(k*w)), 300})
		}
		for _, c := range cases {
			chunked.CopyChunk(dt, c.dst, src, c.n)
			for i := 0; i < c.n; i++ {
				looped.WriteElem(dt, c.dst+uint64(i*w), looped.ReadElem(dt, src+uint64(i*w)))
			}
			chunked.PeekBytes(base, got)
			looped.PeekBytes(base, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s %s: CopyChunk's bytes differ from the element loop's", dt, c.name)
			}
		}
	}
}
