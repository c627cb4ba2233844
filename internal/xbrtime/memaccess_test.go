package xbrtime

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
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

// BenchmarkUpdateElem is BenchmarkLocalElem's read-modify-write row:
// one op is one UpdateElem that increments an element at a
// pseudo-random index into a 16 KiB region, the way NAS IS's ranking
// loops bump ranked[key-lo]. It must allocate nothing.
func BenchmarkUpdateElem(b *testing.B) {
	const region = 16 << 10
	const elems = region / 8
	dt := TypeInt64
	pe := MustNew(Config{NumPEs: 1}).PE(0)
	base, err := pe.Malloc(region)
	if err != nil {
		b.Fatal(err)
	}
	inc := func(v uint64) uint64 { return v + 1 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := base + (uint64(i)*0x9E3779B97F4A7C15>>40)%elems*8
		pe.UpdateElem(dt, a, inc)
	}
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
		copied.CopyElems(dt, dst, src, n, ds, ss, false)
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
		if a := testing.AllocsPerRun(20, func() { copied.CopyElems(TypeLong, c.dst, base, 256, c.ds, c.ss, false) }); a != 0 {
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

// twinPEs returns the PEs of two one-PE runtimes, each with size bytes
// allocated at the same base address and filled with the same random
// bytes.
func twinPEs(t *testing.T, size int, seed int64) (a, b *PE, base uint64) {
	t.Helper()
	a, b = MustNew(Config{NumPEs: 1}).PE(0), MustNew(Config{NumPEs: 1}).PE(0)
	base, err := a.Malloc(uint64(size))
	if err != nil {
		t.Fatal(err)
	}
	if bb, err := b.Malloc(uint64(size)); err != nil || bb != base {
		t.Fatalf("twin Malloc: %#x, %v; want %#x", bb, err, base)
	}
	fill := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(fill)
	a.PokeBytes(base, fill)
	b.PokeBytes(base, fill)
	return a, b, base
}

// checkTwins fails unless the twins' clocks, hierarchy counters and
// the size bytes at base agree.
func checkTwins(t *testing.T, name string, got, want *PE, base uint64, size int) {
	t.Helper()
	if g, w := got.Now(), want.Now(); g != w {
		t.Fatalf("%s: clock %d, element loop %d", name, g, w)
	}
	if g, w := readHierStats(got), readHierStats(want); g != w {
		t.Fatalf("%s: hierarchy\ncall         %+v\nelement loop %+v", name, g, w)
	}
	checkBytes(t, name, got, want, base, size)
}

// checkBytes fails unless the size bytes at base of got and want agree.
func checkBytes(t *testing.T, name string, got, want *PE, base uint64, size int) {
	t.Helper()
	g, w := make([]byte, size), make([]byte, size)
	got.PeekBytes(base, g)
	want.PeekBytes(base, w)
	if !slices.Equal(g, w) {
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: byte %#x is %#x, element loop %#x", name, base+uint64(i), g[i], w[i])
			}
		}
	}
}

// TestUpdateElemsMatchesElemLoop pins UpdateElem, UpdateElems and
// ReadElems to their definitions on twin one-PE runtimes: UpdateElem is
// ReadElem and WriteElem of one address, UpdateElems that pair over a
// contiguous run, ReadElems a ReadElem loop. The clock, the hierarchy
// counters, every byte and the values returned must agree after each
// call, for signed, unsigned and float elements at aligned,
// line-straddling and page-straddling addresses, and none of the three
// may allocate.
func TestUpdateElemsMatchesElemLoop(t *testing.T) {
	const region = 3 * 4096
	called, looped, base := twinPEs(t, region, 38)
	rng := rand.New(rand.NewSource(38))
	bump := func(v uint64) uint64 { return v*3 + 1 }
	for _, dt := range []DType{TypeSChar, TypeUShort, TypeInt, TypeULong, TypeDouble} {
		w := uint64(dt.Width)
		for k := 0; k < 300; k++ {
			a := base + uint64(rng.Intn(region-8))
			if k%3 == 0 {
				a -= a % w
			}
			old := called.UpdateElem(dt, a, bump)
			v := looped.ReadElem(dt, a)
			looped.WriteElem(dt, a, bump(v))
			if old != v {
				t.Fatalf("%s UpdateElem %#x: returned %#x, ReadElem %#x", dt, a, old, v)
			}
			checkTwins(t, fmt.Sprintf("%s UpdateElem %#x", dt, a), called, looped, base, region)
		}
		for _, c := range []struct {
			name string
			addr uint64
			n    int
		}{{"aligned", base + 8*w, 200}, {"unaligned", base + 3, 500}, {"across pages", base + 4096 - 5*w - 1, 1500 / int(w)}, {"one", base + 64 - 1, 1}} {
			called.UpdateElems(dt, c.addr, c.n, bump)
			for i := 0; i < c.n; i++ {
				a := c.addr + uint64(i)*w
				looped.WriteElem(dt, a, bump(looped.ReadElem(dt, a)))
			}
			checkTwins(t, fmt.Sprintf("%s UpdateElems %s", dt, c.name), called, looped, base, region)

			got := make([]uint64, c.n)
			called.ReadElems(dt, c.addr, got)
			for i := range got {
				if v := looped.ReadElem(dt, c.addr+uint64(i)*w); got[i] != v {
					t.Fatalf("%s ReadElems %s: element %d is %#x, ReadElem %#x", dt, c.name, i, got[i], v)
				}
			}
			checkTwins(t, fmt.Sprintf("%s ReadElems %s", dt, c.name), called, looped, base, region)
		}
	}
	called.UpdateElems(TypeLong, base, 0, bump)
	called.ReadElems(TypeLong, base, nil)
	checkTwins(t, "empty", called, looped, base, region)

	buf := make([]uint64, 256)
	for name, f := range map[string]func(){
		"UpdateElem":  func() { called.UpdateElem(TypeLong, base+72, bump) },
		"UpdateElems": func() { called.UpdateElems(TypeLong, base, 256, bump) },
		"ReadElems":   func() { called.ReadElems(TypeLong, base, buf) },
	} {
		if a := testing.AllocsPerRun(20, f); a != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, a)
		}
	}
}

// TestCombineElemsMatchesElemLoop pins CombineElems to its definition,
// a loop of ReadElem at dst, ReadElem at src and WriteElem at dst, on
// twin one-PE runtimes: the clock, the hierarchy counters and every
// byte must agree after each call, for every width and signedness,
// strides 1-3 on either side, ranges overlapping by -3..+3 elements
// (which smear in element order), dst == src, and disjoint ranges; and
// a call must not allocate. A third runtime makes every call with
// stride 1 on both sides on the line granule, and its bytes must agree
// too.
func TestCombineElemsMatchesElemLoop(t *testing.T) {
	const region = 3 * 4096
	called, looped, base := twinPEs(t, 2*region, 39)
	lined, _, _ := twinPEs(t, 2*region, 39)
	combine := func(x, y uint64) uint64 { return x*5 + y }
	kernel := func(xs, ys []uint64) {
		for i, x := range xs {
			xs[i] = combine(x, ys[i])
		}
	}
	check := func(name string, dt DType, dst, src uint64, n, ds, ss int) {
		t.Helper()
		called.CombineElems(dt, dst, src, n, ds, ss, false, kernel)
		lined.CombineElems(dt, dst, src, n, ds, ss, ds == 1 && ss == 1, kernel)
		w := uint64(dt.Width)
		for i := 0; i < n; i++ {
			d := dst + uint64(i*ds)*w
			x := looped.ReadElem(dt, d)
			y := looped.ReadElem(dt, src+uint64(i*ss)*w)
			looped.WriteElem(dt, d, combine(x, y))
		}
		checkTwins(t, name, called, looped, base, 2*region)
		checkBytes(t, name+" (lines)", lined, looped, base, 2*region)
	}
	for _, dt := range []DType{TypeSChar, TypeUShort, TypeInt, TypeULong, TypeDouble} {
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
		check(fmt.Sprintf("%s contiguous across pages", dt), dt, base+region+7, base+1, (region-8)/w, 1, 1)
	}
	check("empty", TypeLong, base, base+8, 0, 1, 1)

	for _, c := range []struct {
		name   string
		dst    uint64
		ds, ss int
	}{{"contiguous", base + region, 1, 1}, {"overlapping", base + 8, 1, 1}, {"strided", base + region, 2, 1}} {
		if a := testing.AllocsPerRun(20, func() { called.CombineElems(TypeLong, c.dst, base, 256, c.ds, c.ss, false, kernel) }); a != 0 {
			t.Errorf("%s CombineElems: %v allocs/op, want 0", c.name, a)
		}
	}
}
