package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"xbgas/internal/mem"
	"xbgas/internal/xbrtime"
)

// The executor's local steps: a copy or a combine of a Chunked plan
// moves its stride-1 ranges on the line granule, any other range on the
// element granule. The tests here drive single steps through
// execEnv.step, so they hold whatever the two granules are built from.

// localCase is one local step: StepCopy or StepCombine of cnt elements
// from element offset src to element offset dst of a PE's region, each
// side strided by the call's stride 2 when its flag is set.
type localCase struct {
	name                   string
	kind                   StepKind
	dst, src, cnt          int
	dstStrided, srcStrided bool
}

// localLong is longer than one 4 096-element block, and its byte
// length is not a multiple of a cache line.
const localLong = 2*4096 + 37

// localCases are TestLocalChunkPinned's steps, run in this order on
// one region. Offsets start 3 elements into the region, so no range
// starts on a cache line. Combines are disjoint or exactly in place:
// a partially overlapping combine is not a plan shape.
var localCases = []localCase{
	{"copy", StepCopy, 3 + localLong, 3, localLong, false, false},
	{"copy/overlap", StepCopy, 3 + localLong - 3, 3 + localLong, 300, false, false},
	{"copy/overlap+1", StepCopy, 3 + localLong + 1, 3 + localLong, 300, false, false},
	{"copy/overlap+3", StepCopy, 3 + localLong + 3, 3 + localLong, 300, false, false},
	{"copy/strided", StepCopy, 3, 3 + localLong, 500, true, false},
	{"combine", StepCombine, 3 + localLong, 3, localLong, false, false},
	{"combine/self", StepCombine, 3 + localLong, 3 + localLong, localLong, false, false},
	{"combine/strided", StepCombine, 3, 3 + localLong, 500, false, true},
}

// localStep is one local step of a plan with the given granule
// predicate, bound to a PE: run executes it through execEnv.step. It is
// built once, so a benchmark loop allocates nothing of its own.
type localStep struct {
	e execEnv
	s Step
	r Round
}

func newLocalStep(pe *xbrtime.PE, chunked bool, dt xbrtime.DType, op ReduceOp, kind StepKind, dst, src uint64, cnt int, dstStrided, srcStrided bool) *localStep {
	p := &Plan{NPEs: pe.NumPEs(), Chunked: chunked, UsesOp: kind == StepCombine}
	l := &localStep{
		e: execEnv{
			pe: pe, p: p, n: p.NPEs, me: pe.MyPE(), w: uint64(dt.Width), bulk: p.Chunked,
			a: ExecArgs{DT: dt, Op: op, Dest: dst, Src: src, Nelems: cnt, Stride: 2},
		},
		s: Step{Kind: kind, Peer: -1, Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufSrc}, Count: CountAll,
			DstStrided: dstStrided, SrcStrided: srcStrided},
	}
	if p.UsesOp {
		l.e.cost = combineCost(dt, op)
	}
	return l
}

func (l *localStep) run() error { return l.e.step(&l.s, &l.r, nil) }

// localFill is the value of element i of PE me's region: exactly
// representable for the float types, so sums stay free of NaNs and of
// rounding the host could do differently.
func localFill(dt xbrtime.DType, me, i int) uint64 {
	if dt.Kind == xbrtime.KindFloat {
		return dt.FromFloat(float64((i*7+me*13)%251) * 0.5)
	}
	return dt.FromInt(int64(i*0x9E3779B1 + me*0x85EBCA77))
}

// TestLocalChunkPinned pins what the executor's local steps cost and
// leave on a Chunked plan: after each of localCases, in order on one
// region per PE of a lockstep runtime, the sum of the PEs' clocks, the
// sums of their hierarchies' accesses and cycles, and a hash of every
// PE's region (which holds every destination block). The cases cover
// 1-, 4- and 8-byte elements, integer and float, a range longer than one
// 4 096-element block with an unaligned start and a ragged tail,
// overlapping copies, disjoint and in-place combines, and a strided
// side, which takes the element granule.
func TestLocalChunkPinned(t *testing.T) {
	want := map[string]string{
		"n2/uchar/copy":             "clock 114682 acc 518 cyc 114124 mem 2be72fddaddcb692",
		"n2/uchar/copy/overlap":     "clock 114754 acc 542 cyc 114172 mem c597e347b486f3a8",
		"n2/uchar/copy/overlap+1":   "clock 114826 acc 566 cyc 114220 mem 52d46b0d0d1a18d8",
		"n2/uchar/copy/overlap+3":   "clock 114898 acc 590 cyc 114268 mem abf0e63b7fdd9c8f",
		"n2/uchar/copy/strided":     "clock 120970 acc 2590 cyc 118340 mem 7dfdbd75f1c69012",
		"n2/uchar/combine":          "clock 140338 acc 3368 cyc 120472 mem 94a291dacb32d937",
		"n2/uchar/combine/self":     "clock 159136 acc 4148 cyc 122032 mem 0a39bf3ef0dd4785",
		"n2/uchar/combine/strided":  "clock 169208 acc 7148 cyc 128104 mem 8d71931b58298f31",
		"n2/int/copy":               "clock 456904 acc 2060 cyc 454804 mem 30909a30208362ac",
		"n2/int/copy/overlap":       "clock 457864 acc 2140 cyc 455684 mem 429e1d030ff14c99",
		"n2/int/copy/overlap+1":     "clock 458104 acc 2220 cyc 455844 mem 42ff5e3f3d758750",
		"n2/int/copy/overlap+3":     "clock 458344 acc 2300 cyc 456004 mem 1a5d59adae992f22",
		"n2/int/copy/strided":       "clock 467044 acc 4300 cyc 462704 mem f6449bd76460fb64",
		"n2/int/combine":            "clock 547204 acc 7390 cyc 523316 mem e394edf7b86197c2",
		"n2/int/combine/self":       "clock 628552 acc 10480 cyc 585116 mem a09c4914c49be21e",
		"n2/int/combine/strided":    "clock 641972 acc 13480 cyc 594536 mem 74fa9931738d7743",
		"n2/float/copy":             "clock 456904 acc 2060 cyc 454804 mem e61dc068bbf8e5a6",
		"n2/float/copy/overlap":     "clock 457864 acc 2140 cyc 455684 mem 9691d8205f2653c4",
		"n2/float/copy/overlap+1":   "clock 458104 acc 2220 cyc 455844 mem 0acd61de852db0f1",
		"n2/float/copy/overlap+3":   "clock 458344 acc 2300 cyc 456004 mem 9cd4a94fa4b7480a",
		"n2/float/copy/strided":     "clock 467044 acc 4300 cyc 462704 mem 9f7aa4b027c67e05",
		"n2/float/combine":          "clock 596578 acc 7390 cyc 523316 mem b8ab8cba63188ceb",
		"n2/float/combine/self":     "clock 727300 acc 10480 cyc 585116 mem d5fe2bb52b342e31",
		"n2/float/combine/strided":  "clock 743720 acc 13480 cyc 594536 mem cae4e62688c75dda",
		"n2/long/copy":              "clock 913636 acc 4116 cyc 909480 mem 8370c775137ac0ae",
		"n2/long/copy/overlap":      "clock 915502 acc 4270 cyc 911192 mem 69b32c5e54c13b84",
		"n2/long/copy/overlap+1":    "clock 915958 acc 4422 cyc 911496 mem b49fdc3b1eee2abb",
		"n2/long/copy/overlap+3":    "clock 916414 acc 4574 cyc 911800 mem 46591aa20c8aaaae",
		"n2/long/copy/strided":      "clock 927850 acc 6574 cyc 921236 mem 2d9982f8832a871d",
		"n2/long/combine":           "clock 1071694 acc 12748 cyc 1042448 mem b3757c085e4d6bd7",
		"n2/long/combine/self":      "clock 1217806 acc 18922 cyc 1165928 mem c39f86542fd9528b",
		"n2/long/combine/strided":   "clock 1234574 acc 21922 cyc 1178696 mem 790899b1669245b6",
		"n2/double/copy":            "clock 913636 acc 4116 cyc 909480 mem 9dc61e7e752c6f63",
		"n2/double/copy/overlap":    "clock 915502 acc 4270 cyc 911192 mem 6d7d6da4100b4997",
		"n2/double/copy/overlap+1":  "clock 915958 acc 4422 cyc 911496 mem 602e66ea9c703b04",
		"n2/double/copy/overlap+3":  "clock 916414 acc 4574 cyc 911800 mem 184a1943c8fb0a66",
		"n2/double/copy/strided":    "clock 927850 acc 6574 cyc 921236 mem 7e78709df30f662f",
		"n2/double/combine":         "clock 1121068 acc 12748 cyc 1042448 mem 559a3b2ce7c720ac",
		"n2/double/combine/self":    "clock 1316554 acc 18922 cyc 1165928 mem 4c060ed02bc27b41",
		"n2/double/combine/strided": "clock 1336322 acc 21922 cyc 1178696 mem 07bf4fa41b26e1e7",
		"n8/uchar/copy":             "clock 458728 acc 2072 cyc 456496 mem a119311fb1de8f78",
		"n8/uchar/copy/overlap":     "clock 459016 acc 2168 cyc 456688 mem 6b68a5e9c13e3ad8",
		"n8/uchar/copy/overlap+1":   "clock 459304 acc 2264 cyc 456880 mem 9859eaf06deb2566",
		"n8/uchar/copy/overlap+3":   "clock 459592 acc 2360 cyc 457072 mem 1ea53fac2592343e",
		"n8/uchar/copy/strided":     "clock 483880 acc 10360 cyc 473360 mem a959a25e540fc5e5",
		"n8/uchar/combine":          "clock 561352 acc 13472 cyc 481888 mem 9b333702187c67ae",
		"n8/uchar/combine/self":     "clock 636544 acc 16592 cyc 488128 mem a03be30503bc3684",
		"n8/uchar/combine/strided":  "clock 676832 acc 28592 cyc 512416 mem e5192421fe3adb7d",
		"n8/int/copy":               "clock 1827616 acc 8240 cyc 1819216 mem b3a7091150d5e06a",
		"n8/int/copy/overlap":       "clock 1831456 acc 8560 cyc 1822736 mem 59e41146256b01c8",
		"n8/int/copy/overlap+1":     "clock 1832416 acc 8880 cyc 1823376 mem 398b70edcf04a279",
		"n8/int/copy/overlap+3":     "clock 1833376 acc 9200 cyc 1824016 mem b9c85fdb881439c4",
		"n8/int/copy/strided":       "clock 1868176 acc 17200 cyc 1850816 mem 3fa51f0ea538704d",
		"n8/int/combine":            "clock 2188816 acc 29560 cyc 2093264 mem 62e3227ad4a674b1",
		"n8/int/combine/self":       "clock 2514208 acc 41920 cyc 2340464 mem 7ec21235342f699a",
		"n8/int/combine/strided":    "clock 2567888 acc 53920 cyc 2378144 mem af6d2f5bcabf7e55",
		"n8/float/copy":             "clock 1827616 acc 8240 cyc 1819216 mem 2b4c5d74ee64c60f",
		"n8/float/copy/overlap":     "clock 1831456 acc 8560 cyc 1822736 mem fa7b3c4438bd886c",
		"n8/float/copy/overlap+1":   "clock 1832416 acc 8880 cyc 1823376 mem 904dc1f70c9ee312",
		"n8/float/copy/overlap+3":   "clock 1833376 acc 9200 cyc 1824016 mem 545ad0e7cb507401",
		"n8/float/copy/strided":     "clock 1868176 acc 17200 cyc 1850816 mem a0d7751fc4389599",
		"n8/float/combine":          "clock 2386312 acc 29560 cyc 2093264 mem 4a901c2f09a68ca4",
		"n8/float/combine/self":     "clock 2909200 acc 41920 cyc 2340464 mem 85547d3476787a13",
		"n8/float/combine/strided":  "clock 2974880 acc 53920 cyc 2378144 mem 057bd83a03231661",
		"n8/long/copy":              "clock 3654544 acc 16464 cyc 3637920 mem 1d2076edd8f3bb7b",
		"n8/long/copy/overlap":      "clock 3662008 acc 17080 cyc 3644768 mem efccf195a598e90a",
		"n8/long/copy/overlap+1":    "clock 3663832 acc 17688 cyc 3645984 mem 06bc77b2bd259055",
		"n8/long/copy/overlap+3":    "clock 3665656 acc 18296 cyc 3647200 mem 23fb4a31313bce50",
		"n8/long/copy/strided":      "clock 3711400 acc 26296 cyc 3684944 mem aada645185b7d287",
		"n8/long/combine":           "clock 4286776 acc 50992 cyc 4169792 mem 4e1b859f48c685dd",
		"n8/long/combine/self":      "clock 4871224 acc 75688 cyc 4663712 mem 6bbea00b2e6002af",
		"n8/long/combine/strided":   "clock 4938296 acc 87688 cyc 4714784 mem e66d659fa3562fcc",
		"n8/double/copy":            "clock 3654544 acc 16464 cyc 3637920 mem 6b8599894412fb3d",
		"n8/double/copy/overlap":    "clock 3662008 acc 17080 cyc 3644768 mem b07a2bf814e37364",
		"n8/double/copy/overlap+1":  "clock 3663832 acc 17688 cyc 3645984 mem bd815b41a3c622ad",
		"n8/double/copy/overlap+3":  "clock 3665656 acc 18296 cyc 3647200 mem 3da9978e1ba2ce76",
		"n8/double/copy/strided":    "clock 3711400 acc 26296 cyc 3684944 mem 7630617241603be4",
		"n8/double/combine":         "clock 4484272 acc 50992 cyc 4169792 mem 451de26eea8c997f",
		"n8/double/combine/self":    "clock 5266216 acc 75688 cyc 4663712 mem c6eea5f4f7137244",
		"n8/double/combine/strided": "clock 5345288 acc 87688 cyc 4714784 mem 087f8bf05c4b0d56",
	}
	for _, n := range []int{2, 8} {
		for _, dt := range []xbrtime.DType{xbrtime.TypeUChar, xbrtime.TypeInt, xbrtime.TypeFloat, xbrtime.TypeLong, xbrtime.TypeDouble} {
			got := localPinRun(t, n, dt)
			for i, c := range localCases {
				name := fmt.Sprintf("n%d/%s/%s", n, dt, c.name)
				if got[i] != want[name] {
					t.Errorf("%q: %q,\n\twant %q", name, got[i], want[name])
				}
			}
		}
	}
}

// localPinRun runs localCases on every PE of a fresh lockstep runtime
// of n PEs and returns one fingerprint per case.
func localPinRun(t *testing.T, n int, dt xbrtime.DType) []string {
	t.Helper()
	const elems = 3*localLong + 16
	w := dt.Width
	rt := xbrtime.MustNew(xbrtime.Config{NumPEs: n, Deterministic: true})
	defer rt.Close()
	type print struct{ clock, acc, cyc, mem uint64 }
	prints := make([][]print, n)
	err := rt.Run(func(pe *xbrtime.PE) error {
		me := pe.MyPE()
		base, err := pe.Malloc(uint64(elems*w) + mem.LineSize)
		if err != nil {
			return err
		}
		vals := make([]uint64, elems)
		for i := range vals {
			vals[i] = localFill(dt, me, i)
		}
		pe.PokeElems(dt, base, vals)
		region := make([]byte, elems*w)
		hier := rt.Machine().Nodes[me].Hier
		for _, c := range localCases {
			dst, src := base+uint64(c.dst*w), base+uint64(c.src*w)
			if err := newLocalStep(pe, true, dt, OpSum, c.kind, dst, src, c.cnt, c.dstStrided, c.srcStrided).run(); err != nil {
				return err
			}
			pe.PeekBytes(base, region)
			f := fnv.New64a()
			f.Write(region)
			prints[me] = append(prints[me], print{pe.Now(), hier.Accesses(), hier.Cycles(), f.Sum64()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(localCases))
	for i := range out {
		var clock, acc, cyc uint64
		sum := fnv.New64a()
		for r := 0; r < n; r++ {
			p := prints[r][i]
			clock, acc, cyc = clock+p.clock, acc+p.acc, cyc+p.cyc
			fmt.Fprintf(sum, "%x,", p.mem)
		}
		out[i] = fmt.Sprintf("clock %d acc %d cyc %d mem %016x", clock, acc, cyc, sum.Sum64())
	}
	return out
}

// benchLocalStep times one local step of 4 096 int64 on PE 0 of an
// 8-PE runtime, driven directly (no Run), on the line granule (a
// Chunked plan) or the element granule. It must allocate nothing.
func benchLocalStep(b *testing.B, kind StepKind) {
	const nelems = 4096
	for _, g := range []struct {
		name    string
		chunked bool
	}{{"lines", true}, {"elems", false}} {
		b.Run(g.name, func(b *testing.B) {
			rt := xbrtime.MustNew(xbrtime.Config{NumPEs: 8})
			defer rt.Close()
			pe := rt.PE(0)
			src, err := pe.Malloc(nelems * 8)
			if err != nil {
				b.Fatal(err)
			}
			dst, err := pe.Malloc(nelems * 8)
			if err != nil {
				b.Fatal(err)
			}
			l := newLocalStep(pe, g.chunked, xbrtime.TypeInt64, OpSum, kind, dst, src, nelems, false, false)
			if err := l.run(); err != nil { // grows the PE's workspaces
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(nelems * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCopyStep is the plan executor's copy row: one StepCopy of
// 4 096 int64 (32 KiB, core's default segment) between disjoint
// buffers, on each granule.
func BenchmarkCopyStep(b *testing.B) { benchLocalStep(b, StepCopy) }

// BenchmarkCombineStep is the executor's combine row: one StepCombine
// (sum) of 4 096 int64 into a disjoint buffer, on each granule.
func BenchmarkCombineStep(b *testing.B) { benchLocalStep(b, StepCombine) }
