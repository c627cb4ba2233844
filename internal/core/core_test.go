package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"xbgas/internal/xbrtime"
)

// runSPMD executes fn on every PE of a fresh runtime.
func runSPMD(t *testing.T, nPEs int, fn func(pe *xbrtime.PE) error) {
	t.Helper()
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: nPEs})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(fn); err != nil {
		t.Fatal(err)
	}
}

func TestTable2Mapping(t *testing.T) {
	// Paper Table 2: n_pes=7, root=4.
	want := map[int]int{0: 3, 1: 4, 2: 5, 3: 6, 4: 0, 5: 1, 6: 2}
	for logRank, virRank := range want {
		if got := VirtualRank(logRank, 4, 7); got != virRank {
			t.Errorf("VirtualRank(%d, root=4, n=7) = %d, want %d", logRank, got, virRank)
		}
		if got := LogicalRank(virRank, 4, 7); got != logRank {
			t.Errorf("LogicalRank(%d, root=4, n=7) = %d, want %d", virRank, got, logRank)
		}
	}
	table := Table2Mapping(7, 4)
	if !strings.Contains(table, "log_rank") || !strings.Contains(table, "root=4") {
		t.Errorf("Table2Mapping rendering:\n%s", table)
	}
}

func TestVirtualRankProperties(t *testing.T) {
	f := func(nRaw, rootRaw uint8) bool {
		n := int(nRaw%16) + 1
		root := int(rootRaw) % n
		// Root maps to virtual rank 0; the mapping is a bijection with
		// LogicalRank as its inverse.
		if VirtualRank(root, root, n) != 0 {
			return false
		}
		seen := make([]bool, n)
		for l := 0; l < n; l++ {
			v := VirtualRank(l, root, n)
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
			if LogicalRank(v, root, n) != l {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 7: 3, 8: 3, 9: 4, 12: 4, 16: 4, 17: 5}
	for n, want := range cases {
		if got := CeilLog2(n); got != want {
			t.Errorf("CeilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestBroadcastAllConfigurations(t *testing.T) {
	for _, nPEs := range []int{1, 2, 3, 4, 5, 7, 8} {
		for _, root := range []int{0, nPEs - 1, nPEs / 2} {
			nPEs, root := nPEs, root
			const nelems, stride = 6, 2
			runSPMD(t, nPEs, func(pe *xbrtime.PE) error {
				dt := xbrtime.TypeInt64
				w := uint64(dt.Width)
				dest, err := pe.Malloc(spanBytes(dt, nelems, stride))
				if err != nil {
					return err
				}
				src, err := pe.PrivateAlloc(spanBytes(dt, nelems, stride))
				if err != nil {
					return err
				}
				if pe.MyPE() == root {
					for i := 0; i < nelems; i++ {
						pe.Poke(dt, src+uint64(i*stride)*w, uint64(int64(9000+i)))
					}
				}
				if err := Broadcast(pe, dt, dest, src, nelems, stride, root); err != nil {
					return err
				}
				if err := pe.Barrier(); err != nil {
					return err
				}
				for i := 0; i < nelems; i++ {
					got := int64(pe.Peek(dt, dest+uint64(i*stride)*w))
					if got != int64(9000+i) {
						t.Errorf("n=%d root=%d PE %d elem %d = %d",
							nPEs, root, pe.MyPE(), i, got)
					}
				}
				return pe.Free(dest)
			})
		}
	}
}

func TestReduceSumMatchesReference(t *testing.T) {
	for _, nPEs := range []int{1, 2, 3, 5, 8} {
		for _, root := range []int{0, nPEs - 1} {
			nPEs, root := nPEs, root
			const nelems = 5
			rng := rand.New(rand.NewSource(int64(nPEs*100 + root)))
			contrib := make([][]int64, nPEs)
			for p := range contrib {
				contrib[p] = make([]int64, nelems)
				for i := range contrib[p] {
					contrib[p][i] = int64(rng.Intn(1000) - 500)
				}
			}
			want := make([]int64, nelems)
			for _, row := range contrib {
				for i, v := range row {
					want[i] += v
				}
			}
			runSPMD(t, nPEs, func(pe *xbrtime.PE) error {
				dt := xbrtime.TypeInt64
				w := uint64(dt.Width)
				src, err := pe.Malloc(nelems * 8)
				if err != nil {
					return err
				}
				dest, err := pe.PrivateAlloc(nelems * 8)
				if err != nil {
					return err
				}
				for i := 0; i < nelems; i++ {
					pe.Poke(dt, src+uint64(i)*w, uint64(contrib[pe.MyPE()][i]))
				}
				if err := Reduce(pe, dt, OpSum, dest, src, nelems, 1, root); err != nil {
					return err
				}
				if pe.MyPE() == root {
					for i := 0; i < nelems; i++ {
						got := int64(pe.Peek(dt, dest+uint64(i)*w))
						if got != want[i] {
							t.Errorf("n=%d root=%d elem %d = %d, want %d",
								nPEs, root, i, got, want[i])
						}
					}
				}
				return pe.Free(src)
			})
		}
	}
}

func TestReduceAllOperatorsAllKinds(t *testing.T) {
	const nPEs = 4
	dts := []xbrtime.DType{
		xbrtime.TypeInt32, xbrtime.TypeUint16, xbrtime.TypeDouble, xbrtime.TypeFloat,
		xbrtime.TypeChar, xbrtime.TypeUint64,
	}
	for _, dt := range dts {
		for _, op := range AllReduceOps() {
			if !op.ValidFor(dt) {
				continue
			}
			dt, op := dt, op
			// Exactly representable contributions keep float comparisons
			// exact regardless of combine order.
			vals := make([]uint64, nPEs)
			for p := 0; p < nPEs; p++ {
				if dt.Kind == xbrtime.KindFloat {
					vals[p] = dt.FromFloat(float64(p + 2))
				} else {
					vals[p] = dt.Canon(uint64(3*p + 1))
				}
			}
			want := vals[0]
			for p := 1; p < nPEs; p++ {
				var err error
				want, err = Combine(dt, op, want, vals[p])
				if err != nil {
					t.Fatal(err)
				}
			}
			runSPMD(t, nPEs, func(pe *xbrtime.PE) error {
				src, err := pe.Malloc(uint64(dt.Width))
				if err != nil {
					return err
				}
				dest, err := pe.PrivateAlloc(uint64(dt.Width))
				if err != nil {
					return err
				}
				pe.Poke(dt, src, vals[pe.MyPE()])
				if err := Reduce(pe, dt, op, dest, src, 1, 1, 0); err != nil {
					return err
				}
				if pe.MyPE() == 0 {
					if got := pe.Peek(dt, dest); got != want {
						t.Errorf("%s %s: got %s, want %s", dt, op,
							dt.FormatValue(got), dt.FormatValue(want))
					}
				}
				return pe.Free(src)
			})
		}
	}
}

func TestReduceRejectsBitwiseOnFloats(t *testing.T) {
	runSPMD(t, 2, func(pe *xbrtime.PE) error {
		err := Reduce(pe, xbrtime.TypeDouble, OpBand, 0, xbrtime.SharedBase, 1, 1, 0)
		if err == nil {
			t.Error("bitwise AND on double must fail")
		}
		return nil
	})
}

func TestReduceWithStride(t *testing.T) {
	const nPEs, nelems, stride = 3, 4, 3
	runSPMD(t, nPEs, func(pe *xbrtime.PE) error {
		dt := xbrtime.TypeInt32
		w := uint64(dt.Width)
		src, err := pe.Malloc(spanBytes(dt, nelems, stride))
		if err != nil {
			return err
		}
		dest, err := pe.PrivateAlloc(spanBytes(dt, nelems, stride))
		if err != nil {
			return err
		}
		for i := 0; i < nelems; i++ {
			pe.Poke(dt, src+uint64(i*stride)*w, uint64(pe.MyPE()*10+i))
		}
		if err := Reduce(pe, dt, OpSum, dest, src, nelems, stride, 0); err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			for i := 0; i < nelems; i++ {
				want := int64(0)
				for p := 0; p < nPEs; p++ {
					want += int64(p*10 + i)
				}
				got := int64(pe.Peek(dt, dest+uint64(i*stride)*w))
				if got != want {
					t.Errorf("strided elem %d = %d, want %d", i, got, want)
				}
			}
		}
		return pe.Free(src)
	})
}

func TestScatterVectored(t *testing.T) {
	for _, root := range []int{0, 4} {
		root := root
		const nPEs = 7
		// Distinct counts per PE, with gaps between blocks in src.
		msgs := []int{3, 1, 4, 1, 5, 2, 6}
		disp := make([]int, nPEs)
		off := 0
		for i, m := range msgs {
			disp[i] = off + i // i-element gap before each block
			off = disp[i] + m
		}
		total := 0
		for _, m := range msgs {
			total += m
		}
		srcElems := off
		runSPMD(t, nPEs, func(pe *xbrtime.PE) error {
			dt := xbrtime.TypeInt64
			w := uint64(dt.Width)
			dest, err := pe.Malloc(uint64(total) * w)
			if err != nil {
				return err
			}
			src, err := pe.PrivateAlloc(uint64(srcElems) * w)
			if err != nil {
				return err
			}
			if pe.MyPE() == root {
				for p := 0; p < nPEs; p++ {
					for i := 0; i < msgs[p]; i++ {
						pe.Poke(dt, src+uint64(disp[p]+i)*w, uint64(int64(1000*p+i)))
					}
				}
			}
			if err := Scatter(pe, dt, dest, src, msgs, disp, total, root); err != nil {
				return err
			}
			me := pe.MyPE()
			for i := 0; i < msgs[me]; i++ {
				got := int64(pe.Peek(dt, dest+uint64(i)*w))
				if got != int64(1000*me+i) {
					t.Errorf("root=%d PE %d elem %d = %d, want %d",
						root, me, i, got, 1000*me+i)
				}
			}
			return pe.Free(dest)
		})
	}
}

func TestGatherVectored(t *testing.T) {
	for _, root := range []int{0, 3} {
		root := root
		const nPEs = 5
		msgs := []int{2, 4, 1, 3, 2}
		disp := make([]int, nPEs)
		off := 0
		for i, m := range msgs {
			disp[i] = off
			off += m
		}
		total := off
		runSPMD(t, nPEs, func(pe *xbrtime.PE) error {
			dt := xbrtime.TypeInt32
			w := uint64(dt.Width)
			src, err := pe.PrivateAlloc(uint64(msgs[pe.MyPE()]+1) * w)
			if err != nil {
				return err
			}
			dest, err := pe.PrivateAlloc(uint64(total) * w)
			if err != nil {
				return err
			}
			for i := 0; i < msgs[pe.MyPE()]; i++ {
				pe.Poke(dt, src+uint64(i)*w, uint64(100*pe.MyPE()+i))
			}
			if err := Gather(pe, dt, dest, src, msgs, disp, total, root); err != nil {
				return err
			}
			if pe.MyPE() == root {
				for p := 0; p < nPEs; p++ {
					for i := 0; i < msgs[p]; i++ {
						got := int64(pe.Peek(dt, dest+uint64(disp[p]+i)*w))
						if got != int64(100*p+i) {
							t.Errorf("root=%d block %d elem %d = %d, want %d",
								root, p, i, got, 100*p+i)
						}
					}
				}
			}
			return nil
		})
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	// Property: gather(scatter(x)) == x, for random counts and roots.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		nPEs := 2 + rng.Intn(7)
		root := rng.Intn(nPEs)
		msgs := make([]int, nPEs)
		disp := make([]int, nPEs)
		off := 0
		for i := range msgs {
			msgs[i] = rng.Intn(5) // zero counts allowed
			disp[i] = off
			off += msgs[i]
		}
		total := off
		if total == 0 {
			continue
		}
		want := make([]int64, total)
		for i := range want {
			want[i] = int64(rng.Intn(100000) - 50000)
		}
		runSPMD(t, nPEs, func(pe *xbrtime.PE) error {
			dt := xbrtime.TypeInt64
			w := uint64(dt.Width)
			mine, err := pe.Malloc(uint64(total+1) * w)
			if err != nil {
				return err
			}
			back, err := pe.PrivateAlloc(uint64(total+1) * w)
			if err != nil {
				return err
			}
			src, err := pe.PrivateAlloc(uint64(total+1) * w)
			if err != nil {
				return err
			}
			if pe.MyPE() == root {
				for i, v := range want {
					pe.Poke(dt, src+uint64(i)*w, uint64(v))
				}
			}
			if err := Scatter(pe, dt, mine, src, msgs, disp, total, root); err != nil {
				return err
			}
			if err := Gather(pe, dt, back, mine, msgs, disp, total, root); err != nil {
				return err
			}
			if pe.MyPE() == root {
				for i, v := range want {
					if got := int64(pe.Peek(dt, back+uint64(i)*w)); got != v {
						t.Errorf("trial %d (n=%d root=%d): elem %d = %d, want %d",
							trial, nPEs, root, i, got, v)
					}
				}
			}
			return pe.Free(mine)
		})
	}
}

func TestBroadcastReduceComposition(t *testing.T) {
	// reduce_sum(broadcast(x)) == n * x.
	const nPEs = 6
	const x = int64(37)
	runSPMD(t, nPEs, func(pe *xbrtime.PE) error {
		dt := xbrtime.TypeInt64
		val, err := pe.Malloc(8)
		if err != nil {
			return err
		}
		out, err := pe.Malloc(8)
		if err != nil {
			return err
		}
		priv, err := pe.PrivateAlloc(8)
		if err != nil {
			return err
		}
		if pe.MyPE() == 2 {
			pe.Poke(dt, priv, uint64(x))
		}
		if err := Broadcast(pe, dt, val, priv, 1, 1, 2); err != nil {
			return err
		}
		if err := Reduce(pe, dt, OpSum, out, val, 1, 1, 0); err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			if got := int64(pe.Peek(dt, out)); got != int64(nPEs)*x {
				t.Errorf("composition = %d, want %d", got, int64(nPEs)*x)
			}
		}
		if err := pe.Free(val); err != nil {
			return err
		}
		return pe.Free(out)
	})
}

func TestLinearMatchesBinomial(t *testing.T) {
	const nPEs, nelems = 5, 3
	for _, algo := range []Algorithm{AlgoBinomial, AlgoLinear} {
		algo := algo
		results := make([]int64, nPEs)
		sums := make([]int64, 1)
		runSPMD(t, nPEs, func(pe *xbrtime.PE) error {
			dt := xbrtime.TypeInt64
			buf, err := pe.Malloc(nelems * 8)
			if err != nil {
				return err
			}
			out, err := pe.Malloc(nelems * 8)
			if err != nil {
				return err
			}
			priv, err := pe.PrivateAlloc(nelems * 8)
			if err != nil {
				return err
			}
			if pe.MyPE() == 1 {
				for i := 0; i < nelems; i++ {
					pe.Poke(dt, priv+uint64(i*8), uint64(int64(50+i)))
				}
			}
			if err := BroadcastWith(algo, pe, dt, buf, priv, nelems, 1, 1); err != nil {
				return err
			}
			results[pe.MyPE()] = int64(pe.Peek(dt, buf))
			if err := ReduceWith(algo, pe, dt, OpSum, out, buf, nelems, 1, 0); err != nil {
				return err
			}
			if pe.MyPE() == 0 {
				sums[0] = int64(pe.Peek(dt, out))
			}
			if err := pe.Free(buf); err != nil {
				return err
			}
			return pe.Free(out)
		})
		for p, v := range results {
			if v != 50 {
				t.Errorf("%s: PE %d broadcast value = %d", algo, p, v)
			}
		}
		if sums[0] != 50*nPEs {
			t.Errorf("%s: reduce sum = %d, want %d", algo, sums[0], 50*nPEs)
		}
	}
}

func TestSelectLogic(t *testing.T) {
	if AlgoBinomial.Select(CollBroadcast, 8, 1, 8) != AlgoBinomial {
		t.Error("explicit algorithm must not be overridden")
	}
	if AlgoLinear.Select(CollBroadcast, 8, 1, 8) != AlgoLinear {
		t.Error("explicit algorithm must not be overridden")
	}
	// Auto is the dry run's argmin and nothing else: no PE-count or
	// size rule. An 800 B broadcast is cheapest on the hierarchical
	// planner's line-granular tree at 2 and at 8 PEs alike (docs/PERF.md,
	// -sweep broadcast: 1 658 vs 4 416 cycles for linear at 2 PEs and
	// 1 KiB, 6 662 vs 17 244 for binomial at 8); TestAutoWithinBest holds
	// the whole grid to the measured best.
	for _, n := range []int{2, 8} {
		if got := AlgoAuto.Select(CollBroadcast, n, 100, 8); got != AlgoHier {
			t.Errorf("auto(broadcast, %d PEs, 800 B) = %s, want %s", n, got, AlgoHier)
		}
	}
	// Whatever auto picks implements the collective: reduce-scatter has
	// neither a linear nor a binomial form.
	for _, coll := range Collectives() {
		for _, n := range []int{1, 2, 5} {
			got := AlgoAuto.Select(coll, n, 100, 8)
			if pl, ok := LookupPlanner(got); !ok || !pl.Supports(coll) {
				t.Errorf("auto(%s, %d PEs) = %s, which does not implement it", coll, n, got)
			}
		}
	}
	for _, a := range []Algorithm{AlgoAuto, AlgoBinomial, AlgoLinear, AlgoRing, AlgoRabenseifner} {
		if a.String() == "unknown" || a.String() == "" {
			t.Errorf("missing name for %q", a)
		}
	}
	if (Algorithm("")).String() != "auto" {
		t.Errorf("zero-value Algorithm must render as auto, got %q", Algorithm("").String())
	}
}

func TestBroadcastScheduleProperties(t *testing.T) {
	for n := 1; n <= 16; n++ {
		sched := BroadcastSchedule(n)
		received := make([]bool, n)
		received[0] = true // root starts with the data
		rounds := CeilLog2(n)
		lastRound := -1
		for _, tr := range sched {
			if tr.Round < lastRound {
				t.Fatalf("n=%d: schedule not round-ordered", n)
			}
			lastRound = tr.Round
			if tr.Round < 0 || tr.Round >= rounds {
				t.Errorf("n=%d: round %d outside 0..%d", n, tr.Round, rounds-1)
			}
			if !received[tr.From] {
				t.Errorf("n=%d round %d: sender %d has no data yet", n, tr.Round, tr.From)
			}
			if received[tr.To] {
				t.Errorf("n=%d round %d: receiver %d already has data", n, tr.Round, tr.To)
			}
			received[tr.To] = true
		}
		for v, ok := range received {
			if !ok {
				t.Errorf("n=%d: virtual rank %d never receives", n, v)
			}
		}
		if len(sched) != n-1 {
			t.Errorf("n=%d: %d transfers, want %d", n, len(sched), n-1)
		}
	}
}

func TestReduceScheduleProperties(t *testing.T) {
	for n := 1; n <= 16; n++ {
		sched := ReduceSchedule(n)
		// Every non-root rank's data must be pulled exactly once, and a
		// rank must not be pulled from after it has been consumed.
		consumed := make([]bool, n)
		for _, tr := range sched {
			if consumed[tr.From] {
				t.Errorf("n=%d: rank %d consumed twice", n, tr.From)
			}
			if consumed[tr.To] {
				t.Errorf("n=%d: consumed rank %d still pulling", n, tr.To)
			}
			consumed[tr.From] = true
		}
		if consumed[0] {
			t.Errorf("n=%d: root was consumed", n)
		}
		for v := 1; v < n; v++ {
			if !consumed[v] {
				t.Errorf("n=%d: rank %d never reduced", n, v)
			}
		}
		if len(sched) != n-1 {
			t.Errorf("n=%d: %d transfers, want %d", n, len(sched), n-1)
		}
	}
}

func TestRenderTreeFigure3(t *testing.T) {
	out := RenderTree(8)
	for _, want := range []string{"round 0:", "0->4", "round 1:", "0->2", "4->6", "round 2:", "0->1", "Figure 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderTree(8) missing %q:\n%s", want, out)
		}
	}
}

func TestCombineIdentityProperty(t *testing.T) {
	dts := []xbrtime.DType{xbrtime.TypeInt16, xbrtime.TypeUint32, xbrtime.TypeDouble}
	for _, dt := range dts {
		for _, op := range AllReduceOps() {
			if !op.ValidFor(dt) {
				continue
			}
			dt, op := dt, op
			f := func(raw uint64) bool {
				x := dt.Canon(raw)
				if dt.Kind == xbrtime.KindFloat {
					// Keep NaN out: identity laws do not hold for NaN.
					if dt.Float(x) != dt.Float(x) {
						return true
					}
				}
				r, err := Combine(dt, op, x, Identity(dt, op))
				if err != nil {
					return false
				}
				return r == x
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
				t.Errorf("%s %s: %v", dt, op, err)
			}
		}
	}
}

func TestVectorValidation(t *testing.T) {
	runSPMD(t, 3, func(pe *xbrtime.PE) error {
		dt := xbrtime.TypeInt32
		if pe.MyPE() != 0 {
			return nil
		}
		base := xbrtime.SharedBase
		if err := Scatter(pe, dt, base, base, []int{1, 1}, []int{0, 1}, 2, 0); err == nil {
			t.Error("short pe_msgs must fail")
		}
		if err := Scatter(pe, dt, base, base, []int{1, 1, 1}, []int{0, 1, 2}, 5, 0); err == nil {
			t.Error("count mismatch must fail")
		}
		if err := Scatter(pe, dt, base, base, []int{-1, 2, 2}, []int{0, 1, 2}, 3, 0); err == nil {
			t.Error("negative count must fail")
		}
		if err := Gather(pe, dt, base, base, []int{1, 1, 1}, []int{0, -1, 2}, 3, 0); err == nil {
			t.Error("negative displacement must fail")
		}
		if err := Broadcast(pe, dt, base, base, 1, 1, 7); err == nil {
			t.Error("bad root must fail")
		}
		if err := Broadcast(pe, dt, base, base, -1, 1, 0); err == nil {
			t.Error("negative nelems must fail")
		}
		if err := Reduce(pe, dt, OpSum, base, base, 1, 0, 0); err == nil {
			t.Error("zero stride must fail")
		}
		return nil
	})
}

// TestTypedWrappers checks hand-computed results — independent of the
// Combine/Identity oracle the type sweeps use — for an int broadcast
// and sum, a bitwise reduction on an unsigned type and a double sum.
func TestTypedWrappers(t *testing.T) {
	const nPEs = 4
	runSPMD(t, nPEs, func(pe *xbrtime.PE) error {
		buf, err := pe.Malloc(64)
		if err != nil {
			return err
		}
		out, err := pe.Malloc(64)
		if err != nil {
			return err
		}
		priv, err := pe.PrivateAlloc(64)
		if err != nil {
			return err
		}
		dtI := xbrtime.TypeInt
		if pe.MyPE() == 0 {
			pe.Poke(dtI, priv, 11)
		}
		if err := Broadcast(pe, dtI, buf, priv, 1, 1, 0); err != nil {
			return err
		}
		if got := pe.Peek(dtI, buf); got != 11 {
			t.Errorf("int broadcast: PE %d got %d", pe.MyPE(), got)
		}
		if err := Reduce(pe, dtI, OpSum, out, buf, 1, 1, 0); err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			if got := pe.Peek(dtI, out); got != 44 {
				t.Errorf("int reduce sum = %d", got)
			}
		}
		// Bitwise operator on an unsigned type.
		pe.Poke(xbrtime.TypeUint32, buf, 1<<uint(pe.MyPE()))
		if err := Reduce(pe, xbrtime.TypeUint32, OpBor, out, buf, 1, 1, 0); err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			if got := pe.Peek(xbrtime.TypeUint32, out); got != 0b1111 {
				t.Errorf("uint32 reduce or = %#b", got)
			}
		}
		// Double sum with exactly representable values.
		dtD := xbrtime.TypeDouble
		pe.Poke(dtD, buf, dtD.FromFloat(float64(pe.MyPE())))
		if err := Reduce(pe, dtD, OpSum, out, buf, 1, 1, 0); err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			if got := dtD.Float(pe.Peek(dtD, out)); got != 6 {
				t.Errorf("double reduce sum = %v", got)
			}
		}
		if err := pe.Free(buf); err != nil {
			return err
		}
		return pe.Free(out)
	})
}

func TestBroadcastZeroElements(t *testing.T) {
	runSPMD(t, 4, func(pe *xbrtime.PE) error {
		return Broadcast(pe, xbrtime.TypeInt, xbrtime.SharedBase, xbrtime.SharedBase, 0, 1, 0)
	})
}

func TestScatterWithZeroCounts(t *testing.T) {
	// PEs with zero-element assignments must participate correctly.
	const nPEs = 4
	msgs := []int{0, 3, 0, 2}
	disp := []int{0, 0, 3, 3}
	runSPMD(t, nPEs, func(pe *xbrtime.PE) error {
		dt := xbrtime.TypeInt64
		w := uint64(dt.Width)
		dest, err := pe.Malloc(5 * w)
		if err != nil {
			return err
		}
		src, err := pe.PrivateAlloc(5 * w)
		if err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			for i := 0; i < 5; i++ {
				pe.Poke(dt, src+uint64(i)*w, uint64(i+1))
			}
		}
		if err := Scatter(pe, dt, dest, src, msgs, disp, 5, 0); err != nil {
			return err
		}
		me := pe.MyPE()
		for i := 0; i < msgs[me]; i++ {
			want := int64(disp[me] + i + 1)
			if got := int64(pe.Peek(dt, dest+uint64(i)*w)); got != want {
				t.Errorf("PE %d elem %d = %d, want %d", me, i, got, want)
			}
		}
		return pe.Free(dest)
	})
}

func TestReduceOpMetadata(t *testing.T) {
	if len(AllReduceOps()) != 7 {
		t.Errorf("paper §4.4 lists 7 operators, have %d", len(AllReduceOps()))
	}
	names := map[ReduceOp]string{
		OpSum: "sum", OpProd: "prod", OpMin: "min", OpMax: "max",
		OpBand: "and", OpBor: "or", OpBxor: "xor",
	}
	for op, want := range names {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), want)
		}
	}
	for _, op := range []ReduceOp{OpBand, OpBor, OpBxor} {
		if op.ValidFor(xbrtime.TypeFloat) || op.ValidFor(xbrtime.TypeDouble) {
			t.Errorf("%s must be invalid for floating point", op)
		}
		if !op.ValidFor(xbrtime.TypeInt32) {
			t.Errorf("%s must be valid for integers", op)
		}
	}
}
