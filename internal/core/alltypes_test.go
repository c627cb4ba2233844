package core

import (
	"strings"
	"testing"

	"xbgas/internal/xbrtime"
)

// The sweeps below push every Table 1 type through every collective,
// and every operator ValidFor admits through every reduction, against
// the sequential Combine/Identity oracle: the cells core.CSurface
// names, executed through the entry points that take the type and the
// operator as values.

// forEveryType runs body as an SPMD program on nPEs PEs once per Table
// 1 type, in a subtest named after it. Every PE gets two symmetric
// buffers and a private one of 2·nPEs elements each.
func forEveryType(t *testing.T, nPEs int, body func(t *testing.T, pe *xbrtime.PE, dt xbrtime.DType, buf, vec, out uint64) error) {
	for _, dt := range xbrtime.Types {
		t.Run(dt.Name, func(t *testing.T) {
			size := uint64(dt.Width * 2 * nPEs)
			runSPMD(t, nPEs, func(pe *xbrtime.PE) error {
				buf, err := pe.Malloc(size)
				if err != nil {
					return err
				}
				vec, err := pe.Malloc(size)
				if err != nil {
					return err
				}
				out, err := pe.PrivateAlloc(size)
				if err != nil {
					return err
				}
				if err := body(t, pe, dt, buf, vec, out); err != nil {
					return err
				}
				if err := pe.Free(buf); err != nil {
					return err
				}
				return pe.Free(vec)
			})
		})
	}
}

// foldOracle is the sequential reduction every reduce-kind collective
// must reproduce: op folded over contrib(0..n-1) from the identity.
func foldOracle(dt xbrtime.DType, op ReduceOp, n int, contrib func(p int) uint64) (uint64, error) {
	acc := Identity(dt, op)
	for p := 0; p < n; p++ {
		var err error
		if acc, err = Combine(dt, op, acc, contrib(p)); err != nil {
			return 0, err
		}
	}
	return acc, nil
}

// validOps lists the operators defined for dt in AllReduceOps order, so
// every PE issues the same collective sequence.
func validOps(dt xbrtime.DType) []ReduceOp {
	var ops []ReduceOp
	for _, op := range AllReduceOps() {
		if op.ValidFor(dt) {
			ops = append(ops, op)
		}
	}
	return ops
}

// oneEach is the vectored-collective layout of one element per PE in
// rank order.
func oneEach(n int) (msgs, disp []int) {
	msgs, disp = make([]int, n), make([]int, n)
	for i := range msgs {
		msgs[i], disp[i] = 1, i
	}
	return msgs, disp
}

// sweepRooted drives the paper's four rooted collectives (§4), each
// from a different root: broadcast, scatter then gather, and a
// reduction per valid operator.
func sweepRooted(t *testing.T, pe *xbrtime.PE, dt xbrtime.DType, buf, vec, out uint64) error {
	me, n, w := pe.MyPE(), pe.NumPEs(), uint64(dt.Width)
	val := func(k int) uint64 { return fromScalar(dt, int64(k)) }
	bcastRoot, scatterRoot, gatherRoot, reduceRoot := n/2, n/2-1, (n/2+1)%n, n-1
	msgs, disp := oneEach(n)

	sample := val(107) // fits every width
	if dt.Kind == xbrtime.KindFloat {
		sample = dt.FromFloat(2.5)
	}
	if me == bcastRoot {
		pe.Poke(dt, out, sample)
	}
	if err := Broadcast(pe, dt, buf, out, 1, 1, bcastRoot); err != nil {
		return err
	}
	if got := pe.Peek(dt, buf); got != sample {
		t.Errorf("%s broadcast: PE %d got %s, want %s",
			dt, me, dt.FormatValue(got), dt.FormatValue(sample))
	}

	if me == scatterRoot {
		for i := 0; i < n; i++ {
			pe.Poke(dt, out+uint64(i)*w, val(i+1))
		}
	}
	if err := Scatter(pe, dt, buf, out, msgs, disp, n, scatterRoot); err != nil {
		return err
	}
	if got := pe.Peek(dt, buf); got != val(me+1) {
		t.Errorf("%s scatter: PE %d got %s, want %s",
			dt, me, dt.FormatValue(got), dt.FormatValue(val(me+1)))
	}
	if err := Gather(pe, dt, vec, buf, msgs, disp, n, gatherRoot); err != nil {
		return err
	}
	if me == gatherRoot {
		for i := 0; i < n; i++ {
			if got := pe.Peek(dt, vec+uint64(i)*w); got != val(i+1) {
				t.Errorf("%s gather elem %d: got %s, want %s",
					dt, i, dt.FormatValue(got), dt.FormatValue(val(i+1)))
			}
		}
	}

	for _, op := range validOps(dt) {
		pe.Poke(dt, buf, val(me+1))
		if err := Reduce(pe, dt, op, out, buf, 1, 1, reduceRoot); err != nil {
			return err
		}
		if me != reduceRoot {
			continue
		}
		want, err := foldOracle(dt, op, n, func(p int) uint64 { return val(p + 1) })
		if err != nil {
			return err
		}
		if got := pe.Peek(dt, out); got != want {
			t.Errorf("%s reduce %s: got %s, want %s",
				dt, op, dt.FormatValue(got), dt.FormatValue(want))
		}
	}
	return nil
}

// sweepExtensions drives the §7 extensions: reduction-to-all and
// reduce-scatter per valid operator, gather-to-all, and personalized
// all-to-all.
func sweepExtensions(t *testing.T, pe *xbrtime.PE, dt xbrtime.DType, buf, vec uint64) error {
	me, n, w := pe.MyPE(), pe.NumPEs(), uint64(dt.Width)
	val := func(k int) uint64 { return fromScalar(dt, int64(k)) }
	msgs, disp := oneEach(n)

	for _, op := range validOps(dt) {
		if err := pe.Barrier(); err != nil {
			return err
		}
		pe.Poke(dt, buf, val(me+1))
		if err := AllReduce(pe, dt, op, vec, buf, 1, 1); err != nil {
			return err
		}
		want, err := foldOracle(dt, op, n, func(p int) uint64 { return val(p + 1) })
		if err != nil {
			return err
		}
		if got := pe.Peek(dt, vec); got != want {
			t.Errorf("%s allreduce %s: PE %d got %s, want %s",
				dt, op, me, dt.FormatValue(got), dt.FormatValue(want))
		}

		if err := pe.Barrier(); err != nil {
			return err
		}
		for j := 0; j < n; j++ {
			pe.Poke(dt, buf+uint64(j)*w, val(me+j+1))
		}
		if err := ReduceScatter(pe, dt, op, vec, buf, n); err != nil {
			return err
		}
		// With nelems == n, PE me owns global element me.
		want, err = foldOracle(dt, op, n, func(p int) uint64 { return val(p + me + 1) })
		if err != nil {
			return err
		}
		if got := pe.Peek(dt, vec); got != want {
			t.Errorf("%s reduce_scatter %s: PE %d got %s, want %s",
				dt, op, me, dt.FormatValue(got), dt.FormatValue(want))
		}
	}

	if err := pe.Barrier(); err != nil {
		return err
	}
	pe.Poke(dt, buf, val(me+40))
	if err := AllGather(pe, dt, vec, buf, msgs, disp, n); err != nil {
		return err
	}
	for p := 0; p < n; p++ {
		if got := pe.Peek(dt, vec+uint64(p)*w); got != val(p+40) {
			t.Errorf("%s allgather: PE %d elem %d got %s, want %s",
				dt, me, p, dt.FormatValue(got), dt.FormatValue(val(p+40)))
		}
	}

	// Block j of buf on PE i arrives as block i of vec on PE j.
	if err := pe.Barrier(); err != nil {
		return err
	}
	for j := 0; j < n; j++ {
		pe.Poke(dt, buf+uint64(j)*w, val(1+me*n+j))
	}
	if err := Alltoall(pe, dt, vec, buf, 1); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if got := pe.Peek(dt, vec+uint64(i)*w); got != val(1+i*n+me) {
			t.Errorf("%s alltoall: PE %d block %d got %s, want %s",
				dt, me, i, dt.FormatValue(got), dt.FormatValue(val(1+i*n+me)))
		}
	}
	return nil
}

// TestEveryTable1TypeThroughEveryCollective runs both sweeps on 4 PEs,
// the power-of-two shape of the paper's Figure 3 tree.
func TestEveryTable1TypeThroughEveryCollective(t *testing.T) {
	forEveryType(t, 4, func(t *testing.T, pe *xbrtime.PE, dt xbrtime.DType, buf, vec, out uint64) error {
		if err := sweepRooted(t, pe, dt, buf, vec, out); err != nil {
			return err
		}
		return sweepExtensions(t, pe, dt, buf, vec)
	})
}

// TestEveryGeneratedWrapperDelegates runs the rooted sweep on 3 PEs:
// the same cells where the tree is lopsided and one virtual rank has no
// partner in the last round. (The name, like the next test's, dates
// from the generated per-type wrappers these sweeps used to call; the
// tier-1 floor list pins it.)
func TestEveryGeneratedWrapperDelegates(t *testing.T) {
	forEveryType(t, 3, sweepRooted)
}

// TestEveryGeneratedExtensionWrapperDelegates runs the extension sweep
// on 3 PEs, where recursive halving and doubling cannot pair every
// rank and the auto-selected planners take their non-power-of-two
// paths.
func TestEveryGeneratedExtensionWrapperDelegates(t *testing.T) {
	forEveryType(t, 3, func(t *testing.T, pe *xbrtime.PE, dt xbrtime.DType, buf, vec, _ uint64) error {
		return sweepExtensions(t, pe, dt, buf, vec)
	})
}

// TestValidForMatchesGeneratedSurface pins the no-third-state property
// of the dtype × op matrix: for every cell, ValidFor is true, Combine
// and all three reductions accept it and CSurface names it under each
// of them — or ValidFor is false, all four return the
// undefined-operator error and CSurface has no such row.
func TestValidForMatchesGeneratedSurface(t *testing.T) {
	type cell struct {
		entry, dt string
		op        ReduceOp
	}
	named := map[cell]bool{}
	for _, e := range CSurface() {
		if e.HasOp {
			named[cell{e.Entry, e.Type.Name, e.Op}] = true
		}
	}
	reductions := map[string]func(pe *xbrtime.PE, dt xbrtime.DType, op ReduceOp, dest, src uint64) error{
		"Reduce": func(pe *xbrtime.PE, dt xbrtime.DType, op ReduceOp, dest, src uint64) error {
			return Reduce(pe, dt, op, dest, src, 2, 1, 0)
		},
		"AllReduce": func(pe *xbrtime.PE, dt xbrtime.DType, op ReduceOp, dest, src uint64) error {
			return AllReduce(pe, dt, op, dest, src, 2, 1)
		},
		"ReduceScatter": func(pe *xbrtime.PE, dt xbrtime.DType, op ReduceOp, dest, src uint64) error {
			return ReduceScatter(pe, dt, op, dest, src, 2)
		},
	}
	undefined := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), "undefined for type")
	}
	// Every PE walks the cells in the same order and sees the same
	// verdict, so a refused cell is refused everywhere and the next
	// collective still lines up.
	runSPMD(t, 2, func(pe *xbrtime.PE) error {
		src, err := pe.Malloc(16)
		if err != nil {
			return err
		}
		dest, err := pe.Malloc(16)
		if err != nil {
			return err
		}
		for _, dt := range xbrtime.Types {
			for _, op := range AllReduceOps() {
				valid := op.ValidFor(dt)
				_, err := Combine(dt, op, Identity(dt, op), Identity(dt, op))
				if valid && err != nil || !valid && !undefined(err) {
					t.Errorf("cell (%s, %s): Combine error %v but ValidFor=%v", dt, op, err, valid)
				}
				for _, name := range []string{"Reduce", "AllReduce", "ReduceScatter"} {
					if named[cell{name, dt.Name, op}] != valid {
						t.Errorf("cell (%s, %s): CSurface names it under %s = %v but ValidFor=%v — a third state",
							dt, op, name, !valid, valid)
					}
					pe.Poke(dt, src, Identity(dt, op))
					pe.Poke(dt, src+8, Identity(dt, op))
					err := reductions[name](pe, dt, op, dest, src)
					if valid && err != nil || !valid && !undefined(err) {
						t.Errorf("cell (%s, %s): %s error %v but ValidFor=%v", dt, op, name, err, valid)
					}
				}
			}
		}
		if err := pe.Free(src); err != nil {
			return err
		}
		return pe.Free(dest)
	})
}

// TestCollectivesAtPaperCoreCount runs the collectives at 12 PEs — the
// core count of the paper's simulation environment (§5.1).
func TestCollectivesAtPaperCoreCount(t *testing.T) {
	const nPEs = 12
	runSPMD(t, nPEs, func(pe *xbrtime.PE) error {
		dt := xbrtime.TypeInt64
		buf, err := pe.Malloc(8)
		if err != nil {
			return err
		}
		out, err := pe.Malloc(8)
		if err != nil {
			return err
		}
		src, err := pe.PrivateAlloc(8)
		if err != nil {
			return err
		}
		if pe.MyPE() == 7 {
			pe.Poke(dt, src, 1234)
		}
		if err := Broadcast(pe, dt, buf, src, 1, 1, 7); err != nil {
			return err
		}
		if got := pe.Peek(dt, buf); got != 1234 {
			t.Errorf("PE %d broadcast at 12 PEs = %d", pe.MyPE(), got)
		}
		pe.Poke(dt, buf, uint64(pe.MyPE()))
		if err := Reduce(pe, dt, OpSum, out, buf, 1, 1, 11); err != nil {
			return err
		}
		if pe.MyPE() == 11 {
			if got := int64(pe.Peek(dt, out)); got != 66 { // 0+..+11
				t.Errorf("reduce at 12 PEs = %d, want 66", got)
			}
		}
		if err := pe.Free(buf); err != nil {
			return err
		}
		return pe.Free(out)
	})
}
