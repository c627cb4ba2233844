package core

import (
	"math"
	"testing"
	"testing/quick"

	"xbgas/internal/xbrtime"
)

// refCombine is a literal reimplementation of the pre-generics Combine
// — three hand-written per-kind switch blocks — kept here as the oracle
// that pins the generic kernels (arith/bitwise) to the old semantics
// bit for bit.
func refCombine(dt xbrtime.DType, op ReduceOp, a, b uint64) (uint64, bool) {
	if !op.ValidFor(dt) {
		return 0, false
	}
	switch dt.Kind {
	case xbrtime.KindFloat:
		x, y := dt.Float(a), dt.Float(b)
		var r float64
		switch op {
		case OpSum:
			r = x + y
		case OpProd:
			r = x * y
		case OpMin:
			r = x
			if y < x {
				r = y
			}
		case OpMax:
			r = x
			if y > x {
				r = y
			}
		}
		return dt.FromFloat(r), true
	case xbrtime.KindInt:
		x, y := int64(a), int64(b)
		var r int64
		switch op {
		case OpSum:
			r = x + y
		case OpProd:
			r = x * y
		case OpMin:
			r = x
			if y < x {
				r = y
			}
		case OpMax:
			r = x
			if y > x {
				r = y
			}
		case OpBand:
			r = x & y
		case OpBor:
			r = x | y
		case OpBxor:
			r = x ^ y
		}
		return dt.Canon(uint64(r)), true
	default: // KindUint
		x, y := a, b
		var r uint64
		switch op {
		case OpSum:
			r = x + y
		case OpProd:
			r = x * y
		case OpMin:
			r = x
			if y < x {
				r = y
			}
		case OpMax:
			r = x
			if y > x {
				r = y
			}
		case OpBand:
			r = x & y
		case OpBor:
			r = x | y
		case OpBxor:
			r = x ^ y
		}
		return dt.Canon(r), true
	}
}

// TestCombineMatchesReference quick-checks the generic Combine kernels
// — the scalar entry point and the slice kernel of the bulk combine
// path — against the reference switches over random canonical operands
// for every (dtype, op) cell, including NaN and infinity bit patterns
// for the float rows.
func TestCombineMatchesReference(t *testing.T) {
	f := func(rawA, rawB [5]uint64) bool {
		for _, dt := range xbrtime.Types {
			var as, bs [len(rawA)]uint64
			for i := range as {
				as[i], bs[i] = dt.Canon(rawA[i]), dt.Canon(rawB[i])
			}
			for _, op := range AllReduceOps() {
				folded := as
				sliceErr := combineSlice(dt, op, folded[:], bs[:])
				for i, a := range as {
					b := bs[i]
					want, ok := refCombine(dt, op, a, b)
					got, err := Combine(dt, op, a, b)
					if (err == nil) != ok || (sliceErr == nil) != ok {
						t.Errorf("%s %s: error=%v, slice error=%v, reference valid=%v", dt, op, err, sliceErr, ok)
						return false
					}
					if !ok && folded[i] != a {
						t.Errorf("%s %s: rejected combineSlice still wrote element %d", dt, op, i)
						return false
					}
					if ok && (got != want || folded[i] != want) {
						t.Errorf("%s %s (%#x, %#x): Combine %#x, combineSlice %#x, reference %#x",
							dt, op, a, b, got, folded[i], want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestIdentityIsNeutral checks Identity(dt, op) is a left and right
// neutral element of Combine for finite operands of every valid cell.
func TestIdentityIsNeutral(t *testing.T) {
	samples := func(dt xbrtime.DType) []uint64 {
		if dt.Kind == xbrtime.KindFloat {
			return []uint64{
				dt.FromFloat(0), dt.FromFloat(1), dt.FromFloat(-2.5),
				dt.FromFloat(1e30), dt.FromFloat(-1e-30),
			}
		}
		return []uint64{
			dt.Canon(0), dt.Canon(1), dt.Canon(^uint64(0)),
			dt.Canon(uint64(dt.Width) * 37), dt.Canon(1 << (4 * dt.Width)),
		}
	}
	for _, dt := range xbrtime.Types {
		for _, op := range AllReduceOps() {
			if !op.ValidFor(dt) {
				continue
			}
			id := Identity(dt, op)
			for _, x := range samples(dt) {
				left, err := Combine(dt, op, id, x)
				if err != nil {
					t.Fatal(err)
				}
				right, err := Combine(dt, op, x, id)
				if err != nil {
					t.Fatal(err)
				}
				if left != x || right != x {
					t.Errorf("%s %s: identity %s not neutral for %s (left %s, right %s)",
						dt, op, dt.FormatValue(id), dt.FormatValue(x),
						dt.FormatValue(left), dt.FormatValue(right))
				}
			}
		}
	}
}

// TestIdentityBounds spot-checks the identity table against the domain
// bounds the old per-kind matrix hard-coded.
func TestIdentityBounds(t *testing.T) {
	cases := []struct {
		dt   xbrtime.DType
		op   ReduceOp
		want uint64
	}{
		{xbrtime.TypeInt8, OpMin, xbrtime.TypeInt8.Canon(127)},
		{xbrtime.TypeInt8, OpMax, xbrtime.TypeInt8.Canon(uint64(uint8(128)))},
		{xbrtime.TypeUint16, OpMin, 0xFFFF},
		{xbrtime.TypeUint16, OpMax, 0},
		{xbrtime.TypeInt64, OpMin, uint64(math.MaxInt64)},
		{xbrtime.TypeInt64, OpMax, uint64(1) << 63},
		{xbrtime.TypeFloat, OpMin, xbrtime.TypeFloat.FromFloat(math.MaxFloat32)},
		{xbrtime.TypeDouble, OpMax, xbrtime.TypeDouble.FromFloat(-math.MaxFloat64)},
		{xbrtime.TypeDouble, OpSum, xbrtime.TypeDouble.FromFloat(0)},
		{xbrtime.TypeUChar, OpProd, 1},
		{xbrtime.TypeInt32, OpBand, xbrtime.TypeInt32.Canon(^uint64(0))},
		{xbrtime.TypeUint32, OpBor, 0},
		{xbrtime.TypeUint32, OpBxor, 0},
	}
	for _, c := range cases {
		if got := Identity(c.dt, c.op); got != c.want {
			t.Errorf("Identity(%s, %s) = %#x, want %#x", c.dt, c.op, got, c.want)
		}
	}
}
