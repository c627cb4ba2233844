package core

import (
	"fmt"
	"math"

	"xbgas/internal/xbrtime"
)

// ReduceOp names one of the supported reduction operators. The paper's
// implementation "supports sum, product, min, and max operations for
// all types listed in Table 1" and "bitwise AND, bitwise OR, and
// bitwise XOR ... for non-floating point types" (§4.4).
type ReduceOp uint8

// Reduction operators. The iota order pairs each constant with its
// reduceOpNames entry — the OP suffix of the C function names; which
// types an operator applies to is ValidFor's to say.
const (
	OpSum ReduceOp = iota
	OpProd
	OpMin
	OpMax
	OpBand
	OpBor
	OpBxor
)

var reduceOpNames = [...]string{"sum", "prod", "min", "max", "and", "or", "xor"}

// String returns the operator's short name as used in the C function
// names (xbrtime_TYPENAME_reduce_OP).
func (op ReduceOp) String() string {
	if int(op) < len(reduceOpNames) {
		return reduceOpNames[op]
	}
	return fmt.Sprintf("op?%d", uint8(op))
}

// AllReduceOps lists every operator, in declaration order.
func AllReduceOps() []ReduceOp {
	ops := make([]ReduceOp, len(reduceOpNames))
	for i := range ops {
		ops[i] = ReduceOp(i)
	}
	return ops
}

// ValidFor reports whether the operator applies to dt. It is the one
// definition of the dtype × op matrix: the arithmetic operators apply
// to every Table 1 type, the bitwise ones only to non-floating-point
// types (§4.4). Combine and every reduction refuse an invalid cell,
// and CSurface has no row for one.
func (op ReduceOp) ValidFor(dt xbrtime.DType) bool {
	switch op {
	case OpSum, OpProd, OpMin, OpMax:
		return true
	case OpBand, OpBor, OpBxor:
		return dt.Kind != xbrtime.KindFloat
	}
	return false
}

// combineCost is the ALU cycle charge per element combine.
func combineCost(dt xbrtime.DType, op ReduceOp) uint64 {
	if dt.Kind == xbrtime.KindFloat {
		return 4 // FP add/mul/compare latency
	}
	if op == OpProd {
		return 3 // integer multiply
	}
	return 1
}

// scalar is the arithmetic domain of one reduction kind: every Table 1
// type combines as a sign-extended int64, a zero-extended uint64, or an
// IEEE float64.
type scalar interface {
	~int64 | ~uint64 | ~float64
}

// arith is the single generic arithmetic kernel behind Combine: one
// body, instantiated once per domain, replaces the three hand-written
// per-kind switch blocks the string-template era forced into
// triplicate.
func arith[T scalar](op ReduceOp, x, y T) T {
	switch op {
	case OpSum:
		return x + y
	case OpProd:
		return x * y
	case OpMin:
		if y < x {
			return y
		}
	case OpMax:
		if y > x {
			return y
		}
	}
	return x
}

// bitwise extends arith with the integer-only operators (ValidFor
// rejects them for floats before dispatch reaches a kernel).
func bitwise[T ~int64 | ~uint64](op ReduceOp, x, y T) T {
	switch op {
	case OpBand:
		return x & y
	case OpBor:
		return x | y
	case OpBxor:
		return x ^ y
	}
	return arith(op, x, y)
}

// Combine applies op to two canonical values of type dt and returns the
// canonical result. Canonical means: sign-extended for signed integers,
// zero-extended for unsigned, raw IEEE bits for floats (see
// xbrtime.DType.Canon). The kind switch only picks the decode/encode
// pair; the arithmetic itself lives in the shared generic kernels.
func Combine(dt xbrtime.DType, op ReduceOp, a, b uint64) (uint64, error) {
	if !op.ValidFor(dt) {
		return 0, errUndefined(dt, op)
	}
	switch dt.Kind {
	case xbrtime.KindFloat:
		return dt.FromFloat(arith(op, dt.Float(a), dt.Float(b))), nil
	case xbrtime.KindInt:
		return dt.Canon(uint64(bitwise(op, int64(a), int64(b)))), nil
	default: // KindUint
		return dt.Canon(bitwise(op, a, b)), nil
	}
}

func errUndefined(dt xbrtime.DType, op ReduceOp) error {
	return fmt.Errorf("core: operator %s undefined for type %s", op, dt)
}

// combineSlice folds src into dst element-wise, dst[i] = Combine(dt,
// op, dst[i], src[i]) bit for bit, for the bulk combine path: the
// operator is validated and the type dispatched once per slice, so each
// loop is one monomorphic kernel instantiation. The loops call no DType
// method: a DType is too large to live in registers, so every inlined
// call copies it through the stack, and a load from that copy stalls
// whenever the frame lands across a cache line (bw_reduce_8pe ran 1.5x
// slower after a caller's frame shrank by 8 bytes). The float loops
// spell out Float and FromFloat; TestCombineMatchesReference holds them
// to Combine bit for bit.
func combineSlice(dt xbrtime.DType, op ReduceOp, dst, src []uint64) error {
	if !op.ValidFor(dt) {
		return errUndefined(dt, op)
	}
	src = src[:len(dst)]
	switch {
	case dt.Kind == xbrtime.KindFloat && dt.Width == 4:
		for i, x := range dst {
			a, b := math.Float32frombits(uint32(x)), math.Float32frombits(uint32(src[i]))
			dst[i] = uint64(math.Float32bits(float32(arith(op, float64(a), float64(b)))))
		}
	case dt.Kind == xbrtime.KindFloat:
		for i, x := range dst {
			dst[i] = math.Float64bits(arith(op, math.Float64frombits(x), math.Float64frombits(src[i])))
		}
	case dt.Kind == xbrtime.KindInt:
		sh := dt.SignShift()
		for i, x := range dst {
			dst[i] = uint64(bitwise(op, int64(x), int64(src[i])) << sh >> sh)
		}
	default: // KindUint
		mask := dt.Canon(^uint64(0))
		for i, x := range dst {
			dst[i] = bitwise(op, x, src[i]) & mask
		}
	}
	return nil
}

// identityClass says how an operator's identity element is built from
// the type's bounds — one table replaces the per-op × per-kind value
// matrix.
type identityClass uint8

const (
	identZero    identityClass = iota // x ⊕ 0 = x (sum, or, xor)
	identOne                          // x ⊗ 1 = x (prod)
	identAllOnes                      // x ∧ ~0 = x (and)
	identMaxVal                       // min(x, max) = x
	identMinVal                       // max(x, min) = x
)

var identities = [...]identityClass{
	OpSum:  identZero,
	OpProd: identOne,
	OpMin:  identMaxVal,
	OpMax:  identMinVal,
	OpBand: identAllOnes,
	OpBor:  identZero,
	OpBxor: identZero,
}

// Identity returns the operator's identity element for dt (used by the
// linear-reduction baseline and by tests).
func Identity(dt xbrtime.DType, op ReduceOp) uint64 {
	if int(op) >= len(identities) {
		return 0
	}
	switch identities[op] {
	case identOne:
		return fromScalar(dt, 1)
	case identAllOnes:
		return dt.Canon(^uint64(0))
	case identMaxVal:
		return maxValue(dt)
	case identMinVal:
		return minValue(dt)
	default:
		return fromScalar(dt, 0)
	}
}

// fromScalar encodes a small integer in dt's canonical representation.
func fromScalar(dt xbrtime.DType, v int64) uint64 {
	if dt.Kind == xbrtime.KindFloat {
		return dt.FromFloat(float64(v))
	}
	return dt.Canon(uint64(v))
}

// maxValue returns the largest canonical value of dt's domain.
func maxValue(dt xbrtime.DType) uint64 {
	switch dt.Kind {
	case xbrtime.KindFloat:
		return dt.FromFloat(maxFloat(dt))
	case xbrtime.KindInt:
		return dt.Canon(uint64(int64(1)<<(8*dt.Width-1) - 1)) // max signed
	default:
		return dt.Canon(^uint64(0)) // max unsigned
	}
}

// minValue returns the smallest canonical value of dt's domain.
func minValue(dt xbrtime.DType) uint64 {
	switch dt.Kind {
	case xbrtime.KindFloat:
		return dt.FromFloat(-maxFloat(dt))
	case xbrtime.KindInt:
		return dt.Canon(uint64(int64(-1) << (8*dt.Width - 1))) // min signed
	default:
		return 0
	}
}

func maxFloat(dt xbrtime.DType) float64 {
	if dt.Width == 4 {
		return 3.4028234663852886e+38 // math.MaxFloat32
	}
	return 1.7976931348623157e+308 // math.MaxFloat64
}
