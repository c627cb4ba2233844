package xbrtime

import (
	"fmt"
	"math"
)

// Kind classifies a data type's arithmetic behaviour.
type Kind uint8

// Data-type kinds.
const (
	KindInt   Kind = iota // sign-extended two's-complement
	KindUint              // zero-extended unsigned
	KindFloat             // IEEE-754 binary32/binary64
)

// DType describes one of the matched type names of paper Table 1. Name
// is the TYPENAME used in the C function calls; CName the C TYPE; Width
// the element width in bytes of the Go representation.
type DType struct {
	Name  string
	CName string
	Width int
	Kind  Kind
}

// The 24 matched type names of paper Table 1, in table order.
//
// Go has no distinct long double; the runtime represents TypeLongDouble
// as a 64-bit IEEE double (the substitution is recorded in DESIGN.md).
// Aliased C types (e.g. long / long long / int64_t) intentionally map to
// the same Go width, exactly as they do on the paper's RV64 target.
var (
	TypeFloat      = DType{"float", "float", 4, KindFloat}
	TypeDouble     = DType{"double", "double", 8, KindFloat}
	TypeLongDouble = DType{"longdouble", "long double", 8, KindFloat}
	TypeChar       = DType{"char", "char", 1, KindInt}
	TypeUChar      = DType{"uchar", "unsigned char", 1, KindUint}
	TypeSChar      = DType{"schar", "signed char", 1, KindInt}
	TypeUShort     = DType{"ushort", "unsigned short", 2, KindUint}
	TypeShort      = DType{"short", "short", 2, KindInt}
	TypeUInt       = DType{"uint", "unsigned int", 4, KindUint}
	TypeInt        = DType{"int", "int", 4, KindInt}
	TypeULong      = DType{"ulong", "unsigned long", 8, KindUint}
	TypeLong       = DType{"long", "long", 8, KindInt}
	TypeULongLong  = DType{"ulonglong", "unsigned long long", 8, KindUint}
	TypeLongLong   = DType{"longlong", "long long", 8, KindInt}
	TypeUint8      = DType{"uint8", "uint8_t", 1, KindUint}
	TypeInt8       = DType{"int8", "int8_t", 1, KindInt}
	TypeUint16     = DType{"uint16", "uint16_t", 2, KindUint}
	TypeInt16      = DType{"int16", "int16_t", 2, KindInt}
	TypeUint32     = DType{"uint32", "uint32_t", 4, KindUint}
	TypeInt32      = DType{"int32", "int32_t", 4, KindInt}
	TypeUint64     = DType{"uint64", "uint64_t", 8, KindUint}
	TypeInt64      = DType{"int64", "int64_t", 8, KindInt}
	TypeSize       = DType{"size", "size_t", 8, KindUint}
	TypePtrdiff    = DType{"ptrdiff", "ptrdiff_t", 8, KindInt}
)

// Types lists the full Table 1 surface in table order.
var Types = []DType{
	TypeFloat, TypeDouble, TypeLongDouble,
	TypeChar, TypeUChar, TypeSChar,
	TypeUShort, TypeShort,
	TypeUInt, TypeInt,
	TypeULong, TypeLong,
	TypeULongLong, TypeLongLong,
	TypeUint8, TypeInt8,
	TypeUint16, TypeInt16,
	TypeUint32, TypeInt32,
	TypeUint64, TypeInt64,
	TypeSize, TypePtrdiff,
}

// TypeByName returns the DType with the given TYPENAME.
func TypeByName(name string) (DType, bool) {
	for _, dt := range Types {
		if dt.Name == name {
			return dt, true
		}
	}
	return DType{}, false
}

// Valid reports whether the descriptor is one of the supported shapes.
func (dt DType) Valid() bool {
	switch dt.Width {
	case 1, 2, 4, 8:
	default:
		return false
	}
	if dt.Kind == KindFloat && dt.Width < 4 {
		return false
	}
	return true
}

// String returns the TYPENAME.
func (dt DType) String() string { return dt.Name }

// mask returns the width mask (all ones in the low Width*8 bits).
func (dt DType) mask() uint64 {
	if dt.Width == 8 {
		return ^uint64(0)
	}
	return 1<<(8*dt.Width) - 1
}

// Canon canonicalises a raw little-endian value to the type's natural
// in-register representation: sign-extended for KindInt, zero-extended
// for KindUint, raw IEEE bits for KindFloat.
func (dt DType) Canon(raw uint64) uint64 {
	raw &= dt.mask()
	if s := dt.SignShift(); s > 0 {
		return uint64(int64(raw<<s) >> s)
	}
	return raw
}

// SignShift is the shift s by which Canon sign-extends a KindInt
// value's low Width bytes, int64(v<<s)>>s; 0 for every other kind.
func (dt DType) SignShift() uint {
	if dt.Kind != KindInt {
		return 0
	}
	return uint(64 - 8*dt.Width)
}

// Float converts a canonical value to float64 (KindFloat only).
func (dt DType) Float(canon uint64) float64 {
	if dt.Width == 4 {
		return float64(math.Float32frombits(uint32(canon)))
	}
	return math.Float64frombits(canon)
}

// FromFloat converts a float64 to the type's raw representation.
func (dt DType) FromFloat(f float64) uint64 {
	if dt.Width == 4 {
		return uint64(math.Float32bits(float32(f)))
	}
	return math.Float64bits(f)
}

// FromInt converts an integer to the type's raw representation,
// truncating to the element width.
func (dt DType) FromInt(v int64) uint64 { return uint64(v) & dt.mask() }

// FormatValue renders a canonical value for reports and traces.
func (dt DType) FormatValue(canon uint64) string {
	switch dt.Kind {
	case KindFloat:
		return fmt.Sprintf("%g", dt.Float(canon))
	case KindInt:
		return fmt.Sprintf("%d", int64(canon))
	default:
		return fmt.Sprintf("%d", canon)
	}
}
