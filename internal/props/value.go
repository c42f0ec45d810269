// Package props implements property values and property maps for
// TGraph entities (the attribute component of the paper's Section 2
// TGraph model), together with the commutative/associative aggregation
// functions used by aZoom^T (Section 3.1) and the first/last/any
// resolve functions used by wZoom^T (Section 3.2).
package props

import (
	"fmt"
	"strconv"
)

// Kind enumerates the dynamic types a property value can take.
type Kind uint8

const (
	KindNil Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is an immutable tagged-union property value. The zero Value is
// the nil value. Using a concrete union rather than interface{} keeps
// property maps allocation-light, which matters in the zoom inner
// loops.
type Value struct {
	kind Kind
	num  int64 // int payload, or bool as 0/1
	fl   float64
	str  string
}

// Nil returns the nil Value.
func Nil() Value { return Value{} }

// Bool returns a boolean Value.
func Bool(b bool) Value {
	var n int64
	if b {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// Int returns an integer Value.
func Int(i int64) Value { return Value{kind: KindInt, num: i} }

// Float returns a floating-point Value.
func Float(f float64) Value { return Value{kind: KindFloat, fl: f} }

// String returns a string Value. (Constructor; the fmt.Stringer method
// is Value.String.)
func StringVal(s string) Value { return Value{kind: KindString, str: s} }

// Kind returns the dynamic kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNil reports whether the value is the nil value.
func (v Value) IsNil() bool { return v.kind == KindNil }

// AsBool returns the boolean payload; ok is false if the kind differs.
func (v Value) AsBool() (b, ok bool) { return v.num != 0, v.kind == KindBool }

// AsInt returns the integer payload; ok is false if the kind differs.
func (v Value) AsInt() (int64, bool) { return v.num, v.kind == KindInt }

// AsFloat returns the float payload; integer values are widened. ok is
// false for other kinds.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return v.fl, true
	case KindInt:
		return float64(v.num), true
	default:
		return 0, false
	}
}

// AsString returns the string payload; ok is false if the kind differs.
func (v Value) AsString() (string, bool) { return v.str, v.kind == KindString }

// Equal reports deep equality of two values (kind and payload).
func (v Value) Equal(o Value) bool { return v == o }

// Less defines a total order over values: first by kind, then by
// payload. It is used by deterministic min/max aggregation and sorting.
func (v Value) Less(o Value) bool {
	if v.kind != o.kind {
		return v.kind < o.kind
	}
	switch v.kind {
	case KindFloat:
		return v.fl < o.fl
	case KindString:
		return v.str < o.str
	default:
		return v.num < o.num
	}
}

// String renders the value for display and round-trippable encoding.
func (v Value) String() string {
	if v.kind == KindString {
		return v.str
	}
	var buf [32]byte
	return string(v.AppendTo(buf[:0]))
}

// AppendTo appends the String rendering of the value to dst, for
// encoders that build their output in one buffer.
func (v Value) AppendTo(dst []byte) []byte {
	switch v.kind {
	case KindNil:
		return append(dst, "<nil>"...)
	case KindBool:
		return strconv.AppendBool(dst, v.num != 0)
	case KindInt:
		return strconv.AppendInt(dst, v.num, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.fl, 'g', -1, 64)
	default:
		return append(dst, v.str...)
	}
}

// Encode serialises the value as a (kind, payload) string pair for the
// storage layer.
func (v Value) Encode() (Kind, string) {
	switch v.kind {
	case KindBool, KindInt:
		return v.kind, strconv.FormatInt(v.num, 10)
	case KindFloat:
		return v.kind, strconv.FormatFloat(v.fl, 'g', -1, 64)
	case KindString:
		return v.kind, v.str
	default:
		return KindNil, ""
	}
}

// Decode reconstructs a value from its (kind, payload) encoding.
func Decode(k Kind, payload string) (Value, error) {
	switch k {
	case KindNil:
		return Nil(), nil
	case KindBool:
		n, err := strconv.ParseInt(payload, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("props: decode bool %q: %v", payload, err)
		}
		return Bool(n != 0), nil
	case KindInt:
		n, err := strconv.ParseInt(payload, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("props: decode int %q: %v", payload, err)
		}
		return Int(n), nil
	case KindFloat:
		f, err := strconv.ParseFloat(payload, 64)
		if err != nil {
			return Value{}, fmt.Errorf("props: decode float %q: %v", payload, err)
		}
		return Float(f), nil
	case KindString:
		return StringVal(payload), nil
	default:
		return Value{}, fmt.Errorf("props: decode: unknown kind %d", k)
	}
}
