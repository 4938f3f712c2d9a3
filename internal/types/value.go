// Package types defines the SQL value system shared by the storage
// engine, executor, and wire protocol.
//
// The type set is the subset of PostgreSQL types the IFDB case studies
// and benchmarks need: integers, floats, text, booleans, timestamps,
// and the INT[] representation used by the immutable _label system
// column (paper §4.2).
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"ifdb/internal/label"
)

// Kind enumerates value types.
type Kind uint8

// Value kinds.
const (
	KindNull  Kind = iota
	KindInt        // 64-bit signed integer
	KindFloat      // 64-bit float
	KindText       // UTF-8 string
	KindBool       // boolean
	KindTime       // timestamp (UTC, microsecond precision)
	KindLabel      // INT[] — label arrays, used only by the _label column
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE PRECISION"
	case KindText:
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	case KindTime:
		return "TIMESTAMP"
	case KindLabel:
		return "INT[]"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is one SQL datum. The zero Value is SQL NULL.
//
// Value is a compact tagged union: scalar payloads live in the n field,
// text in s, and labels in l. It is passed by value everywhere; labels
// are the only case with reference semantics and are treated as
// immutable.
type Value struct {
	kind Kind
	n    int64 // int, bool (0/1), time (unix micros), float (bits)
	s    string
	l    label.Label
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns a BIGINT value.
func NewInt(v int64) Value { return Value{kind: KindInt, n: v} }

// NewFloat returns a DOUBLE PRECISION value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, n: int64(math.Float64bits(v))} }

// NewText returns a TEXT value.
func NewText(v string) Value { return Value{kind: KindText, s: v} }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value {
	var n int64
	if v {
		n = 1
	}
	return Value{kind: KindBool, n: n}
}

// NewTime returns a TIMESTAMP value with microsecond precision (UTC).
func NewTime(t time.Time) Value { return Value{kind: KindTime, n: t.UnixMicro()} }

// NewLabel returns an INT[] value holding a label (used by _label).
func NewLabel(l label.Label) Value { return Value{kind: KindLabel, l: l} }

// Kind returns the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. Panics if v is not a BIGINT.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("types: Int() on %s value", v.kind))
	}
	return v.n
}

// Float returns the float payload, converting integers.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return math.Float64frombits(uint64(v.n))
	case KindInt:
		return float64(v.n)
	default:
		panic(fmt.Sprintf("types: Float() on %s value", v.kind))
	}
}

// Text returns the string payload. Panics if v is not TEXT.
func (v Value) Text() string {
	if v.kind != KindText {
		panic(fmt.Sprintf("types: Text() on %s value", v.kind))
	}
	return v.s
}

// Bool returns the boolean payload. Panics if v is not BOOLEAN.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("types: Bool() on %s value", v.kind))
	}
	return v.n != 0
}

// Time returns the timestamp payload. Panics if v is not TIMESTAMP.
func (v Value) Time() time.Time {
	if v.kind != KindTime {
		panic(fmt.Sprintf("types: Time() on %s value", v.kind))
	}
	return time.UnixMicro(v.n).UTC()
}

// Label returns the label payload. Panics if v is not INT[].
func (v Value) Label() label.Label {
	if v.kind != KindLabel {
		panic(fmt.Sprintf("types: Label() on %s value", v.kind))
	}
	return v.l
}

// Equal reports deep equality, with NULL equal only to NULL.
// (SQL three-valued logic is handled in the executor; Equal is the
// storage-level identity used by keys and tests.)
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		// Numeric cross-kind equality (1 = 1.0) matters for keys built
		// from mixed literals.
		if (v.kind == KindInt || v.kind == KindFloat) && (o.kind == KindInt || o.kind == KindFloat) {
			return v.Float() == o.Float()
		}
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindText:
		return v.s == o.s
	case KindLabel:
		return v.l.Equal(o.l)
	default:
		return v.n == o.n
	}
}

// Compare orders two values: -1, 0, +1. NULL sorts before everything.
// Values of incomparable kinds order by kind (stable but arbitrary),
// which keeps index keys total.
func (v Value) Compare(o Value) int { return Compare(&v, &o) }

// Compare is Value.Compare on pointers, for callers that walk values in
// place (the index's binary search) and need not copy two Values per
// step.
func Compare(v, o *Value) int {
	// BIGINT against BIGINT — every integer index key — is decided
	// first, exactly, and before anything is converted.
	if v.kind == KindInt && o.kind == KindInt {
		switch {
		case v.n < o.n:
			return -1
		case v.n > o.n:
			return 1
		default:
			return 0
		}
	}
	if v.kind == KindNull || o.kind == KindNull {
		switch {
		case v.kind == KindNull && o.kind == KindNull:
			return 0
		case v.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	vn := v.kind == KindInt || v.kind == KindFloat
	on := o.kind == KindInt || o.kind == KindFloat
	if vn && on {
		a, b := v.Float(), o.Float()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		case a == b:
			return 0
		}
		// A NaN is involved. As in PostgreSQL, NaN equals NaN and sorts
		// above every number: were it equal to everything, 1 = NaN = 2
		// would leave no order for an index to keep.
		switch {
		case !math.IsNaN(a):
			return -1
		case !math.IsNaN(b):
			return 1
		default:
			return 0
		}
	}
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindText:
		return strings.Compare(v.s, o.s)
	case KindLabel:
		a, b := v.l, o.l
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				if a[i] < b[i] {
					return -1
				}
				return 1
			}
		}
		switch {
		case len(a) < len(b):
			return -1
		case len(a) > len(b):
			return 1
		default:
			return 0
		}
	default: // int-encoded scalars of same kind
		switch {
		case v.n < o.n:
			return -1
		case v.n > o.n:
			return 1
		default:
			return 0
		}
	}
}

// Truthy interprets v as a SQL condition result: TRUE is true, FALSE
// and NULL are not.
func (v Value) Truthy() bool { return v.kind == KindBool && v.n != 0 }

// String renders v for display (psql-ish formatting).
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.n, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindText:
		return v.s
	case KindBool:
		if v.n != 0 {
			return "t"
		}
		return "f"
	case KindTime:
		return v.Time().Format("2006-01-02 15:04:05.999999")
	case KindLabel:
		return v.l.String()
	default:
		return fmt.Sprintf("<%s>", v.kind)
	}
}

// CoercibleTo reports whether v can be stored in a column of kind k.
func (v Value) CoercibleTo(k Kind) bool {
	if v.kind == KindNull || v.kind == k {
		return true
	}
	switch {
	case v.kind == KindInt && k == KindFloat:
		return true
	case v.kind == KindFloat && k == KindInt:
		return v.Float() == math.Trunc(v.Float())
	case v.kind == KindText && k == KindTime:
		_, err := time.Parse("2006-01-02 15:04:05", v.s)
		if err != nil {
			_, err = time.Parse("2006-01-02", v.s)
		}
		return err == nil
	}
	return false
}

// Coerce converts v to kind k, or returns an error if impossible.
func (v Value) Coerce(k Kind) (Value, error) {
	if v.kind == KindNull || v.kind == k {
		return v, nil
	}
	switch {
	case v.kind == KindInt && k == KindFloat:
		return NewFloat(float64(v.n)), nil
	case v.kind == KindFloat && k == KindInt:
		f := v.Float()
		if f != math.Trunc(f) {
			return Null, fmt.Errorf("types: cannot coerce %g to BIGINT without loss", f)
		}
		return NewInt(int64(f)), nil
	case v.kind == KindText && k == KindTime:
		if t, err := time.Parse("2006-01-02 15:04:05", v.s); err == nil {
			return NewTime(t), nil
		}
		if t, err := time.Parse("2006-01-02", v.s); err == nil {
			return NewTime(t), nil
		}
		return Null, fmt.Errorf("types: cannot parse %q as TIMESTAMP", v.s)
	}
	return Null, fmt.Errorf("types: cannot coerce %s to %s", v.kind, k)
}
