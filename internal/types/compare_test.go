package types

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"ifdb/internal/label"
)

// compareBefore is Value.Compare as it stood before the int/int case
// moved ahead of the float conversion, kept verbatim: the order of index
// keys, sorts and merges must not have changed with it. NaN is the one
// exception: compareBefore holds it equal to every number, and Compare
// now gives it a place of its own (TestCompareNaN).
func compareBefore(v, o Value) int {
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
		// Exact path for int/int comparison avoids float rounding.
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
		switch {
		case a < b:
			return -1
		case a > b:
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

// TestCompareMatchesBefore: over random pairs of every kind — integers
// beyond 2^53, where neighbours share a float64; NaN and the infinities;
// NULL; integers against floats — Compare answers as it did, NaN apart.
func TestCompareMatchesBefore(t *testing.T) {
	g := rand.New(rand.NewSource(1))
	ints := []int64{0, 1, -1, 1 << 53, 1<<53 + 1, 1<<53 - 1, -(1 << 53) - 1, math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1}
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1 << 53, 1<<53 + 2, math.MaxInt64, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64}
	texts := []string{"", "a", "ab", "b", "\x00", "é"}
	gen := func() Value {
		switch g.Intn(8) {
		case 0:
			return Null
		case 1:
			return NewInt(ints[g.Intn(len(ints))])
		case 2:
			return NewInt(g.Int63() - g.Int63())
		case 3:
			return NewFloat(floats[g.Intn(len(floats))])
		case 4:
			return NewFloat(float64(ints[g.Intn(len(ints))]))
		case 5:
			return NewText(texts[g.Intn(len(texts))])
		case 6:
			if g.Intn(2) == 0 {
				return NewBool(g.Intn(2) == 0)
			}
			return NewTime(time.UnixMicro(g.Int63n(4) - 2))
		default:
			l := make([]label.Tag, g.Intn(3))
			for i := range l {
				l[i] = label.Tag(1 + g.Intn(3))
			}
			return NewLabel(label.New(l...))
		}
	}
	for i := 0; i < 200000; i++ {
		a, b := gen(), gen()
		if isNaN(a) || isNaN(b) {
			continue
		}
		if got, want := a.Compare(b), compareBefore(a, b); got != want {
			t.Fatalf("Compare(%v %s, %v %s) = %d, was %d", a, a.Kind(), b, b.Kind(), got, want)
		}
	}
}

func isNaN(v Value) bool { return v.kind == KindFloat && math.IsNaN(v.Float()) }

// TestCompareNaN: NaN equals every NaN and sorts above every number,
// BIGINT or DOUBLE, as in PostgreSQL; among kinds it stays after NULL
// and before TEXT. Before, it compared equal to every number, so no
// order held for a B-tree to keep (1 = NaN = 2, yet 1 < 2).
func TestCompareNaN(t *testing.T) {
	nan := NewFloat(math.NaN())
	for _, c := range []struct {
		b    Value
		want int
	}{
		{nan, 0},
		{NewFloat(math.Float64frombits(0x7ff8000000000001)), 0},
		{NewFloat(math.Inf(1)), 1},
		{NewFloat(math.Inf(-1)), 1},
		{NewFloat(math.Copysign(0, -1)), 1},
		{NewInt(math.MaxInt64), 1},
		{NewInt(math.MinInt64), 1},
		{Null, 1},
		{NewText(""), -1},
	} {
		if got := nan.Compare(c.b); got != c.want {
			t.Errorf("Compare(NaN, %v) = %d, want %d", c.b, got, c.want)
		}
		if got := c.b.Compare(nan); got != -c.want {
			t.Errorf("Compare(%v, NaN) = %d, want %d", c.b, got, -c.want)
		}
	}
}
