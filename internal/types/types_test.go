package types

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ifdb/internal/label"
)

func TestConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Fatal("Null")
	}
	if v := NewInt(42); v.Int() != 42 || v.Kind() != KindInt {
		t.Fatal("Int")
	}
	if v := NewFloat(2.5); v.Float() != 2.5 {
		t.Fatal("Float")
	}
	if v := NewText("hi"); v.Text() != "hi" {
		t.Fatal("Text")
	}
	if v := NewBool(true); !v.Bool() || !v.Truthy() {
		t.Fatal("Bool")
	}
	if v := NewBool(false); v.Truthy() {
		t.Fatal("false truthy")
	}
	ts := time.Date(2013, 4, 15, 12, 0, 0, 0, time.UTC)
	if v := NewTime(ts); !v.Time().Equal(ts) {
		t.Fatal("Time")
	}
	l := label.New(1, 2)
	if v := NewLabel(l); !v.Label().Equal(l) {
		t.Fatal("Label")
	}
	// Int() on float must panic: catch misuse early.
	defer func() {
		if recover() == nil {
			t.Fatal("Int() on float did not panic")
		}
	}()
	_ = NewFloat(1).Int()
}

func TestEqualCrossNumeric(t *testing.T) {
	if !NewInt(1).Equal(NewFloat(1.0)) {
		t.Fatal("1 != 1.0")
	}
	if NewInt(1).Equal(NewFloat(1.5)) {
		t.Fatal("1 == 1.5")
	}
	if NewInt(1).Equal(NewText("1")) {
		t.Fatal("1 == '1'")
	}
	if !Null.Equal(Null) {
		t.Fatal("NULL != NULL at storage level")
	}
	if Null.Equal(NewInt(0)) {
		t.Fatal("NULL == 0")
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null, NewInt(1), -1},
		{NewInt(1), Null, 1},
		{Null, Null, 0},
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewFloat(2.5), 1},
		{NewText("a"), NewText("b"), -1},
		{NewBool(false), NewBool(true), -1},
		{NewLabel(label.New(1)), NewLabel(label.New(1, 2)), -1},
		{NewLabel(label.New(2)), NewLabel(label.New(1, 2)), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLargeIntCompareExact(t *testing.T) {
	// Values beyond float53 must still compare exactly.
	a := NewInt(1 << 60)
	b := NewInt(1<<60 + 1)
	if a.Compare(b) != -1 || b.Compare(a) != 1 {
		t.Fatal("large int comparison lost precision")
	}
}

func TestCoerce(t *testing.T) {
	if v, err := NewInt(3).Coerce(KindFloat); err != nil || v.Float() != 3.0 {
		t.Fatalf("int->float: %v %v", v, err)
	}
	if v, err := NewFloat(3.0).Coerce(KindInt); err != nil || v.Int() != 3 {
		t.Fatalf("float->int: %v %v", v, err)
	}
	if _, err := NewFloat(3.5).Coerce(KindInt); err == nil {
		t.Fatal("lossy float->int allowed")
	}
	if v, err := NewText("2013-04-15 12:30:00").Coerce(KindTime); err != nil || v.Time().Hour() != 12 {
		t.Fatalf("text->time: %v %v", v, err)
	}
	if v, err := NewText("2013-04-15").Coerce(KindTime); err != nil || v.Time().Year() != 2013 {
		t.Fatalf("date->time: %v %v", v, err)
	}
	if _, err := NewText("nope").Coerce(KindTime); err == nil {
		t.Fatal("bad time coerced")
	}
	if _, err := NewBool(true).Coerce(KindInt); err == nil {
		t.Fatal("bool->int allowed")
	}
	if v, err := Null.Coerce(KindInt); err != nil || !v.IsNull() {
		t.Fatal("NULL must coerce to anything")
	}
	if !NewInt(1).CoercibleTo(KindFloat) || NewBool(true).CoercibleTo(KindText) {
		t.Fatal("CoercibleTo wrong")
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewInt(-7), "-7"},
		{NewFloat(2.5), "2.5"},
		{NewText("x"), "x"},
		{NewBool(true), "t"},
		{NewBool(false), "f"},
		{NewLabel(label.New(3, 1)), "{1,3}"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func randValue(r *rand.Rand) Value {
	switch r.Intn(7) {
	case 0:
		return Null
	case 1:
		return NewInt(r.Int63() - r.Int63())
	case 2:
		return NewFloat(r.NormFloat64())
	case 3:
		buf := make([]byte, r.Intn(20))
		r.Read(buf)
		return NewText(string(buf))
	case 4:
		return NewBool(r.Intn(2) == 0)
	case 5:
		return NewTime(time.UnixMicro(r.Int63n(1 << 50)).UTC())
	default:
		n := r.Intn(4)
		tags := make([]label.Tag, n)
		for i := range tags {
			tags[i] = label.Tag(1 + r.Intn(100))
		}
		return NewLabel(label.New(tags...))
	}
}

// Property: every value round-trips through the binary encoding and
// EncodedSize is exact.
func TestQuickEncodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randValue(r)
		buf, err := AppendEncode(nil, v)
		if err != nil {
			return false
		}
		if len(buf) != EncodedSize(v) {
			return false
		}
		got, n, err := DecodeValue(buf)
		if err != nil || n != len(buf) {
			return false
		}
		// NaN != NaN; compare bit patterns via String for floats.
		if v.Kind() == KindFloat && math.IsNaN(v.Float()) {
			return got.Kind() == KindFloat && math.IsNaN(got.Float())
		}
		return got.Equal(v) && got.Kind() == v.Kind()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: rows round-trip.
func TestQuickRowRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		row := make([]Value, r.Intn(8))
		for i := range row {
			row[i] = randValue(r)
		}
		buf, err := EncodeRow(nil, row)
		if err != nil {
			return false
		}
		got, n, err := DecodeRow(buf)
		if err != nil || n != len(buf) || len(got) != len(row) {
			return false
		}
		for i := range row {
			if row[i].Kind() == KindFloat && math.IsNaN(row[i].Float()) {
				continue
			}
			if !got[i].Equal(row[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeValue(nil); err == nil {
		t.Fatal("decoded empty")
	}
	if _, _, err := DecodeValue([]byte{byte(KindInt), 1, 2}); err == nil {
		t.Fatal("decoded truncated int")
	}
	if _, _, err := DecodeValue([]byte{200}); err == nil {
		t.Fatal("decoded unknown kind")
	}
	if _, _, err := DecodeRow([]byte{}); err == nil {
		t.Fatal("decoded empty row")
	}
	// Row claiming 3 values but containing 1.
	buf, _ := EncodeRow(nil, []Value{NewInt(1)})
	buf[0] = 3
	if _, _, err := DecodeRow(buf); err == nil {
		t.Fatal("decoded short row")
	}
}

// TestRowLenMatchesDecode: RowLen measures what DecodeRow consumes, and
// on every truncation of an encoded row, and every value's kind byte
// replaced by an unknown one, it fails where DecodeRow fails, with
// DecodeRow's words: a scan that keeps a row's bytes instead of
// decoding it must reject exactly the rows a decode rejects.
func TestRowLenMatchesDecode(t *testing.T) {
	row := []Value{Null, NewInt(-7), NewFloat(1.5), NewText("héllo"), NewBool(true),
		NewTime(time.Unix(1700000000, 0)), NewLabel(label.New(3, 9)), NewText("")}
	enc, err := EncodeRow(nil, row)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, buf []byte) {
		t.Helper()
		_, dn, derr := DecodeRow(buf)
		ln, lerr := RowLen(buf)
		if fmt.Sprint(derr) != fmt.Sprint(lerr) || derr == nil && ln != dn {
			t.Errorf("%s: RowLen %d, %v; DecodeRow %d, %v", name, ln, lerr, dn, derr)
		}
	}
	check("whole row", append(enc, 0xFF)) // a trailing byte is not the row's
	for i := 0; i < len(enc); i++ {
		check(fmt.Sprintf("truncated to %d bytes", i), enc[:i])
	}
	off := 1
	for i := range row {
		bad := append([]byte(nil), enc...)
		bad[off] = 0xEE
		check(fmt.Sprintf("column %d's kind byte", i), bad)
		off += EncodedSize(row[i])
	}
}
