package types

import (
	"encoding/binary"
	"fmt"
	"math"

	"ifdb/internal/label"
)

// Binary encoding of values for the paged heap and the wire protocol.
//
// Layout per value: 1 kind byte, then a kind-specific payload:
//   NULL            — nothing
//   BIGINT/BOOL/TS  — 8-byte little-endian
//   DOUBLE          — 8-byte IEEE bits
//   TEXT            — uvarint length + bytes
//   INT[] (label)   — label encoding (1 count byte + 4 bytes/tag)

// AppendEncode appends the binary encoding of v to buf.
func AppendEncode(buf []byte, v Value) ([]byte, error) {
	buf = append(buf, byte(v.kind))
	switch v.kind {
	case KindNull:
		return buf, nil
	case KindInt, KindBool, KindTime:
		return binary.LittleEndian.AppendUint64(buf, uint64(v.n)), nil
	case KindFloat:
		return binary.LittleEndian.AppendUint64(buf, uint64(v.n)), nil
	case KindText:
		buf = binary.AppendUvarint(buf, uint64(len(v.s)))
		return append(buf, v.s...), nil
	case KindLabel:
		return label.AppendEncode(buf, v.l)
	default:
		return buf, fmt.Errorf("types: cannot encode kind %d", v.kind)
	}
}

// DecodeValue reads one value from the front of buf, returning it and
// the number of bytes consumed.
func DecodeValue(buf []byte) (Value, int, error) { return decodeValue(buf, "") }

// decodeValue is DecodeValue with a TEXT value cut from text, when text
// is not empty: text is then string(buf), so the value shares its
// string instead of copying its bytes.
func decodeValue(buf []byte, text string) (Value, int, error) {
	if len(buf) < 1 {
		return Null, 0, fmt.Errorf("types: short buffer")
	}
	k := Kind(buf[0])
	rest := buf[1:]
	switch k {
	case KindNull:
		return Null, 1, nil
	case KindInt, KindBool, KindTime, KindFloat:
		if len(rest) < 8 {
			return Null, 0, fmt.Errorf("types: truncated %s", k)
		}
		n := int64(binary.LittleEndian.Uint64(rest))
		return Value{kind: k, n: n}, 9, nil
	case KindText:
		sz, ln, err := textSpan(rest)
		if err != nil {
			return Null, 0, err
		}
		var s string
		if text != "" {
			s = text[1+sz : 1+sz+ln]
		} else {
			s = string(rest[sz : sz+ln])
		}
		return Value{kind: KindText, s: s}, 1 + sz + ln, nil
	case KindLabel:
		l, n, err := label.Decode(rest)
		if err != nil {
			return Null, 0, err
		}
		return NewLabel(l), 1 + n, nil
	default:
		return Null, 0, fmt.Errorf("types: unknown kind byte %d", buf[0])
	}
}

// EncodedSize returns the size AppendEncode would produce for v.
func EncodedSize(v Value) int {
	switch v.kind {
	case KindNull:
		return 1
	case KindInt, KindBool, KindTime, KindFloat:
		return 9
	case KindText:
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(tmp[:], uint64(len(v.s)))
		return 1 + n + len(v.s)
	case KindLabel:
		return 1 + label.EncodedSize(len(v.l))
	default:
		return 1
	}
}

// EncodeRow encodes a row (values only; labels and MVCC metadata are
// the heap's concern).
func EncodeRow(buf []byte, row []Value) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(row)))
	var err error
	for _, v := range row {
		if buf, err = AppendEncode(buf, v); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// DecodeRow decodes a row encoded by EncodeRow, returning the values
// and bytes consumed.
func DecodeRow(buf []byte) ([]Value, int, error) { return DecodeRowArena(nil, buf) }

// DecodeRowArena is DecodeRow with the row carved from a (see
// Arena.Take).
func DecodeRowArena(a *Arena, buf []byte) ([]Value, int, error) {
	n, off, err := rowHeader(buf)
	if err != nil {
		return nil, 0, err
	}
	row := a.Take(n)
	if off, err = decodeValues(row, buf, off, ""); err != nil {
		return nil, 0, err
	}
	return row, off, nil
}

// DecodeRowInto is DecodeRow into dst's storage, which is grown only
// when it holds fewer values than the row: a caller that decodes row
// after row into one scratch row allocates nothing but their strings.
// The row is valid until the caller's next decode into dst. When text
// is not empty it must be string(buf), and every TEXT value is a
// substring of it: a caller that decodes many rows out of one buffer
// makes that one string instead of one per value.
func DecodeRowInto(dst []Value, buf []byte, text string) ([]Value, int, error) {
	n, off, err := rowHeader(buf)
	if err != nil {
		return dst, 0, err
	}
	if dst == nil || cap(dst) < n {
		dst = make([]Value, n)
	}
	dst = dst[:n]
	if off, err = decodeValues(dst, buf, off, text); err != nil {
		return dst, 0, err
	}
	return dst, off, nil
}

// RowLen returns how many bytes of buf the row EncodeRow wrote at its
// front occupies. It checks every value header as DecodeRow does, and
// fails where DecodeRow fails, but decodes no value.
func RowLen(buf []byte) (int, error) {
	n, off, err := rowHeader(buf)
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		used, err := valueLen(buf[off:])
		if err != nil {
			return 0, fmt.Errorf("types: row col %d: %w", i, err)
		}
		off += used
	}
	return off, nil
}

// rowHeader reads a row's value count and returns it with the offset
// of its first value.
func rowHeader(buf []byte) (n, off int, err error) {
	c, sz := binary.Uvarint(buf)
	// Each value encodes to at least one byte: a count the remaining
	// buffer cannot hold is corruption, caught before the allocation
	// sized by it.
	if sz <= 0 || c > uint64(len(buf)-sz) {
		return 0, 0, fmt.Errorf("types: bad row header")
	}
	return int(c), sz, nil
}

// decodeValues decodes len(row) values from buf at off into row and
// returns the offset past them; text is empty or string(buf).
func decodeValues(row []Value, buf []byte, off int, text string) (int, error) {
	for i := range row {
		t := text
		if t != "" {
			t = t[off:]
		}
		v, used, err := decodeValue(buf[off:], t)
		if err != nil {
			return 0, fmt.Errorf("types: row col %d: %w", i, err)
		}
		row[i] = v
		off += used
	}
	return off, nil
}

// valueLen returns how many bytes the value at the front of buf
// occupies, failing where DecodeValue fails.
func valueLen(buf []byte) (int, error) {
	if len(buf) < 1 {
		return 0, fmt.Errorf("types: short buffer")
	}
	k := Kind(buf[0])
	rest := buf[1:]
	switch k {
	case KindNull:
		return 1, nil
	case KindInt, KindBool, KindTime, KindFloat:
		if len(rest) < 8 {
			return 0, fmt.Errorf("types: truncated %s", k)
		}
		return 9, nil
	case KindText:
		sz, ln, err := textSpan(rest)
		return 1 + sz + ln, err
	case KindLabel:
		_, n, err := label.Decode(rest) // rare: a label column
		return 1 + n, err
	default:
		return 0, fmt.Errorf("types: unknown kind byte %d", buf[0])
	}
}

// textSpan reads the length in front of a TEXT value's bytes and
// returns the length's size and the value's, which the rest of buf is
// long enough to hold.
func textSpan(buf []byte) (sz, n int, err error) {
	ln, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return 0, 0, fmt.Errorf("types: bad text length")
	}
	if uint64(len(buf)-sz) < ln {
		return 0, 0, fmt.Errorf("types: truncated text")
	}
	return sz, int(ln), nil
}

// Arena hands out rows carved from shared backing arrays, so a producer
// of many rows (a heap scan, a projection) allocates once per block of
// rows instead of once per row. Rows are never handed out twice: a row
// stays valid for as long as its holder keeps it, at the price of
// pinning its block. Blocks start at one row and quadruple up to
// arenaMaxRows, so a one-row statement pays for one row. The zero
// Arena is ready to use; a nil *Arena allocates every row on its own.
type Arena struct {
	free []Value
	rows int // rows in the current block
}

const arenaMaxRows = 256

// Take returns a zeroed row of n values whose capacity is n, so an
// append by the holder cannot run into a neighbouring row.
func (a *Arena) Take(n int) []Value {
	if a == nil {
		return make([]Value, n)
	}
	if len(a.free) < n {
		a.rows = min(max(4*a.rows, 1), arenaMaxRows)
		a.free = make([]Value, a.rows*n)
	}
	row := a.free[:n:n]
	a.free = a.free[n:]
	return row
}

// Keeper copies rows and their labels out of a stream whose rows are
// valid only until its next row, for a consumer that keeps them: the
// values into an Arena, the labels into tag blocks that grow the same
// way, so keeping a result allocates once per block, not once per row
// or label. Copies are never handed out twice. The zero Keeper is ready
// to use.
type Keeper struct {
	vals Arena
	tags []label.Tag
	n    int // tags in the current tag block
}

// Keep returns copies of row and l. An empty l is returned as it is.
func (k *Keeper) Keep(row []Value, l label.Label) ([]Value, label.Label) {
	kept := k.vals.Take(len(row))
	copy(kept, row)
	if len(l) == 0 {
		return kept, l
	}
	if len(k.tags) < len(l) {
		k.n = max(min(4*k.n, arenaMaxRows*len(l)), len(l))
		k.tags = make([]label.Tag, k.n)
	}
	lc := label.Label(k.tags[:len(l):len(l)])
	copy(lc, l)
	k.tags = k.tags[len(l):]
	return kept, lc
}

// Float64FromBits is a helper for tests exercising float edge cases.
func Float64FromBits(b uint64) float64 { return math.Float64frombits(b) }
