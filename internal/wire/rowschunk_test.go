package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"ifdb/internal/label"
	"ifdb/internal/types"
)

// fullChunk is a ROWS chunk as a streamed scan sends them: a full
// DefaultChunkRows rows of (BIGINT, BIGINT, TEXT) under two-tag labels.
func fullChunk(first, done bool) *RowsChunk {
	c := &RowsChunk{First: first, Done: done}
	if first {
		c.Cols = []string{"k", "v", "pad"}
	}
	for i := 0; i < DefaultChunkRows; i++ {
		c.Rows = append(c.Rows, []types.Value{types.NewInt(int64(i)), types.NewInt(int64(i) * 7919), types.NewText(fmt.Sprintf("p%039d", i))})
		c.RowLabels = append(c.RowLabels, label.New(7, label.Tag(10+i/64)))
	}
	if done {
		c.Affected, c.Label, c.ILabel, c.Epoch, c.LSN = 3, label.New(7, 10), label.New(2), 4, 99
	}
	return c
}

// TestRowsChunkEncodeForms: Encode is AppendEncode into a buffer of
// exactly the encoded size, whatever the chunk carries, and the chunk
// decodes back to what was sent.
func TestRowsChunkEncodeForms(t *testing.T) {
	for _, c := range []*RowsChunk{
		fullChunk(true, false), fullChunk(false, false), fullChunk(true, true),
		{First: true, Done: true, Cols: []string{"n"}, Err: "boom"},
		{Done: true, ShardMap: &ShardMap{Version: 3, Keys: map[string]string{"t": "k"}, Shards: []Shard{{ID: 0, Primary: "a:1"}}}},
	} {
		enc, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != cap(enc) {
			t.Fatalf("Encode sized its buffer %d for %d bytes", cap(enc), len(enc))
		}
		app, err := c.AppendEncode([]byte("prefix"))
		if err != nil || !bytes.Equal(app[6:], enc) {
			t.Fatalf("AppendEncode differs from Encode (err %v)", err)
		}
		got, err := DecodeRowsChunk(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, c.Rows) && len(c.Rows) > 0 {
			t.Fatal("rows changed in the round trip")
		}
		for i, l := range c.RowLabels {
			if !got.RowLabels[i].Equal(l) {
				t.Fatalf("row %d label %v, sent %v", i, got.RowLabels[i], l)
			}
		}
		if got.Err != c.Err || got.LSN != c.LSN || !got.Label.Equal(c.Label) || (got.ShardMap == nil) != (c.ShardMap == nil) {
			t.Fatalf("trailer changed in the round trip: %+v", got)
		}
	}
}

// TestRowsChunkAllocBudget: a warm encode buffer takes a chunk with no
// allocation; decoding one into a chunk of its own allocates per text
// value, not per row or per label; and decoding it into a chunk that
// has decoded one before allocates the one string the chunk's text
// values share.
func TestRowsChunkAllocBudget(t *testing.T) {
	c := fullChunk(false, false)
	buf, err := c.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { buf, _ = c.AppendEncode(buf[:0]) }); n != 0 {
		t.Fatalf("AppendEncode into a warm buffer: %v allocs, want 0", n)
	}
	// One text column a row; the chunk, its row slice, value block, label
	// slice and tag block make the remainder.
	n := testing.AllocsPerRun(20, func() {
		if _, err := DecodeRowsChunk(buf); err != nil {
			t.Fatal(err)
		}
	})
	if per := n / DefaultChunkRows; per > 1.05 {
		t.Fatalf("DecodeRowsChunk: %.2f allocs a row with one text column, budget 1.05", per)
	}
	var warm RowsChunk
	if err := DecodeRowsChunkInto(&warm, buf); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := DecodeRowsChunkInto(&warm, buf); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("DecodeRowsChunkInto a warm chunk: %v allocs a chunk, budget 1", n)
	}
}

func BenchmarkRowsChunkAppendEncode(b *testing.B) {
	c := fullChunk(false, false)
	buf, _ := c.AppendEncode(nil)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = c.AppendEncode(buf[:0])
	}
}

func BenchmarkDecodeRowsChunk(b *testing.B) {
	buf, _ := fullChunk(false, false).Encode()
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRowsChunk(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRowsChunkInto(b *testing.B) {
	buf, _ := fullChunk(false, false).Encode()
	var c RowsChunk
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeRowsChunkInto(&c, buf); err != nil {
			b.Fatal(err)
		}
	}
}
