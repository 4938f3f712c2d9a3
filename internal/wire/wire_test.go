package wire

import (
	"bufio"
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"ifdb/internal/label"
	"ifdb/internal/types"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgExecute, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgExecute || string(payload) != "payload" {
		t.Fatalf("frame: %c %q", typ, payload)
	}
	// Empty payload is fine (type byte only).
	buf.Reset()
	if err := WriteFrame(&buf, MsgHelloOK, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, err = ReadFrame(bufio.NewReader(&buf))
	if err != nil || typ != MsgHelloOK || len(payload) != 0 {
		t.Fatalf("empty frame: %c %q %v", typ, payload, err)
	}
}

func TestFrameErrors(t *testing.T) {
	// Zero-length frame.
	r := bufio.NewReader(bytes.NewReader([]byte{0, 0, 0, 0}))
	if _, _, err := ReadFrame(r); err == nil {
		t.Fatal("zero frame accepted")
	}
	// Truncated frame.
	r = bufio.NewReader(bytes.NewReader([]byte{10, 0, 0, 0, MsgExecute}))
	if _, _, err := ReadFrame(r); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// Oversized declared length.
	big := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	r = bufio.NewReader(bytes.NewReader(big))
	if _, _, err := ReadFrame(r); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := &Hello{Token: "secret", Principal: 42}
	got, err := DecodeHello(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Token != "secret" || got.Principal != 42 {
		t.Fatalf("hello: %+v", got)
	}
	if _, err := DecodeHello([]byte{5}); err == nil {
		t.Fatal("bad hello decoded")
	}
}

func TestExecuteRoundTrip(t *testing.T) {
	e := &Execute{
		SQL:       "SELECT * FROM t WHERE a = $1",
		Params:    []types.Value{types.NewInt(7), types.NewText("x")},
		SyncLabel: true,
		Label:     label.New(3, 9),
		Principal: 11,
		WaitLSN:   17,
	}
	enc, err := e.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeExecute(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.StmtID != 0 || got.SQL != e.SQL || len(got.Params) != 2 || !got.SyncLabel ||
		!got.Label.Equal(e.Label) || got.Principal != 11 || got.WaitLSN != 17 {
		t.Fatalf("execute: %+v", got)
	}
	// Without sync: the read-your-writes token still rides the frame.
	e2 := &Execute{SQL: "SELECT 1", WaitLSN: 4242}
	enc, _ = e2.Encode()
	got, err = DecodeExecute(enc)
	if err != nil || got.SyncLabel || got.WaitLSN != 4242 {
		t.Fatalf("plain execute: %+v %v", got, err)
	}
}

func TestRowsChunkRoundTrip(t *testing.T) {
	c := &RowsChunk{
		First: true, Done: true,
		Cols: []string{"a", "b"},
		Rows: [][]types.Value{
			{types.NewInt(1), types.NewText("x")},
			{types.Null, types.NewFloat(2.5)},
		},
		RowLabels: []label.Label{label.New(5), nil},
		Affected:  3,
		Label:     label.New(5, 6),
	}
	enc, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRowsChunk(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cols) != 2 || len(got.Rows) != 2 || got.Affected != 3 {
		t.Fatalf("chunk: %+v", got)
	}
	if !got.Rows[0][0].Equal(types.NewInt(1)) || !got.Rows[1][0].IsNull() {
		t.Fatal("row values corrupted")
	}
	if !got.RowLabels[0].Equal(label.New(5)) || !got.RowLabels[1].IsEmpty() {
		t.Fatalf("row labels: %v", got.RowLabels)
	}
	if !got.Label.Equal(label.New(5, 6)) {
		t.Fatalf("label: %v", got.Label)
	}
	// A failed statement: one chunk, trailer only.
	c2 := &RowsChunk{First: true, Done: true, Err: "boom"}
	enc, _ = c2.Encode()
	got, err = DecodeRowsChunk(enc)
	if err != nil || got.Err != "boom" {
		t.Fatalf("error chunk: %+v %v", got, err)
	}
}

// Property: random results round-trip byte-exactly.
func TestQuickRowsChunkRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		res := &RowsChunk{First: true, Done: true, Affected: r.Int63n(100)}
		ncols := r.Intn(4)
		for i := 0; i < ncols; i++ {
			res.Cols = append(res.Cols, string(rune('a'+i)))
		}
		nrows := r.Intn(5)
		for i := 0; i < nrows; i++ {
			row := make([]types.Value, ncols)
			for j := range row {
				switch r.Intn(3) {
				case 0:
					row[j] = types.NewInt(r.Int63n(1000))
				case 1:
					row[j] = types.NewText("v")
				default:
					row[j] = types.Null
				}
			}
			res.Rows = append(res.Rows, row)
		}
		enc, err := res.Encode()
		if err != nil {
			return false
		}
		got, err := DecodeRowsChunk(enc)
		if err != nil {
			return false
		}
		if len(got.Rows) != nrows || got.Affected != res.Affected {
			return false
		}
		for i := range res.Rows {
			for j := range res.Rows[i] {
				if !got.Rows[i][j].Equal(res.Rows[i][j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
