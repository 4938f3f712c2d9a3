package wire

import (
	"bufio"
	"bytes"
	"math/rand"
	"reflect"
	"strings"
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

// randomChunk is a chunk as a server may send one: header or not,
// trailer or not (an error, a shard map), labelled rows or not, and
// from zero rows to more than a full chunk of one random width.
func randomChunk(r *rand.Rand) *RowsChunk {
	c := &RowsChunk{First: r.Intn(2) == 0, Done: r.Intn(2) == 0}
	ncols := r.Intn(5)
	if c.First {
		for i := 0; i < ncols; i++ {
			c.Cols = append(c.Cols, string(rune('a'+i)))
		}
	}
	labelled := r.Intn(2) == 0
	nrows := r.Intn(DefaultChunkRows + 40)
	if r.Intn(4) == 0 {
		nrows = 0
	}
	for i := 0; i < nrows; i++ {
		row := make([]types.Value, ncols)
		for j := range row {
			switch r.Intn(5) {
			case 0:
				row[j] = types.NewInt(r.Int63())
			case 1:
				row[j] = types.NewText(strings.Repeat(string(rune('a'+r.Intn(26))), r.Intn(50)))
			case 2:
				row[j] = types.NewFloat(r.Float64())
			case 3:
				row[j] = types.NewLabel(label.New(label.Tag(r.Intn(9))))
			default:
				row[j] = types.Null
			}
		}
		c.Rows = append(c.Rows, row)
		if labelled {
			var l label.Label
			for k := r.Intn(4); k > 0; k-- {
				l = l.Add(label.Tag(1 + r.Intn(1<<20)))
			}
			c.RowLabels = append(c.RowLabels, l)
		}
	}
	if labelled && c.RowLabels == nil {
		c.RowLabels = []label.Label{}
	}
	if c.Done {
		c.Affected, c.Epoch, c.LSN = r.Int63n(100), uint64(r.Intn(3)), r.Uint64()
		c.Label, c.ILabel = label.New(label.Tag(r.Intn(5))), label.New()
		if r.Intn(3) == 0 {
			c.Err = "boom"
		}
		if r.Intn(3) == 0 {
			c.ShardMap = &ShardMap{Version: uint64(1 + r.Intn(9)), Keys: map[string]string{"t": "k"}, Shards: []Shard{{ID: 0, Primary: "a:1"}}}
		}
	}
	return c
}

// sameChunk reports whether two decoded chunks agree on every exported
// field, and names the first that differs.
func sameChunk(a, b *RowsChunk) (string, bool) {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if f := va.Type().Field(i); f.IsExported() && !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return f.Name, false
		}
	}
	return "", true
}

// Property: a payload decoded into one RowsChunk carried from case to
// case — a connection's — decodes to exactly what a fresh chunk gets,
// however the previous payload left it; a damaged payload fails there
// exactly as it fails cold; and a string kept from an earlier decode
// is unchanged by later ones.
func TestQuickRowsChunkWarmDecode(t *testing.T) {
	var warm RowsChunk
	type kept struct{ s, want string }
	var keeps []kept
	decodeBoth := func(payload []byte) bool {
		cold, cerr := DecodeRowsChunk(payload)
		werr := DecodeRowsChunkInto(&warm, payload)
		if (cerr == nil) != (werr == nil) || (cerr != nil && cerr.Error() != werr.Error()) {
			t.Logf("cold error %v, warm error %v", cerr, werr)
			return false
		}
		if cerr != nil {
			return true
		}
		if field, ok := sameChunk(cold, &warm); !ok {
			t.Logf("%s differs: cold %+v, warm %+v", field, cold, &warm)
			return false
		}
		for _, row := range warm.Rows {
			for _, v := range row {
				if v.Kind() == types.KindText {
					keeps = append(keeps, kept{v.Text(), strings.Clone(v.Text())})
				}
			}
		}
		return true
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		enc, err := randomChunk(r).Encode()
		if err != nil {
			t.Log(err)
			return false
		}
		if !decodeBoth(enc) {
			return false
		}
		// Cut short, and one byte overwritten.
		if !decodeBoth(enc[:r.Intn(len(enc))]) {
			return false
		}
		bad := bytes.Clone(enc)
		bad[r.Intn(len(bad))] = byte(r.Intn(256))
		if !decodeBoth(bad) {
			return false
		}
		for _, k := range keeps {
			if k.s != k.want {
				t.Logf("a kept string changed: %q, decoded as %q", k.s, k.want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
