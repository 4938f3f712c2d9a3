package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"ifdb/internal/label"
	"ifdb/internal/types"
)

func TestPreparedFrameRoundTrips(t *testing.T) {
	h := &HelloOK{SessionID: 7, CancelKey: 0xdeadbeef}
	h2, err := DecodeHelloOK(h.Encode())
	if err != nil || *h2 != *h {
		t.Fatalf("HelloOK: %+v %v", h2, err)
	}
	if _, err := DecodeHelloOK(nil); err == nil {
		t.Fatal("empty HelloOK decoded")
	}

	p := &Prepare{SQL: "SELECT * FROM kv WHERE k = $1"}
	p2, err := DecodePrepare(p.Encode())
	if err != nil || p2.SQL != p.SQL {
		t.Fatalf("Prepare: %+v %v", p2, err)
	}

	pr := &PrepareRes{Err: "", StmtID: 3, NumParams: 2}
	pr2, err := DecodePrepareRes(pr.Encode())
	if err != nil || *pr2 != *pr {
		t.Fatalf("PrepareRes: %+v %v", pr2, err)
	}

	e := &Execute{
		StmtID: 3, Params: []types.Value{types.NewInt(42), types.NewText("x")},
		SyncLabel: true, Label: label.New(1, 2), ILabel: label.New(3),
		Principal: 9, WaitLSN: 100, ShardVer: 5, Seq: 12,
	}
	enc, err := e.Encode()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := DecodeExecute(enc)
	if err != nil {
		t.Fatal(err)
	}
	if e2.StmtID != 3 || len(e2.Params) != 2 || !e2.SyncLabel ||
		!e2.Label.Equal(e.Label) || e2.Principal != 9 || e2.WaitLSN != 100 ||
		e2.ShardVer != 5 || e2.Seq != 12 {
		t.Fatalf("Execute: %+v", e2)
	}

	c := &RowsChunk{
		First: true, Done: true, Cols: []string{"k", "v"},
		Rows:      [][]types.Value{{types.NewInt(1), types.NewText("a")}},
		RowLabels: []label.Label{label.New(4)},
		Err:       "", Affected: 1, Label: label.New(4), ILabel: nil,
		Epoch: 2, LSN: 77,
	}
	enc, err = c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := DecodeRowsChunk(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !c2.First || !c2.Done || len(c2.Cols) != 2 || len(c2.Rows) != 1 ||
		c2.Rows[0][1].Text() != "a" || !c2.RowLabels[0].Equal(label.New(4)) ||
		c2.Affected != 1 || c2.Epoch != 2 || c2.LSN != 77 {
		t.Fatalf("RowsChunk: %+v", c2)
	}

	cs := &CloseStmt{StmtID: 11}
	cs2, err := DecodeCloseStmt(cs.Encode())
	if err != nil || *cs2 != *cs {
		t.Fatalf("CloseStmt: %+v %v", cs2, err)
	}

	cn := &Cancel{SessionID: 5, CancelKey: 0xfeed, Seq: 12}
	cn2, err := DecodeCancel(cn.Encode())
	if err != nil || !reflect.DeepEqual(cn2, cn) {
		t.Fatalf("Cancel: %+v %v", cn2, err)
	}
}

// TestCorruptFrameFuzz flips, truncates, and garbles bytes in valid
// v2 frame payloads: every decoder must return an error or a value —
// never panic, never hang — mirroring the WAL's corrupt-tail fuzz.
// (Truncation is the common real corruption: a peer dying mid-write.)
func TestCorruptFrameFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(5))

	exec := &Execute{
		StmtID: 3, SQL: "SELECT * FROM kv",
		Params:    []types.Value{types.NewInt(42), types.NewText("xyz")},
		SyncLabel: true, Label: label.New(1, 2), ILabel: label.New(3),
		Principal: 9, WaitLSN: 100, ShardVer: 5, Seq: 12,
	}
	execEnc, err := exec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	chunk := &RowsChunk{
		First: true, Done: true, Cols: []string{"k", "v"},
		Rows:      [][]types.Value{{types.NewInt(1), types.NewText("abc")}, {types.NewInt(2), types.Null}},
		RowLabels: []label.Label{label.New(4), nil},
		Affected:  2, Label: label.New(4), Epoch: 2, LSN: 77,
		ShardMap: &ShardMap{Version: 1, Keys: map[string]string{"kv": "k"},
			Shards: []Shard{{ID: 0, Primary: "a:1"}}},
	}
	chunkEnc, err := chunk.Encode()
	if err != nil {
		t.Fatal(err)
	}

	seeds := []struct {
		name   string
		enc    []byte
		decode func([]byte) (any, error)
	}{
		{"hellook", (&HelloOK{SessionID: 1, CancelKey: 2}).Encode(),
			func(b []byte) (any, error) { return DecodeHelloOK(b) }},
		{"prepare", (&Prepare{SQL: "SELECT 1"}).Encode(),
			func(b []byte) (any, error) { return DecodePrepare(b) }},
		{"prepareres", (&PrepareRes{Err: "boom", StmtID: 1, NumParams: 3}).Encode(),
			func(b []byte) (any, error) { return DecodePrepareRes(b) }},
		{"execute", execEnc,
			func(b []byte) (any, error) { return DecodeExecute(b) }},
		{"rowschunk", chunkEnc,
			func(b []byte) (any, error) { return DecodeRowsChunk(b) }},
		{"closestmt", (&CloseStmt{StmtID: 4}).Encode(),
			func(b []byte) (any, error) { return DecodeCloseStmt(b) }},
		{"cancel", (&Cancel{SessionID: 1, CancelKey: 2, Seq: 3}).Encode(),
			func(b []byte) (any, error) { return DecodeCancel(b) }},
	}

	for _, s := range seeds {
		// Every truncation point.
		for n := 0; n <= len(s.enc); n++ {
			mustNotPanic(t, s.name, s.enc[:n], s.decode)
		}
		// Random single- and multi-byte corruptions.
		for trial := 0; trial < 2000; trial++ {
			buf := bytes.Clone(s.enc)
			for flips := 1 + rng.Intn(4); flips > 0; flips-- {
				if len(buf) == 0 {
					break
				}
				buf[rng.Intn(len(buf))] ^= byte(1 + rng.Intn(255))
			}
			// Occasionally also truncate after corrupting.
			if rng.Intn(4) == 0 && len(buf) > 0 {
				buf = buf[:rng.Intn(len(buf))]
			}
			mustNotPanic(t, s.name, buf, s.decode)
		}
		// Pure garbage.
		for trial := 0; trial < 500; trial++ {
			buf := make([]byte, rng.Intn(64))
			rng.Read(buf)
			mustNotPanic(t, s.name, buf, s.decode)
		}
	}
}

func mustNotPanic(t *testing.T, name string, buf []byte, decode func([]byte) (any, error)) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: decode panicked on %d bytes (%x): %v", name, len(buf), buf, r)
		}
	}()
	_, _ = decode(buf)
}
