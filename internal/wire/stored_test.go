package wire

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ifdb/internal/engine"
	"ifdb/internal/label"
	"ifdb/internal/obs"
	"ifdb/internal/pager"
	"ifdb/internal/types"
)

// rowsStored is the engine's count of rows sent as their stored bytes.
var rowsStored = obs.Default.Counter("ifdb_engine_rows_stored_total", "")

// dialRaw serves eng on loopback and returns a protocol-level client
// of admin's.
func dialRaw(t *testing.T, eng *engine.Engine) *rawClient {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, "")
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	c := &rawClient{t: t, r: bufio.NewReader(nc), w: bufio.NewWriter(nc)}
	c.send(MsgHello, (&Hello{Principal: uint64(eng.Admin())}).Encode())
	c.recv(MsgHelloOK)
	return c
}

// decoded is what a statement answers through the decoded path: the
// same statement pulled in-process through Cursor.NextBatch.
type decoded struct {
	cols   []string
	rows   [][]types.Value
	labels []label.Label
	err    string
}

func pullDecoded(s *engine.Session, q string) decoded {
	var d decoded
	cur, err := s.ExecStream(q)
	if err != nil {
		d.err = err.Error()
		return d
	}
	defer cur.Close()
	d.cols = cur.Cols()
	for {
		rows, labels, err := cur.NextBatch(DefaultChunkRows)
		if err != nil {
			d.err = err.Error()
			return d
		}
		if len(rows) == 0 {
			return d
		}
		d.rows = append(d.rows, rows...)
		d.labels = append(d.labels, labels...)
	}
}

// TestStreamStoredRows: a streamed heap scan of a table on disk sends
// each row's stored bytes (engine.Cursor.NextEncoded), and what the
// client receives is what the decoded path answers — the same rows in
// the same chunks, the same row labels and the same trailer — for a
// one-chunk result, a stream that ends in a partial chunk, rows that
// were updated (only the visible version is sent), a table of two
// labels of which the reader may see one, a pushed predicate, and a
// declassifying view's strip. A table in memory sends no stored bytes;
// a chunk beyond MaxFrame splits with its stored rows; and a corrupt
// value header under a valid page checksum fails the statement with
// the decoded path's own error.
func TestStreamStoredRows(t *testing.T) {
	eng, err := engine.New(engine.Config{IFC: true, DataDir: t.TempDir(), SyncMode: "off"})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	admin := eng.Admin()
	secret, err := eng.CreateTag(admin, "secret")
	if err != nil {
		t.Fatal(err)
	}
	other, err := eng.CreateTag(admin, "other")
	if err != nil {
		t.Fatal(err)
	}
	reader := label.New(secret)
	load := eng.NewSession(admin)
	exec := func(q string, params ...types.Value) {
		t.Helper()
		if _, err := load.Exec(q, params...); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	exec(`CREATE TABLE one (k BIGINT PRIMARY KEY, v TEXT) USING DISK`)
	exec(`CREATE TABLE many (k BIGINT PRIMARY KEY, v BIGINT, pad TEXT) USING DISK`)
	exec(`CREATE TABLE two (k BIGINT PRIMARY KEY, v TEXT) USING DISK`)
	exec(`CREATE TABLE mem (k BIGINT PRIMARY KEY, v TEXT)`)
	load.SetLabelUnsafe(reader)
	for k := int64(0); k < 10; k++ {
		exec(`INSERT INTO one VALUES ($1, $2)`, types.NewInt(k), types.NewText(fmt.Sprintf("one-%d", k)))
		exec(`INSERT INTO mem VALUES ($1, $2)`, types.NewInt(k), types.NewText(fmt.Sprintf("mem-%d", k)))
	}
	const manyRows = 2*DefaultChunkRows + 37
	for k := int64(0); k < manyRows; k++ {
		exec(`INSERT INTO many VALUES ($1, $2, $3)`, types.NewInt(k), types.NewInt(k*7), types.NewText(fmt.Sprintf("pad-%06d", k)))
	}
	exec(`UPDATE many SET v = v + 1000000, pad = 'updated' WHERE k % 5 = 0`)
	for k := int64(0); k < 100; k++ {
		l := reader
		if k%2 == 1 {
			l = label.New(other)
		}
		load.SetLabelUnsafe(l)
		exec(`INSERT INTO two VALUES ($1, $2)`, types.NewInt(k), types.NewText(fmt.Sprintf("two-%d", k)))
	}
	load.SetLabelUnsafe(nil)
	exec(`CREATE VIEW pub AS SELECT * FROM two WITH DECLASSIFYING (other)`)

	c := dialRaw(t, eng)
	ref := eng.NewSession(admin)
	for _, tc := range []struct {
		name, sql string
		stored    bool // whether the rows leave as their stored bytes
	}{
		{"one chunk", `SELECT * FROM one`, true},
		{"partial last chunk, updated rows", `SELECT * FROM many`, true},
		{"two labels, one visible", `SELECT * FROM two`, true},
		{"pushed predicate", `SELECT * FROM many WHERE v < 1000`, true},
		{"declassifying view", `SELECT * FROM pub`, true},
		{"memory heap", `SELECT * FROM mem`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c.t = t
			ref.SetLabelUnsafe(reader)
			want := pullDecoded(ref, tc.sql)
			if want.err != "" || len(want.rows) == 0 {
				t.Fatalf("decoded path: %d rows, error %q", len(want.rows), want.err)
			}
			before := rowsStored.Value()
			chunks := c.execute(&Execute{SQL: tc.sql, SyncLabel: true, Label: reader, Principal: uint64(admin)})
			sent := rowsStored.Value() - before
			if wantSent := int64(len(want.rows)); !tc.stored && sent != 0 || tc.stored && sent != wantSent {
				t.Errorf("%d rows sent as stored bytes, want %v of %d", sent, tc.stored, wantSent)
			}
			var rows [][]types.Value
			var labels []label.Label
			var shape []int
			for _, ch := range chunks {
				rows = append(rows, ch.Rows...)
				labels = append(labels, ch.RowLabels...)
				shape = append(shape, len(ch.Rows))
			}
			wantShape := make([]int, len(want.rows)/DefaultChunkRows, len(want.rows)/DefaultChunkRows+1)
			for i := range wantShape {
				wantShape[i] = DefaultChunkRows
			}
			wantShape = append(wantShape, len(want.rows)%DefaultChunkRows)
			if fmt.Sprint(shape) != fmt.Sprint(wantShape) {
				t.Errorf("chunks of %v rows, want %v", shape, wantShape)
			}
			if fmt.Sprint(chunks[0].Cols) != fmt.Sprint(want.cols) {
				t.Errorf("cols %v, decoded %v", chunks[0].Cols, want.cols)
			}
			if fmt.Sprint(rows) != fmt.Sprint(want.rows) {
				t.Errorf("rows differ from the decoded path's:\n got %v\nwant %v", rows, want.rows)
			}
			if fmt.Sprint(labels) != fmt.Sprint(want.labels) {
				t.Errorf("row labels %v, decoded %v", labels, want.labels)
			}
			done := chunks[len(chunks)-1]
			if done.Err != "" || done.Affected != 0 || done.Epoch != eng.Epoch() ||
				!done.Label.Equal(ref.Label()) || !done.ILabel.Equal(ref.Integrity()) {
				t.Errorf("trailer err %q, affected %d, epoch %d, labels %v / %v; decoded labels %v / %v",
					done.Err, done.Affected, done.Epoch, done.Label, done.ILabel, ref.Label(), ref.Integrity())
			}
		})
	}
	c.t = t

	t.Run("chunk split at MaxFrame", func(t *testing.T) { testStoredSplit(t) })
	t.Run("corrupt value header", func(t *testing.T) { testStoredCorrupt(t) })
}

// testStoredSplit: a chunk of 10 KB rows beyond MaxFrame leaves as the
// frames the same chunk of decoded rows leaves as, byte for byte. Rows
// alternate between two values, and the first split falls after an odd
// row, so a half that took the other half's stored bytes would differ.
func testStoredSplit(t *testing.T) {
	wide := types.NewText(strings.Repeat("w", 10_000))
	var vals [2][]types.Value
	var encs [2][]byte
	for i := range vals {
		vals[i] = []types.Value{types.NewInt(int64(i)), wide}
		var err error
		if encs[i], err = types.EncodeRow(nil, vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	n := MaxFrame/len(encs[0]) + 1
	if n/2%2 == 0 {
		n += 2
	}
	rows, none, stored := make([][]types.Value, n), make([][]types.Value, n), make([][]byte, n)
	for i := range rows {
		rows[i], stored[i] = vals[i%2], encs[i%2]
	}
	send := func(c *RowsChunk) (frames int64, sum [sha256.Size]byte) {
		h := sha256.New()
		rw := &rowsWriter{w: bufio.NewWriter(h)}
		f0 := mFramesOut.Value()
		if err := rw.writeChunk(c); err != nil {
			t.Fatal(err)
		}
		if err := rw.w.Flush(); err != nil {
			t.Fatal(err)
		}
		copy(sum[:], h.Sum(nil))
		return mFramesOut.Value() - f0, sum
	}
	chunk := func(rows [][]types.Value, stored [][]byte) *RowsChunk {
		return &RowsChunk{First: true, Done: true, Cols: []string{"k", "v"}, Rows: rows, Stored: stored}
	}
	gotFrames, got := send(chunk(none, stored))
	wantFrames, want := send(chunk(rows, nil))
	if gotFrames < 2 || gotFrames != wantFrames || got != want {
		t.Errorf("stored rows left as %d frames (sha256 %x), decoded as %d (%x)", gotFrames, got[:4], wantFrames, want[:4])
	}
}

// testStoredCorrupt damages one value's kind byte in a table's heap
// file, under a running engine whose one-page pool has evicted that
// page, and stamps the page's checksum anew, so only the value check
// can notice: the streamed scan must fail as the decoded one does.
func testStoredCorrupt(t *testing.T) {
	dir := t.TempDir()
	eng, err := engine.New(engine.Config{IFC: true, DataDir: dir, SyncMode: "off", BufferPoolPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	s := eng.NewSession(eng.Admin())
	exec := func(q string, params ...types.Value) {
		t.Helper()
		if _, err := s.Exec(q, params...); err != nil {
			t.Fatal(err)
		}
	}
	exec(`CREATE TABLE bad (k BIGINT, v TEXT) USING DISK`)
	exec(`INSERT INTO bad VALUES (0, 'corruptme')`)
	for k := int64(1); k < 400; k++ { // pages beyond the first
		exec(`INSERT INTO bad VALUES ($1, 'fine')`, types.NewInt(k))
	}
	path := filepath.Join(dir, "bad.heap")
	file, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	pg := make([]byte, pager.PageSize)
	if _, err := file.ReadAt(pg, 0); err != nil {
		t.Fatal(err)
	}
	// The text value is its kind byte, a one-byte length, then the text.
	at := bytes.Index(pg, []byte("corruptme"))
	if at < 2 || pg[at-2] != byte(types.KindText) {
		t.Fatalf("no stored text value 'corruptme' in the first page of %s", path)
	}
	pg[at-2] = 0xEE
	// The page checksum (internal/pager/page.go): CRC-32C of the page
	// without its own four bytes at offset 6.
	const sumOff = 6
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	binary.LittleEndian.PutUint32(pg[sumOff:], crc32.Update(crc32.Update(0, castagnoli, pg[:sumOff]), castagnoli, pg[sumOff+4:]))
	if _, err := file.WriteAt(pg, 0); err != nil {
		t.Fatal(err)
	}

	const q = `SELECT * FROM bad`
	want := pullDecoded(eng.NewSession(eng.Admin()), q)
	if !strings.Contains(want.err, "unknown kind byte 238") {
		t.Fatalf("decoded path error %q, want the damaged kind byte named", want.err)
	}
	c := dialRaw(t, eng)
	chunks := c.execute(&Execute{SQL: q})
	if done := chunks[len(chunks)-1]; done.Err != want.err {
		t.Errorf("streamed scan's error %q, decoded path's %q", done.Err, want.err)
	}
}
