package wire

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"ifdb/internal/engine"
	"ifdb/internal/label"
	"ifdb/internal/types"
)

// countingListener hands the server connections that count the writes
// reaching the socket.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, writes: &l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// rawClient speaks the protocol frame by frame, so a test sees every
// chunk of a reply as the server sent it.
type rawClient struct {
	t *testing.T
	r *bufio.Reader
	w *bufio.Writer
}

func (c *rawClient) send(typ byte, payload []byte) {
	c.t.Helper()
	if err := WriteFrame(c.w, typ, payload); err != nil {
		c.t.Fatal(err)
	}
	if err := c.w.Flush(); err != nil {
		c.t.Fatal(err)
	}
}

func (c *rawClient) recv(want byte) []byte {
	c.t.Helper()
	typ, payload, err := ReadFrame(c.r)
	if err != nil {
		c.t.Fatal(err)
	}
	if typ != want {
		c.t.Fatalf("frame %c, want %c", typ, want)
	}
	return payload
}

// execute sends e and reads its reply up to and including the Done chunk.
func (c *rawClient) execute(e *Execute) []*RowsChunk {
	c.t.Helper()
	payload, err := e.Encode()
	if err != nil {
		c.t.Fatal(err)
	}
	c.send(MsgExecute, payload)
	var chunks []*RowsChunk
	for len(chunks) == 0 || !chunks[len(chunks)-1].Done {
		ch, err := DecodeRowsChunk(c.recv(MsgRows))
		if err != nil {
			c.t.Fatal(err)
		}
		chunks = append(chunks, ch)
	}
	return chunks
}

// TestReplyWrites pins how many socket writes each kind of EXECUTE reply
// costs, and that folding the trailer into the last chunk leaves what
// the client receives as it was: the rows, columns, row labels, affected
// count, commit token and post-statement labels of the same statement
// run in-process. A result that fits in one chunk is one frame and one
// write when it fits the server's 4 KiB write buffer; a stream is a write
// per such chunk, and only a stream whose last batch filled its chunk
// exactly ends with a chunk of no rows.
func TestReplyWrites(t *testing.T) {
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
	if _, err := eng.CreateTag(admin, "extra"); err != nil {
		t.Fatal(err)
	}
	reader := label.New(secret)
	load := eng.NewSession(admin)
	if _, err := load.Exec(`CREATE TABLE t (k BIGINT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	// The first ten rows carry a label; the rest none, which keeps a
	// chunk of DefaultChunkRows keys within the server's 4 KiB write
	// buffer. Row 5000 is wider than that buffer.
	for k := 1; k <= DefaultChunkRows+1; k++ {
		if k == 11 {
			load.SetLabelUnsafe(nil)
		} else if k == 1 {
			load.SetLabelUnsafe(reader)
		}
		if _, err := load.Exec(`INSERT INTO t VALUES ($1, $2)`, types.NewInt(int64(k)), types.NewText(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := load.Exec(`INSERT INTO t VALUES (5000, $1)`, types.NewText(strings.Repeat("w", 10_000))); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	srv := NewServer(eng, "")
	go srv.Serve(cl)
	defer srv.Close()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := &rawClient{t: t, r: bufio.NewReader(nc), w: bufio.NewWriter(nc)}
	c.send(MsgHello, (&Hello{Principal: uint64(admin)}).Encode())
	c.recv(MsgHelloOK)
	const pkSQL = `SELECT k, v FROM t WHERE k = $1`
	c.send(MsgPrepare, (&Prepare{SQL: pkSQL}).Encode())
	pr, err := DecodePrepareRes(c.recv(MsgPrepareRes))
	if err != nil || pr.Err != "" {
		t.Fatalf("prepare: %v %q", err, pr.Err)
	}

	// ref runs each statement in-process, as the reader, for the answer
	// the wire must deliver.
	ref := eng.NewSession(admin)
	var lsn uint64
	for _, tc := range []struct {
		name   string
		e      Execute
		oracle string // the in-process statement, when it differs from e.SQL
		writes int
		chunks []int // rows per chunk
	}{
		{"prepared PK SELECT", Execute{StmtID: pr.StmtID, Params: []types.Value{types.NewInt(7)}}, pkSQL, 1, []int{1}},
		{"zero-row SELECT", Execute{SQL: `SELECT k, v FROM t WHERE k = 0`}, "", 1, []int{0}},
		{"INSERT", Execute{SQL: `INSERT INTO t VALUES (1000, 'new')`}, `INSERT INTO t VALUES (1001, 'new')`, 1, []int{0}},
		{"parse error", Execute{SQL: `SELEC k FROM t`}, "", 1, []int{0}},
		{"label-raising SELECT", Execute{SQL: `SELECT addsecrecy('extra')`}, "", 1, []int{1}},
		{"mid-stream error", Execute{SQL: fmt.Sprintf(`SELECT 10 / (%d - k) FROM t WHERE k <= %[1]d`, DefaultChunkRows+1)}, "", 2, []int{DefaultChunkRows, 0}},
		{"exactly DefaultChunkRows", Execute{SQL: fmt.Sprintf(`SELECT k FROM t WHERE k <= %d`, DefaultChunkRows)}, "", 2, []int{DefaultChunkRows, 0}},
		{"DefaultChunkRows+1", Execute{SQL: fmt.Sprintf(`SELECT k FROM t WHERE k <= %d`, DefaultChunkRows+1)}, "", 2, []int{DefaultChunkRows, 1}},
		// A frame larger than the write buffer leaves as the buffer's
		// worth and then the rest.
		{"one row wider than the write buffer", Execute{SQL: `SELECT v FROM t WHERE k = 5000`}, "", 2, []int{1}},
		// Each batch of a live stream fills before the iterator reports
		// its end, so the end arrives in a chunk of its own.
		{"3 rows streamed, ChunkRows 1", Execute{SQL: `SELECT k, v FROM t WHERE k <= 3`, ChunkRows: 1}, "", 4, []int{1, 1, 1, 0}},
		// A materialized result (the last statement of a batch) knows its
		// end with its last rows.
		{"3 rows materialized, ChunkRows 1", Execute{SQL: `SELECT 1; SELECT k, v FROM t WHERE k <= 3`, ChunkRows: 1}, "", 3, []int{1, 1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c.t = t
			e := tc.e
			e.SyncLabel, e.Label, e.Principal = true, reader, uint64(admin)
			w0, m0 := cl.writes.Load(), mWrites.Value()
			chunks := c.execute(&e)
			if got := cl.writes.Load() - w0; got != int64(tc.writes) {
				t.Errorf("%d socket writes, want %d", got, tc.writes)
			}
			if got := mWrites.Value() - m0; got != int64(tc.writes) {
				t.Errorf("ifdb_server_writes_total moved by %d, want %d", got, tc.writes)
			}

			var rows [][]types.Value
			var labels []label.Label
			shape := make([]int, len(chunks))
			for i, ch := range chunks {
				shape[i] = len(ch.Rows)
				if ch.First != (i == 0) || ch.Done != (i == len(chunks)-1) || (i > 0 && ch.Cols != nil) {
					t.Errorf("chunk %d of %d: First %v, Done %v, Cols %v", i, len(chunks), ch.First, ch.Done, ch.Cols)
				}
				rows = append(rows, ch.Rows...)
				labels = append(labels, ch.RowLabels...)
			}
			if fmt.Sprint(shape) != fmt.Sprint(tc.chunks) {
				t.Errorf("chunks of %v rows, want %v", shape, tc.chunks)
			}

			oracle := tc.oracle
			if oracle == "" {
				oracle = e.SQL
			}
			ref.SetLabelUnsafe(reader)
			want, werr := ref.Exec(oracle, e.Params...)
			done := chunks[len(chunks)-1]
			if werr != nil {
				if done.Err != werr.Error() {
					t.Fatalf("trailer error %q, in-process %q", done.Err, werr)
				}
			} else {
				if done.Err != "" {
					t.Fatalf("trailer error %q, in-process none", done.Err)
				}
				if fmt.Sprint(chunks[0].Cols) != fmt.Sprint(want.Cols) {
					t.Errorf("cols %v, in-process %v", chunks[0].Cols, want.Cols)
				}
				if fmt.Sprint(rows) != fmt.Sprint(want.Rows) {
					t.Errorf("rows %v, in-process %v", rows, want.Rows)
				}
				if fmt.Sprint(labels) != fmt.Sprint(want.RowLabels) {
					t.Errorf("row labels %v, in-process %v", labels, want.RowLabels)
				}
				if done.Affected != int64(want.Affected) {
					t.Errorf("affected %d, in-process %d", done.Affected, want.Affected)
				}
			}
			if !done.Label.Equal(ref.Label()) || !done.ILabel.Equal(ref.Integrity()) {
				t.Errorf("post-statement labels %v / %v, in-process %v / %v", done.Label, done.ILabel, ref.Label(), ref.Integrity())
			}
			if done.Epoch != eng.Epoch() {
				t.Errorf("epoch %d, engine %d", done.Epoch, eng.Epoch())
			}
			// Only the INSERT logs a commit: it moves the session's token,
			// and every other statement carries the token it left.
			if strings.HasPrefix(e.SQL, "INSERT") {
				if done.LSN <= lsn {
					t.Errorf("INSERT's commit token %d, not past %d", done.LSN, lsn)
				}
				lsn = done.LSN
			} else if done.LSN != lsn {
				t.Errorf("commit token %d, want %d", done.LSN, lsn)
			}
		})
	}
}
