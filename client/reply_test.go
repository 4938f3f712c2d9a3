package client_test

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"ifdb"
	"ifdb/client"
	"ifdb/internal/engine"
	"ifdb/internal/obs"
	"ifdb/internal/wire"
)

// writeCountingListener hands the server connections that count the
// writes reaching the socket.
type writeCountingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *writeCountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &writeCountingConn{Conn: c, writes: &l.writes}, nil
}

type writeCountingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestPointReadIsOneWrite: a prepared primary-key SELECT through
// client.Conn is answered in one socket write — its row and the
// statement trailer are one frame — as counted on the server's socket
// and by ifdb_server_writes_total, and the client still gets the row,
// its label and the server's post-statement label.
func TestPointReadIsOneWrite(t *testing.T) {
	db := ifdb.MustOpen(ifdb.Config{IFC: true})
	defer db.Close()
	admin := db.AdminSession()
	if _, err := admin.Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	tag, err := db.Engine().CreateTag(db.Engine().Admin(), "tenant")
	if err != nil {
		t.Fatal(err)
	}
	engine.SyncLabel(admin, client.Label{tag}, nil, db.Engine().Admin())
	for _, q := range []string{`INSERT INTO kv VALUES (1, 'one')`, `INSERT INTO kv VALUES (2, 'two')`} {
		if _, err := admin.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &writeCountingListener{Listener: ln}
	srv := wire.NewServer(db.Engine(), "")
	go srv.Serve(cl)
	defer srv.Close()
	conn, err := client.Dial(ln.Addr().String(), "", uint64(db.Engine().Admin()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.AddSecrecy(tag)
	stmt, err := conn.Prepare(`SELECT v FROM kv WHERE k = $1`)
	if err != nil {
		t.Fatal(err)
	}
	metric := obs.NewCounter("ifdb_server_writes_total", "")
	for k, want := range map[int64]string{1: "one", 2: "two"} {
		w0, m0 := cl.writes.Load(), metric.Value()
		res, err := stmt.Exec(ifdb.Int(k))
		if err != nil {
			t.Fatal(err)
		}
		if got := cl.writes.Load() - w0; got != 1 {
			t.Errorf("k=%d: %d socket writes for one point read, want 1", k, got)
		}
		if got := metric.Value() - m0; got != 1 {
			t.Errorf("k=%d: ifdb_server_writes_total moved by %d, want 1", k, got)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Text() != want || len(res.Cols) != 1 || res.Cols[0] != "v" {
			t.Fatalf("k=%d: %v %v", k, res.Cols, res.Rows)
		}
		if len(res.RowLabels) != 1 || !res.RowLabels[0].Equal(client.Label{tag}) {
			t.Fatalf("k=%d: row labels %v", k, res.RowLabels)
		}
		if !conn.Label().Equal(client.Label{tag}) {
			t.Fatalf("k=%d: post-statement label %v", k, conn.Label())
		}
	}
}

// TestSingleFrameResultKeepsConnBusy: a result whose rows and trailer
// arrived in one frame still holds its connection until the rows have
// been read or the stream closed — a second statement issued meanwhile
// is refused, as when the trailer came in a frame of its own. A result
// with no rows frees the connection at once.
func TestSingleFrameResultKeepsConnBusy(t *testing.T) {
	db, addr := startServer(t, "")
	if _, err := db.AdminSession().Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AdminSession().Exec(`INSERT INTO kv VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	conn, err := client.Dial(addr, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	busy := func(when string) {
		t.Helper()
		_, err := conn.Exec(`SELECT 1`)
		if err == nil || !strings.Contains(err.Error(), "a streaming result is still open") {
			t.Fatalf("%s: second statement got %v, want the open-stream refusal", when, err)
		}
		if client.IsTransportError(err) {
			t.Fatalf("%s: the refusal reads as a transport error", when)
		}
	}
	free := func(when string) {
		t.Helper()
		if _, err := conn.Exec(`SELECT 1`); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}

	rows, err := conn.Query(`SELECT k FROM kv WHERE k = 1`)
	if err != nil {
		t.Fatal(err)
	}
	busy("before the row is read")
	if !rows.Next() {
		t.Fatalf("no row: %v", rows.Err())
	}
	busy("on the last row")
	if rows.Next() {
		t.Fatal("a second row")
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	free("after the rows ran out")

	rows, err = conn.Query(`SELECT k FROM kv WHERE k = 1`)
	if err != nil {
		t.Fatal(err)
	}
	busy("before Close")
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	free("after Close")

	rows, err = conn.Query(`SELECT k FROM kv WHERE k = 2`)
	if err != nil {
		t.Fatal(err)
	}
	free("with a zero-row result open")
	if rows.Next() {
		t.Fatal("a row from a zero-row result")
	}
	rows.Close()
	free("after the zero-row result closed")
}
