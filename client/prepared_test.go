package client_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ifdb"
	"ifdb/client"
	"ifdb/internal/wire"
)

// TestPreparedSkipsReparse asserts the point of prepared statements:
// after Prepare, executions never invoke the SQL parser (the engine
// counter stands still), while distinct one-shot texts each pay a
// parse.
func TestPreparedSkipsReparse(t *testing.T) {
	db, addr := startServer(t, "")
	if _, err := db.AdminSession().Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	conn, err := client.Dial(addr, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	st, err := conn.Prepare(`INSERT INTO kv VALUES ($1, $2)`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.NumParams() != 2 {
		t.Fatalf("NumParams: %d", st.NumParams())
	}

	base := db.Engine().ParseCount()
	for i := 0; i < 50; i++ {
		if _, err := st.Exec(client.Value(ifdb.Int(int64(i))), client.Value(ifdb.Text("v"))); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Engine().ParseCount(); got != base {
		t.Fatalf("prepared executions parsed: count moved %d -> %d", base, got)
	}

	// The anti-pattern prepared statements exist to kill: every
	// distinct text costs a parse.
	for i := 0; i < 5; i++ {
		if _, err := conn.Exec(fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'inline')`, 1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Engine().ParseCount(); got != base+5 {
		t.Fatalf("inline texts: count moved %d -> %d, want +5", base, got)
	}

	// Prepared query round trip.
	q, err := conn.Prepare(`SELECT v FROM kv WHERE k = $1`)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	rows, err := q.Query(client.Value(ifdb.Int(7)))
	if err != nil {
		t.Fatal(err)
	}
	var v string
	n := 0
	for rows.Next() {
		if err := rows.Scan(&v); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 1 || v != "v" {
		t.Fatalf("prepared query: %d rows, v=%q", n, v)
	}
}

// TestStreamingRows exercises multi-chunk streams: a result bigger
// than the server's chunk size arrives in pieces, iterates completely,
// and both full consumption and early Close leave the connection
// reusable.
func TestStreamingRows(t *testing.T) {
	db, addr := startServer(t, "")
	sess := db.AdminSession()
	if _, err := sess.Exec(`CREATE TABLE nums (k BIGINT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := sess.Exec(fmt.Sprintf(`INSERT INTO nums VALUES (%d)`, i)); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := client.Dial(addr, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	rows, err := conn.Query(`SELECT k FROM nums ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for rows.Next() {
		var k int64
		if err := rows.Scan(&k); err != nil {
			t.Fatal(err)
		}
		if k != want {
			t.Fatalf("row %d: got %d", want, k)
		}
		want++
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if want != 1000 {
		t.Fatalf("iterated %d rows", want)
	}

	// A second statement while a stream is open is refused (a usage
	// error, not a transport error), then works after Close drains the
	// stream.
	rows, err = conn.Query(`SELECT k FROM nums`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no first row")
	}
	if _, err := conn.Exec(`SELECT 1`); err == nil {
		t.Fatal("statement during open stream succeeded")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(`SELECT 1`); err != nil {
		t.Fatalf("conn unusable after early Close: %v", err)
	}
}

// TestStmtCloseDuringStream: a Stmt closed while another statement's
// stream holds the connection still drops its server-side handle, so a
// loop that prepares and closes one statement per pass never reaches
// the server's per-connection cap.
func TestStmtCloseDuringStream(t *testing.T) {
	db, addr := startServer(t, "")
	if _, err := db.AdminSession().Exec(`CREATE TABLE two (k BIGINT PRIMARY KEY); INSERT INTO two VALUES (1), (2)`); err != nil {
		t.Fatal(err)
	}
	conn, err := client.Dial(addr, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < wire.MaxSessionStmts+5; i++ {
		a, err := conn.Prepare(`SELECT k FROM two WHERE k = $1`)
		if err != nil {
			t.Fatalf("prepare %d: %v", i+1, err)
		}
		b, err := conn.Query(`SELECT k FROM two`)
		if err != nil {
			t.Fatal(err)
		}
		if !b.Next() {
			t.Fatalf("no first row: %v", b.Err())
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConnContextCancel: a context deadline aborts the running
// statement server-side via the out-of-band CANCEL connection; the
// error matches the context's, and the connection survives (the
// server answered on it — no socket was severed).
func TestConnContextCancel(t *testing.T) {
	db, addr := startServer(t, "")
	sess := db.AdminSession()
	if _, err := sess.Exec(`CREATE TABLE big (k BIGINT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := sess.Exec(fmt.Sprintf(`INSERT INTO big VALUES (%d)`, i)); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := client.Dial(addr, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = conn.ExecContext(ctx, `SELECT sleep(50) FROM big`) // 5s if uncanceled
	if err == nil {
		t.Fatal("canceled statement succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("cancellation took %v", el)
	}
	// The server answered the cancel on the statement's own (healthy)
	// connection: the error must keep its server-reported identity —
	// a transport-error misclassification would make the Router and
	// the database/sql pool retire healthy connections on every
	// user-initiated cancel.
	if client.IsTransportError(err) {
		t.Fatalf("clean cancel classified as transport error: %v", err)
	}
	// The same connection keeps working: the cancel rode a separate
	// connection and the statement failed gracefully on this one.
	if _, err := conn.Exec(`SELECT COUNT(*) FROM big`); err != nil {
		t.Fatalf("conn dead after cancel: %v", err)
	}
}
