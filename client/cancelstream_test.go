package client_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ifdb"
	"ifdb/client"
)

// bigResultServer starts a server with a table whose full SELECT is
// far larger than the loopback socket buffers (rows × payload ≈ 16MB),
// so the server's chunked stream write-blocks mid-result and a cancel
// can land between chunks.
func bigResultServer(t *testing.T) (*ifdb.DB, string) {
	t.Helper()
	db, addr := startServer(t, "")
	sess := db.AdminSession()
	if _, err := sess.Exec(`CREATE TABLE big (k BIGINT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	payload := strings.Repeat("x", 8<<10)
	for i := 0; i < 2000; i++ {
		if _, err := sess.Exec(`INSERT INTO big VALUES ($1, $2)`, ifdb.Int(int64(i)), ifdb.Text(payload)); err != nil {
			t.Fatal(err)
		}
	}
	return db, addr
}

// TestConnCancelMidStream: the satellite scenario — the statement
// executes successfully, rows are already streaming, THEN the context
// is canceled between chunks. The server must notice at its next
// chunk boundary, abort the open transaction, and terminate the
// stream with an error the client folds into a wrapped
// context.Canceled; the connection survives (the cancel rode the
// out-of-band path and the server answered in-stream).
func TestConnCancelMidStream(t *testing.T) {
	_, addr := bigResultServer(t)
	conn, err := client.Dial(addr, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Open an explicit transaction with a visible effect, so the
	// mid-stream abort is observable: the marker row must die with it.
	if _, err := conn.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(`INSERT INTO big VALUES (999999, 'marker')`); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := conn.QueryContext(ctx, `SELECT k, v FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	// Surface a few rows to prove the stream was live before the
	// cancel, then cancel and give the out-of-band CANCEL time to land
	// while the server is write-blocked mid-stream.
	for i := 0; i < 5; i++ {
		if !rows.Next() {
			t.Fatalf("stream died after %d rows: %v", i, rows.Err())
		}
	}
	cancel()
	time.Sleep(200 * time.Millisecond)

	n := 5
	for rows.Next() {
		n++
	}
	serr := rows.Err()
	if serr == nil {
		t.Fatalf("canceled stream delivered all %d rows without error", n)
	}
	if !errors.Is(serr, context.Canceled) {
		t.Fatalf("stream error does not wrap context.Canceled: %v", serr)
	}
	if client.IsTransportError(serr) {
		t.Fatalf("clean mid-stream cancel classified as transport error: %v", serr)
	}
	if n >= 2000 {
		t.Fatalf("server streamed the whole result despite the cancel")
	}
	if err := rows.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close error = %v", err)
	}

	// The server aborted the explicit transaction mid-stream: COMMIT
	// has nothing to commit...
	if _, err := conn.Exec(`COMMIT`); err == nil {
		t.Fatal("COMMIT succeeded after the server aborted the transaction")
	}
	// ...the marker row died with it...
	res, err := conn.Exec(`SELECT COUNT(*) FROM big WHERE k = 999999`)
	if err != nil {
		t.Fatalf("conn dead after mid-stream cancel: %v", err)
	}
	var cnt int64
	if err := client.ScanValue(res.Rows[0][0], &cnt); err != nil {
		t.Fatal(err)
	}
	if cnt != 0 {
		t.Fatalf("marker row survived the aborted transaction")
	}
	// ...and the connection itself keeps working (asserted by the two
	// statements above executing at all).
}

// TestRouterCancelMidStream: the same scenario through the Router,
// asserting the pool discipline — a canceled statement whose reply
// arrived cleanly leaves its connection healthy, so it goes back to the
// pool, and the next statement on it succeeds: the CANCEL named the
// canceled statement, not the session, and cannot reach the next one.
func TestRouterCancelMidStream(t *testing.T) {
	_, addr := bigResultServer(t)
	r, err := client.OpenRouter(client.RouterConfig{Addrs: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Warm the pool so the canceled statement borrows a pooled conn.
	if _, err := r.Exec(`SELECT COUNT(*) FROM big`); err != nil {
		t.Fatal(err)
	}
	if idle := r.IdleConns()[addr]; idle != 1 {
		t.Fatalf("warmup left %d idle conns, want 1", idle)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := r.QueryContext(ctx, `SELECT k, v FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !rows.Next() {
			t.Fatalf("stream died after %d rows: %v", i, rows.Err())
		}
	}
	cancel()
	time.Sleep(200 * time.Millisecond)
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("stream error does not wrap context.Canceled: %v", err)
	}
	rows.Close()

	// The canceled stream's connection is back in the pool...
	if idle := r.IdleConns()[addr]; idle != 1 {
		t.Fatalf("canceled statement's conn not repooled: %d idle, want 1", idle)
	}
	// ...and the next statement runs on it.
	if _, err := r.Exec(`SELECT sleep(50)`); err != nil {
		t.Fatalf("statement after the cancel failed: %v", err)
	}
	if idle := r.IdleConns()[addr]; idle != 1 {
		t.Fatalf("the statement after the cancel dialed anew: %d idle, want 1", idle)
	}
}
