package client_test

import (
	"database/sql"
	"net"
	"testing"

	"ifdb"
	"ifdb/client"
	_ "ifdb/driver"
	"ifdb/internal/wire"
)

// cutServer serves a fresh engine, holding one counter row (id 1, v 0),
// through a faultListener.
func cutServer(t *testing.T) (*ifdb.DB, *faultListener) {
	t.Helper()
	db := ifdb.MustOpen(ifdb.Config{IFC: true})
	if _, err := db.AdminSession().Exec(`CREATE TABLE c (id BIGINT PRIMARY KEY, v BIGINT); INSERT INTO c VALUES (1, 0)`); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &faultListener{Listener: ln}
	srv := wire.NewServer(db.Engine(), "")
	go srv.Serve(fl)
	t.Cleanup(func() { srv.Close() })
	return db, fl
}

// counter reads the counter row in-process.
func counter(t *testing.T, db *ifdb.DB) int64 {
	t.Helper()
	res, err := db.AdminSession().Exec(`SELECT v FROM c WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].Int()
}

const bump = `UPDATE c SET v = v + 1 WHERE id = 1`

// TestCommitThenCut: the server commits an increment and the socket is
// cut before its reply leaves. The statement fails with a transport
// error, the increment applies once, and the connection stays broken:
// its next statement fails too, without dialing the server again.
func TestCommitThenCut(t *testing.T) {
	db, fl := cutServer(t)
	conn, err := client.Dial(fl.Addr().String(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	fl.cutNext()
	if _, err := conn.Exec(bump); err == nil || !client.IsTransportError(err) {
		t.Fatalf("Exec across the cut: %v; want a transport error", err)
	}
	if v := counter(t, db); v != 1 {
		t.Fatalf("v = %d after one Exec; want 1", v)
	}
	if _, err := conn.Exec(`SELECT 1`); err == nil || !client.IsTransportError(err) {
		t.Fatalf("Exec on the broken conn: %v; want a transport error", err)
	}
	if n := fl.accepted.Load(); n != 1 {
		t.Fatalf("the server accepted %d connections; want 1", n)
	}
}

// TestDriverCommitThenCut is the same cut through database/sql: the
// first Exec fails, the pool retires the connection, and the second
// Exec runs on a fresh one, so the counter ends at exactly 2.
func TestDriverCommitThenCut(t *testing.T) {
	db, fl := cutServer(t)
	sdb, err := sql.Open("ifdb", "ifdb://"+fl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	if err := sdb.Ping(); err != nil {
		t.Fatal(err)
	}

	fl.cutNext()
	if _, err := sdb.Exec(bump); err == nil {
		t.Fatal("Exec across the cut succeeded")
	}
	if _, err := sdb.Exec(bump); err != nil {
		t.Fatalf("Exec after the cut: %v", err)
	}
	if v := counter(t, db); v != 2 {
		t.Fatalf("v = %d after two Execs; want 2", v)
	}
	if n := fl.accepted.Load(); n != 2 {
		t.Fatalf("the server accepted %d connections; want 2 (the cut one and its replacement)", n)
	}
}
