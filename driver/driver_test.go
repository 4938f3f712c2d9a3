package driver_test

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"ifdb"
	"ifdb/driver"
	"ifdb/internal/wire"
)

// startServer brings up a wire server over a fresh IFDB engine on a
// loopback listener.
func startServer(t *testing.T, token string) (*ifdb.DB, string) {
	t.Helper()
	db := ifdb.MustOpen(ifdb.Config{IFC: true})
	srv := wire.NewServer(db.Engine(), token)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return db, ln.Addr().String()
}

// TestDriverRoundTrip is the acceptance round trip: open by DSN,
// prepared insert/select with parameters, transactions both ways.
func TestDriverRoundTrip(t *testing.T) {
	_, addr := startServer(t, "tok")
	db, err := sql.Open("ifdb", "ifdb://"+addr+"?token=tok")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Ping(); err != nil {
		t.Fatal(err)
	}

	if _, err := db.Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}

	// Prepared insert with parameters: one PREPARE, many EXECUTEs.
	ins, err := db.Prepare(`INSERT INTO kv VALUES ($1, $2)`)
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	for i, v := range []string{"one", "two", "three"} {
		if _, err := ins.Exec(int64(i+1), v); err != nil {
			t.Fatalf("insert %d: %v", i+1, err)
		}
	}

	// Prepared select, streamed and scanned.
	sel, err := db.Prepare(`SELECT k, v FROM kv WHERE k >= $1 ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	rows, err := sel.Query(int64(2))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for rows.Next() {
		var k int64
		var v string
		if err := rows.Scan(&k, &v); err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if len(got) != 2 || got[0] != "two" || got[1] != "three" {
		t.Fatalf("select: %v", got)
	}

	// QueryRow convenience and RowsAffected.
	var n int64
	if err := db.QueryRow(`SELECT COUNT(*) FROM kv`).Scan(&n); err != nil || n != 3 {
		t.Fatalf("count: %d %v", n, err)
	}
	res, err := db.Exec(`UPDATE kv SET v = $2 WHERE k = $1`, int64(1), "uno")
	if err != nil {
		t.Fatal(err)
	}
	if aff, _ := res.RowsAffected(); aff != 1 {
		t.Fatalf("affected: %d", aff)
	}

	// Transaction commit.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO kv VALUES (4, 'four')`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Transaction rollback.
	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO kv VALUES (5, 'five')`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := db.QueryRow(`SELECT COUNT(*) FROM kv`).Scan(&n); err != nil || n != 4 {
		t.Fatalf("post-tx count: %d %v", n, err)
	}

	// Serializable isolation maps to BEGIN SERIALIZABLE.
	tx, err = db.BeginTx(context.Background(), &sql.TxOptions{Isolation: sql.LevelSerializable})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO kv VALUES (6, 'six')`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// NULL round trip.
	if _, err := db.Exec(`INSERT INTO kv VALUES ($1, $2)`, int64(7), nil); err != nil {
		t.Fatal(err)
	}
	var v sql.NullString
	if err := db.QueryRow(`SELECT v FROM kv WHERE k = 7`).Scan(&v); err != nil {
		t.Fatal(err)
	}
	if v.Valid {
		t.Fatalf("want NULL, got %q", v.String)
	}
}

// TestDriverContextCancel shows a context deadline aborting a running
// statement *server-side*: the statement's transaction is rolled
// back, and the 10s-worth of sleeping the query asked for never
// happens.
func TestDriverContextCancel(t *testing.T) {
	_, addr := startServer(t, "")
	db, err := sql.Open("ifdb", "ifdb://"+addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE big (k BIGINT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := db.Exec(`INSERT INTO big VALUES ($1)`, int64(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Pin one connection so the whole flow shares a server session.
	conn, err := db.Conn(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	tx, err := conn.BeginTx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO big VALUES (999)`); err != nil {
		t.Fatal(err)
	}

	// 200 rows x 50ms of sleep = 10s if not canceled.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = tx.ExecContext(ctx, `SELECT sleep(50) FROM big`)
	if err == nil {
		t.Fatal("canceled statement succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("cancel took %v: statement was not aborted server-side", el)
	}

	// The statement failure aborted the server-side transaction
	// (PostgreSQL semantics), taking the uncommitted insert with it.
	if err := tx.Commit(); err == nil {
		t.Fatal("commit of an aborted transaction succeeded")
	}
	var n int64
	if err := db.QueryRow(`SELECT COUNT(*) FROM big WHERE k = 999`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatal("aborted transaction's insert survived")
	}
}

// TestDriverLabelsViaDSN: a DSN carrying secrecy=... yields
// connections contaminated with that tag — they see labeled rows an
// unlabeled connection cannot.
func TestDriverLabelsViaDSN(t *testing.T) {
	srv, addr := startServer(t, "")
	admin := srv.AdminSession()
	if _, err := admin.Exec(`CREATE TABLE notes (id BIGINT PRIMARY KEY, body TEXT)`); err != nil {
		t.Fatal(err)
	}
	alice := srv.CreatePrincipal("alice")
	tag, err := srv.CreateTag(alice, "alice_notes")
	if err != nil {
		t.Fatal(err)
	}
	labeled := srv.NewSession(alice)
	if err := labeled.AddSecrecy(tag); err != nil {
		t.Fatal(err)
	}
	if _, err := labeled.Exec(`INSERT INTO notes VALUES (1, 'secret')`); err != nil {
		t.Fatal(err)
	}

	plain, err := sql.Open("ifdb", "ifdb://"+addr)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	var n int64
	if err := plain.QueryRow(`SELECT COUNT(*) FROM notes`).Scan(&n); err != nil || n != 0 {
		t.Fatalf("unlabeled conn saw %d labeled rows (err %v)", n, err)
	}

	tagged, err := sql.Open("ifdb", "ifdb://"+addr+"?secrecy=alice_notes")
	if err != nil {
		t.Fatal(err)
	}
	defer tagged.Close()
	var body string
	if err := tagged.QueryRow(`SELECT body FROM notes WHERE id = 1`).Scan(&body); err != nil {
		t.Fatal(err)
	}
	if body != "secret" {
		t.Fatalf("body: %q", body)
	}
}

// TestDSNRefusesUnknownOptions: sql.Open fails on a DSN option the
// driver does not know — a typo or a retired option — instead of
// ignoring it, and accepts every option it documents.
func TestDSNRefusesUnknownOptions(t *testing.T) {
	for key, dsn := range map[string]string{
		"reconnect": "ifdb://127.0.0.1:1?reconnect=1",
		"principle": "ifdb://127.0.0.1:1?token=tok&principle=3",
	} {
		_, err := sql.Open("ifdb", dsn)
		if want := fmt.Sprintf("ifdb: unknown DSN option %q", key); err == nil || err.Error() != want {
			t.Errorf("sql.Open(%q): %v; want %s", dsn, err, want)
		}
	}
	if _, err := driver.ParseDSN("ifdb://127.0.0.1:1?token=tok&principal=3&secrecy=a,b&endorse=c&dial-timeout=1s"); err != nil {
		t.Errorf("documented options refused: %v", err)
	}
}
