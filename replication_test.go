package ifdb_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"ifdb"
	"ifdb/internal/repl"
	"ifdb/internal/wire"
)

// nodeServer is a wire.Server over db, wired as ifdb-server wires a
// node: a durable node serves its WAL on the client port to followers
// presenting token (through the returned Primary; nil in memory), and
// a replica reports its stream and honours promote(). Install any other
// hook, then Serve.
func nodeServer(db *ifdb.DB, token string) (*wire.Server, *repl.Primary) {
	srv := wire.NewServer(db.Engine(), token)
	var p *repl.Primary
	if db.Engine().WAL() != nil {
		p = repl.NewPrimary(db.Engine(), token)
		srv.Replicate = p.Stream
	}
	if db.IsReplica() {
		srv.StatusErr = db.ReplicationErr
		srv.Promote = db.Promote
	}
	return srv, p
}

// serveNode serves nodeServer(db, token) on a free loopback port until
// the test ends, and returns its address.
func serveNode(t *testing.T, db *ifdb.DB, token string) (string, *wire.Server, *repl.Primary) {
	t.Helper()
	srv, p := nodeServer(db, token)
	ln := listenLocal(t)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), srv, p
}

// listenLocal binds a free loopback port.
func listenLocal(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestReplicaOfPublicAPI drives replication through the public
// surface: a durable primary DB serving its WAL on its client port
// (as every durable ifdb-server does), and a replica opened with
// Config.ReplicaOf naming that address that converges, answers
// queries, and rejects writes with ifdb.ErrReadOnlyReplica.
func TestReplicaOfPublicAPI(t *testing.T) {
	db, err := ifdb.Open(ifdb.Config{IFC: true, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	admin := db.AdminSession()
	if _, err := admin.Exec(`CREATE TABLE notes (id BIGINT PRIMARY KEY, body TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Exec(`INSERT INTO notes VALUES (1, 'hello'), (2, 'world')`); err != nil {
		t.Fatal(err)
	}

	addr, _, _ := serveNode(t, db, "s3cret")

	// Wrong token is refused.
	if _, err := ifdb.Open(ifdb.Config{
		IFC: true, DataDir: t.TempDir(),
		ReplicaOf: addr, ReplToken: "wrong",
	}); err == nil {
		t.Fatal("replica with wrong token connected")
	}

	replica, err := ifdb.Open(ifdb.Config{
		IFC: true, DataDir: t.TempDir(),
		ReplicaOf: addr, ReplToken: "s3cret",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if !replica.IsReplica() {
		t.Fatal("IsReplica() = false")
	}

	deadline := time.Now().Add(10 * time.Second)
	for replica.ReplicaAppliedLSN() < db.WALEnd() {
		if err := replica.ReplicationErr(); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %d, want %d", replica.ReplicaAppliedLSN(), db.WALEnd())
		}
		time.Sleep(2 * time.Millisecond)
	}

	rs := replica.AdminSession()
	res, err := rs.Exec(`SELECT body FROM notes ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Text() != "hello" {
		t.Fatalf("replica rows: %v", res.Rows)
	}
	if _, err := rs.Exec(`INSERT INTO notes VALUES (3, 'nope')`); !errors.Is(err, ifdb.ErrReadOnlyReplica) {
		t.Fatalf("want ErrReadOnlyReplica, got %v", err)
	}
	// A write is refused; explaining one executes nothing and is served.
	if _, err := rs.Exec(`DELETE FROM notes WHERE id = 1`); !errors.Is(err, ifdb.ErrReadOnlyReplica) {
		t.Fatalf("want ErrReadOnlyReplica, got %v", err)
	}
	if res, err := rs.Exec(`EXPLAIN DELETE FROM notes WHERE id = 1`); err != nil || res.Rows[0][0].Text() != "Delete notes" {
		t.Fatalf("EXPLAIN DELETE on a replica: %v, %v", res, err)
	}
}
