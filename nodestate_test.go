package ifdb_test

import (
	"strings"
	"testing"
	"time"

	"ifdb"
	"ifdb/client"
	"ifdb/internal/engine"
	"ifdb/platform"
)

// nodeRow reads the whole ifdb_node row over conn.
func nodeRow(t *testing.T, conn *client.Conn) []ifdb.Value {
	t.Helper()
	res, err := conn.Exec(`SELECT * FROM ifdb_node`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || strings.Join(res.Cols, ",") != "role,epoch,applied_lsn,wal_end,stream_err" {
		t.Fatalf("ifdb_node: cols %v, %d rows", res.Cols, len(res.Rows))
	}
	if res.RowLabels != nil {
		t.Fatalf("ifdb_node row labelled %v", res.RowLabels)
	}
	return res.Rows[0]
}

// checkNodeRow compares a node's ifdb_node row with what its DB says.
func checkNodeRow(t *testing.T, what string, row []ifdb.Value, db *ifdb.DB) {
	t.Helper()
	role := "primary"
	if db.IsReplica() {
		role = "replica"
	}
	if row[0].Text() != role || uint64(row[1].Int()) != db.Epoch() ||
		uint64(row[2].Int()) != db.ReplicaAppliedLSN() || uint64(row[3].Int()) != db.WALEnd() || !row[4].IsNull() {
		t.Fatalf("%s: ifdb_node %v; DB says %s epoch %d applied %d wal end %d",
			what, row, role, db.Epoch(), db.ReplicaAppliedLSN(), db.WALEnd())
	}
}

// TestNodeStateIsSQL: a wire session reads its node's state as the
// system table ifdb_node and promotes a replica with SELECT promote().
// Only a connection that proved the platform token reaches either: an
// embedded session and a platform script are refused by name. promote()
// is refused on a primary, from a contaminated session, and from a
// view, procedure or trigger body.
func TestNodeStateIsSQL(t *testing.T) {
	const token = "tok"
	prim, err := ifdb.Open(ifdb.Config{IFC: true, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	primAddr, _, _ := serveNode(t, prim, token)
	admin := prim.AdminSession()
	mustExec(t, admin, `CREATE TABLE t (id BIGINT PRIMARY KEY)`)
	mustExec(t, admin, `INSERT INTO t VALUES (1)`)
	secret, err := prim.CreateTag(prim.Admin(), "secret")
	if err != nil {
		t.Fatal(err)
	}
	// A procedure and a trigger whose bodies try to promote the node.
	promoteBody := func(s *ifdb.Session, _ []ifdb.Value) (ifdb.Value, error) {
		_, err := s.Exec(`SELECT promote()`)
		return ifdb.Bool(true), err
	}
	if err := prim.RegisterProc("promoter", promoteBody); err != nil {
		t.Fatal(err)
	}
	mustExec(t, admin, `CREATE TABLE fired (a BIGINT)`)
	mustExec(t, admin, `CREATE TRIGGER promote_on_insert AFTER INSERT ON fired EXECUTE PROCEDURE promoter`)

	replica, err := ifdb.Open(ifdb.Config{IFC: true, DataDir: t.TempDir(), ReplicaOf: primAddr, ReplToken: token})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	replAddr, _, _ := serveNode(t, replica, token)
	waitCaughtUp(t, prim, replica)

	pc, err := client.Dial(primAddr, token, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	rc, err := client.Dial(replAddr, token, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	checkNodeRow(t, "primary", nodeRow(t, pc), prim)
	checkNodeRow(t, "replica", nodeRow(t, rc), replica)

	refused := func(what string, err error, want string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: %v, want a refusal containing %q", what, err, want)
		}
	}
	// Only a connection that proved the token sees node state.
	_, err = admin.Exec(`SELECT role FROM ifdb_node`)
	refused("embedded ifdb_node", err, "ifdb_node")
	_, err = admin.Exec(`SELECT promote()`)
	refused("embedded promote()", err, "promote()")
	err = platform.New(prim).ServeRequest(prim.Admin(), func(pr *platform.Process, _ map[string]string) error {
		_, _, err := pr.QueryRow(`SELECT role FROM ifdb_node`)
		return err
	}, nil, &strings.Builder{})
	refused("script ifdb_node", err, "ifdb_node")

	// promote() on a primary, from stored SQL and bodies, and from a
	// contaminated session.
	_, err = pc.Exec(`SELECT promote()`)
	refused("primary promote()", err, engine.ErrNotReplica.Error())
	_, err = pc.Exec(`CREATE VIEW promoting AS SELECT promote()`)
	refused("view body", err, "may be called only in a session's own statement")
	_, err = pc.Exec(`SELECT promoter()`)
	refused("procedure body", err, "not from a procedure, trigger or closure body")
	_, err = pc.Exec(`INSERT INTO fired VALUES (1)`)
	refused("trigger body", err, "not from a procedure, trigger or closure body")
	rc.AddSecrecy(secret)
	_, err = rc.Exec(`SELECT promote()`)
	refused("contaminated promote()", err, ifdb.ErrContaminated.Error())
	if !replica.IsReplica() {
		t.Fatal("a refused promote() promoted the replica")
	}

	// A clean session promotes the replica and reads the new epoch.
	clean, err := client.Dial(replAddr, token, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	res, err := clean.Exec(`SELECT promote()`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 2 || replica.IsReplica() || replica.Epoch() != 2 {
		t.Fatalf("promote() = %d; replica=%v epoch %d", got, replica.IsReplica(), replica.Epoch())
	}
	checkNodeRow(t, "promoted", nodeRow(t, clean), replica)
}

// TestNodeStateShowsDeadStream: a replica whose stream has died for
// good (its primary truncated the log it needed) still answers
// ifdb_node — no read-your-writes wait stands in the way — and its
// stream_err column carries the follower's error.
func TestNodeStateShowsDeadStream(t *testing.T) {
	const token = "tok"
	prim, err := ifdb.Open(ifdb.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	primAddr, primSrv, _ := serveNode(t, prim, token)
	mustExec(t, prim.AdminSession(), `CREATE TABLE t (id BIGINT PRIMARY KEY)`)
	replica, err := ifdb.Open(ifdb.Config{DataDir: t.TempDir(), ReplicaOf: primAddr, ReplToken: token})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	replAddr, _, _ := serveNode(t, replica, token)
	waitCaughtUp(t, prim, replica)

	// The primary goes away, commits what the replica never sees and
	// truncates it away, and comes back at the same address: the
	// replica's reconnect would need a new basebackup.
	primSrv.Close()
	mustExec(t, prim.AdminSession(), `INSERT INTO t VALUES (1)`)
	if err := prim.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv, _ := nodeServer(prim, token)
	go srv.Serve(relisten(t, primAddr))
	defer srv.Close()
	for deadline := time.Now().Add(10 * time.Second); replica.ReplicationErr() == nil; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the replica's stream never died")
		}
	}

	st := probeStatus(t, replAddr, token)
	if !st.Replica || st.Err != replica.ReplicationErr().Error() || !strings.Contains(st.Err, "basebackup") {
		t.Fatalf("dead replica's status %+v, stream error %v", st, replica.ReplicationErr())
	}
}
