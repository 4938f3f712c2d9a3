package ifdb_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ifdb"
	"ifdb/client"
)

// TestClusterFailoverEndToEnd drives the whole failover story over
// real sockets and the public surfaces: a primary/replica pair behind
// wire servers and a client.Router; the primary crashes; the replica
// is promoted over the wire (bumped epoch); the Router follows the
// promotion and redirects writes; the fenced old primary rejoins as a
// replica of the new primary and converges to identical state; and
// read-your-writes holds through the Router under concurrent writers
// both before and after the failover.
func TestClusterFailoverEndToEnd(t *testing.T) {
	const token = "tok"
	primDir := t.TempDir()

	// --- Old primary: durable DB behind one wire server, which serves
	// clients and followers alike.
	prim, err := ifdb.Open(ifdb.Config{IFC: true, DataDir: primDir})
	if err != nil {
		t.Fatal(err)
	}
	primAddr, primSrv, _ := serveNode(t, prim, token)

	if _, err := prim.AdminSession().Exec(`CREATE TABLE t (id BIGINT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}

	// --- Replica: follows the primary at its client address; its
	// server honors promote() and, from the promotion on, serves followers
	// on that same address (what ifdb-server does with -replica-of).
	replica, err := ifdb.Open(ifdb.Config{
		IFC: true, DataDir: t.TempDir(),
		ReplicaOf: primAddr, ReplToken: token,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	replAddr, replSrv, newRepl := serveNode(t, replica, token)
	defer replSrv.Close()

	// --- Router over both nodes.
	router, err := client.OpenRouter(client.RouterConfig{
		Addrs: []string{primAddr, replAddr}, Token: token,
		FailoverTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if router.Primary() != primAddr {
		t.Fatalf("router primary = %s, want %s", router.Primary(), primAddr)
	}

	// Read-your-writes property under concurrent writers: every worker
	// inserts a row and must immediately read it back through the
	// Router, whose reads go to the replica with the commit-LSN token.
	rywProperty := func(base int) {
		t.Helper()
		const workers, rows = 4, 15
		var wg sync.WaitGroup
		errc := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < rows; i++ {
					id := base + w*rows + i
					if _, err := router.Exec(`INSERT INTO t VALUES ($1, $2)`,
						ifdb.Int(int64(id)), ifdb.Text(fmt.Sprintf("w%d", w))); err != nil {
						errc <- fmt.Errorf("insert %d: %w", id, err)
						return
					}
					res, err := router.Exec(`SELECT v FROM t WHERE id = $1`, ifdb.Int(int64(id)))
					if err != nil {
						errc <- fmt.Errorf("read %d: %w", id, err)
						return
					}
					if len(res.Rows) != 1 {
						errc <- fmt.Errorf("read-your-writes violated: row %d invisible after acknowledged write", id)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
	}
	rywProperty(0)

	// Exec of a read is the drained Query, unsharded too: same rows,
	// and one RowLabels rule (IFC is on and every row is public).
	const allRows = `SELECT id, v FROM t ORDER BY id`
	all, err := router.Exec(allRows)
	if err != nil {
		t.Fatal(err)
	}
	execIsDrainedQuery(t, allRows, all, func() (client.Rows, error) { return router.Query(allRows) }, true, true)

	// Sanity: reads really were served by the replica's state (it
	// converged), and the write epoch is 1.
	st := probeStatus(t, replAddr, token)
	if !st.Replica || st.Epoch != 1 {
		t.Fatalf("replica status before failover: %+v", st)
	}

	// --- Crash the primary: its server (clients and stream), process.
	primSrv.Close()
	prim.Crash()

	// --- Manual failover over the wire (what ifdb-cli \promote or the
	// coordinator's PromoteBest issues).
	pconn, err := client.Dial(replAddr, token, 0)
	if err != nil {
		t.Fatal(err)
	}
	pst, err := pconn.PromoteNode()
	pconn.Close()
	if err != nil {
		t.Fatal(err)
	}
	if pst.Replica || pst.Epoch != 2 {
		t.Fatalf("post-promotion status: %+v", pst)
	}
	if replica.IsReplica() || replica.Epoch() != 2 {
		t.Fatalf("replica DB not promoted: replica=%v epoch=%d", replica.IsReplica(), replica.Epoch())
	}

	// --- The Router redirects writes to the new primary.
	if _, err := router.Exec(`INSERT INTO t VALUES (1000, 'after-failover')`); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	if router.Primary() != replAddr {
		t.Fatalf("router still writes to %s after failover", router.Primary())
	}
	res, err := router.Exec(`SELECT v FROM t WHERE id = 1000`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Text() != "after-failover" {
		t.Fatalf("read after failover: %v %v", res, err)
	}

	// --- The fenced old primary rejoins as a replica of the new
	// primary at the client address the Router already knows (same
	// DataDir, same address of its own — a restart on its host),
	// re-bootstrapping across the epoch boundary.
	before := newRepl.Basebackups.Load()
	rejoined, err := ifdb.Open(ifdb.Config{
		IFC: true, DataDir: primDir,
		ReplicaOf: replAddr, ReplToken: token,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rejoined.Close()
	if got := newRepl.Basebackups.Load(); got != before+1 {
		t.Fatalf("old primary rejoined without re-bootstrapping (%d → %d basebackups)", before, got)
	}
	rejoinedSrv, _ := nodeServer(rejoined, token)
	rejoinedLn := relisten(t, primAddr)
	go rejoinedSrv.Serve(rejoinedLn)
	defer rejoinedSrv.Close()
	if err := router.Reprobe(); err != nil {
		t.Fatal(err)
	}

	// Read-your-writes again, now with writes on the new primary and
	// reads load-balanced to the rejoined old primary at epoch 2.
	rywProperty(10000)

	// --- Convergence: both nodes answer with identical state.
	waitCaughtUp(t, replica, rejoined)
	a := dumpOverWire(t, replAddr, token)
	b := dumpOverWire(t, primAddr, token)
	if a != b {
		t.Fatalf("state diverged after rejoin:\nnew primary:\n%s\nrejoined:\n%s", a, b)
	}
}

// probeStatus dials addr and returns its ifdb_node row.
func probeStatus(t *testing.T, addr, token string) *client.Status {
	t.Helper()
	conn, err := client.Dial(addr, token, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	st, err := conn.Status()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// relisten binds addr, retrying briefly (the previous listener may
// still be winding down).
func relisten(t *testing.T, addr string) net.Listener {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if time.Now().After(deadline) {
			t.Fatalf("relisten %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitCaughtUp blocks until the rejoined replica has applied the new
// primary's full log.
func waitCaughtUp(t *testing.T, primary, replica *ifdb.DB) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for replica.ReplicaAppliedLSN() < primary.WALEnd() {
		if err := replica.ReplicationErr(); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejoined replica stuck at %d, want %d", replica.ReplicaAppliedLSN(), primary.WALEnd())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// dumpSQL renders a node's visible table state over the wire.
func dumpOverWire(t *testing.T, addr, token string) string {
	t.Helper()
	conn, err := client.Dial(addr, token, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := conn.Exec(`SELECT id, v FROM t ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%v", res.Rows)
}

// TestRouterWriteWaitEndsWithContext: a write to a group with no
// primary waits for a failover for up to FailoverTimeout, pausing
// between probes; the statement's context ends the pause, so a write
// under a 10 ms deadline returns the deadline's error at once, not
// after a pause it can no longer use.
func TestRouterWriteWaitEndsWithContext(t *testing.T) {
	const token = "tok"
	prim, err := ifdb.Open(ifdb.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	primAddr, primSrv, _ := serveNode(t, prim, token)
	replica, err := ifdb.Open(ifdb.Config{DataDir: t.TempDir(), ReplicaOf: primAddr, ReplToken: token})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	replAddr, _, _ := serveNode(t, replica, token)
	router, err := client.OpenRouter(client.RouterConfig{
		Addrs: []string{primAddr, replAddr}, Token: token, FailoverTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	// The primary goes away, and nothing promotes the replica.
	primSrv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err = router.ExecContext(ctx, `CREATE TABLE t (id BIGINT PRIMARY KEY)`)
	if took := time.Since(t0); !errors.Is(err, context.DeadlineExceeded) || took >= 60*time.Millisecond {
		t.Fatalf("write with no primary: %v after %v; want %v in under 60ms", err, took, context.DeadlineExceeded)
	}
}
