// Failover tests: promotion with epoch fencing, over real sockets.
package repl

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"ifdb/client"
	"ifdb/internal/engine"
	"ifdb/internal/wire"
)

// TestPromoteOpensWritesAndBumpsEpoch: promotion ends replica mode,
// bumps the epoch durably, and the promoted engine accepts writes that
// a fresh follower of the *new* primary then replicates.
func TestPromoteOpensWritesAndBumpsEpoch(t *testing.T) {
	eng, _, addr := startPrimary(t, false)
	s := eng.NewSession(eng.Admin())
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, v TEXT)`)
	for i := 0; i < 20; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'old')`, i))
	}

	f := openFollower(t, addr, t.TempDir(), false)
	waitConverge(t, eng, f)
	if got := f.Engine().Epoch(); got != 1 {
		t.Fatalf("follower epoch = %d, want 1", got)
	}

	// Fail over: the old primary dies, the follower is promoted.
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	ne := f.Engine()
	if ne.IsReplica() {
		t.Fatal("promoted engine still in replica mode")
	}
	if got := ne.Epoch(); got != 2 {
		t.Fatalf("promoted epoch = %d, want 2", got)
	}
	// Writes open; reads see the replicated history.
	ns := ne.NewSession(ne.Admin())
	mustExec(t, ns, `INSERT INTO t VALUES (100, 'new-epoch')`)
	res, err := ns.Exec(`SELECT COUNT(*) FROM t`)
	if err != nil || res.Rows[0][0].Int() != 21 {
		t.Fatalf("post-promotion count: %v %v", res, err)
	}
	// Double promotion is refused.
	if err := ne.Promote(); !errors.Is(err, engine.ErrNotReplica) {
		t.Fatalf("second promote: want ErrNotReplica, got %v", err)
	}

	// A fresh follower of the new primary converges on its state.
	_, srv2, addr2 := servePrimary(t, ne, "127.0.0.1:0")
	defer srv2.Close()
	f2 := openFollower(t, addr2, t.TempDir(), false)
	defer f2.Close()
	waitConverge(t, ne, f2)
	if got := f2.Engine().Epoch(); got != 2 {
		t.Fatalf("new follower epoch = %d, want 2", got)
	}
	if a, b := dumpState(ne), dumpState(f2.Engine()); a != b {
		t.Fatalf("state diverged after promotion:\nnew primary:\n%s\nfollower:\n%s", a, b)
	}
}

// TestStalePrimaryFenced: a follower that streamed under a newer epoch
// is refused by a stale primary (the fencing direction that stops a
// split brain from feeding fresh replicas stale bytes).
func TestStalePrimaryFenced(t *testing.T) {
	// Old primary P at epoch 1.
	eng, _, addr := startPrimary(t, false)
	s := eng.NewSession(eng.Admin())
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY)`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)

	// Follower converges, then is promoted: epoch 2.
	dir := t.TempDir()
	f := openFollower(t, addr, dir, false)
	waitConverge(t, eng, f)
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	ns := f.Engine().NewSession(f.Engine().Admin())
	mustExec(t, ns, `INSERT INTO t VALUES (2)`)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-point the promoted node's DataDir at the stale primary P, as
	// a follower. Its hello carries epoch 2 > P's epoch 1: P must
	// refuse ("fenced") rather than serve a stale stream.
	_, err := Open(Config{Addr: addr, DataDir: dir, RetryInterval: 20 * time.Millisecond})
	if err == nil {
		t.Fatal("stale primary accepted a newer-epoch follower")
	}
	if !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("want fencing refusal, got: %v", err)
	}
}

// TestOldPrimaryRejoinsViaBasebackup: after a failover, the crashed
// old primary — whose log may contain writes the cut discarded — comes
// back as a follower of the new primary. Its old-epoch hello forces a
// basebackup regardless of position, and it converges byte-equal,
// including the write it once had that the failover lost.
func TestOldPrimaryRejoinsViaBasebackup(t *testing.T) {
	oldDir := t.TempDir()
	oldEng, err := engine.New(engine.Config{DataDir: oldDir})
	if err != nil {
		t.Fatal(err)
	}
	_, oldSrv, addr := servePrimary(t, oldEng, "127.0.0.1:0")
	s := oldEng.NewSession(oldEng.Admin())
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, v TEXT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 'shipped')`)

	f := openFollower(t, addr, t.TempDir(), false)
	waitConverge(t, oldEng, f)

	// The old primary commits a write that never ships (its server
	// closes first), then crashes: the classic lost tail.
	if err := oldSrv.Close(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `INSERT INTO t VALUES (2, 'lost-tail')`)
	oldEng.Crash()

	// Promote the follower; write under the new epoch.
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	ne := f.Engine()
	ns := ne.NewSession(ne.Admin())
	mustExec(t, ns, `INSERT INTO t VALUES (3, 'new-epoch')`)
	newPrim, newSrv, newAddr := servePrimary(t, ne, "127.0.0.1:0")
	defer newSrv.Close()

	// The old primary rejoins as a replica. Its position is ahead of
	// anything it shipped (the lost tail), and its epoch is stale —
	// the basebackup path is the only way back in.
	before := newPrim.Basebackups.Load()
	f2, err := Open(Config{Addr: newAddr, DataDir: oldDir, RetryInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	waitConverge(t, ne, f2)
	if got := newPrim.Basebackups.Load(); got != before+1 {
		t.Fatalf("old primary rejoined without a basebackup (%d → %d)", before, got)
	}
	if got := f2.Engine().Epoch(); got != 2 {
		t.Fatalf("rejoined old primary epoch = %d, want 2", got)
	}
	if a, b := dumpState(ne), dumpState(f2.Engine()); a != b {
		t.Fatalf("state diverged after rejoin:\nnew primary:\n%s\nrejoined:\n%s", a, b)
	}
	// The lost tail is really gone (the failover cut discarded it) and
	// the new-epoch write is present: no zombie rows, no forked
	// history.
	r := f2.Engine().NewSession(f2.Engine().Admin())
	res, err := r.Exec(`SELECT v FROM t ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Text() != "shipped" || res.Rows[1][0].Text() != "new-epoch" {
		t.Fatalf("rejoined rows: %v", res.Rows)
	}
}

// TestReplicaServesFollowersOncePromoted: a node has one address. While
// its engine is a replica, a follower's hello there is refused with a
// ReplErr that says why (no cascading replication); after SELECT
// promote() at that same address, a fresh follower bootstraps from it and
// converges.
func TestReplicaServesFollowersOncePromoted(t *testing.T) {
	eng, _, addr := startPrimary(t, false)
	s := eng.NewSession(eng.Admin())
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, v TEXT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 'replicated')`)
	f := openFollower(t, addr, t.TempDir(), false)
	t.Cleanup(func() { f.Close() })
	waitConverge(t, eng, f)

	// The replica's node, wired as ifdb-server wires a durable replica:
	// hooks installed before the server accepts.
	ne := f.Engine()
	p := NewPrimary(ne, "")
	srv := wire.NewServer(ne, "")
	srv.Replicate = p.Stream
	srv.Promote = f.Promote
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	nodeAddr := ln.Addr().String()

	_, err = Open(Config{Addr: nodeAddr, DataDir: t.TempDir(), RetryInterval: 20 * time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "replica") {
		t.Fatalf("follower of a replica: err = %v, want a refusal naming the replica", err)
	}

	c, err := client.Dial(nodeAddr, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.PromoteNode()
	c.Close()
	if err != nil || st.Replica || st.Epoch != 2 {
		t.Fatalf("PROMOTE: status %+v, err %v", st, err)
	}
	ns := ne.NewSession(ne.Admin())
	mustExec(t, ns, `INSERT INTO t VALUES (2, 'new-epoch')`)

	f2 := openFollower(t, nodeAddr, t.TempDir(), false)
	defer f2.Close()
	waitConverge(t, ne, f2)
	if got := p.Basebackups.Load(); got != 1 {
		t.Fatalf("basebackups served after promotion = %d, want 1", got)
	}
	if got := f2.Engine().Epoch(); got != 2 {
		t.Fatalf("follower of the promoted node: epoch %d, want 2", got)
	}
	if a, b := dumpState(ne), dumpState(f2.Engine()); a != b {
		t.Fatalf("state diverged:\npromoted:\n%s\nfollower:\n%s", a, b)
	}
}
