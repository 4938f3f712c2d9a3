// The replication test suite: primary and follower in one process
// over real TCP sockets. Covers convergence (visible state identical
// down to TIDs and labels), catch-up after a follower restart from its
// persisted LSN, re-bootstrap after falling off the retained log,
// write rejection, and IFC label enforcement on the replica.
package repl

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ifdb/internal/engine"
	"ifdb/internal/storage"
	"ifdb/internal/wal"
)

func mustExec(t *testing.T, s *engine.Session, q string) {
	t.Helper()
	if _, err := s.Exec(q); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
}

// startPrimary opens a durable primary engine and serves replication
// on a loopback socket.
func startPrimary(t *testing.T, ifc bool) (*engine.Engine, *Primary, string) {
	t.Helper()
	eng, err := engine.New(engine.Config{IFC: ifc, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPrimary(eng, "")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go p.Serve(ln)
	t.Cleanup(func() {
		p.Close()
		eng.Close()
	})
	return eng, p, ln.Addr().String()
}

func openFollower(t *testing.T, addr, dir string, ifc bool) *Follower {
	t.Helper()
	f, err := Open(Config{Addr: addr, DataDir: dir, IFC: ifc, RetryInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// waitConverge blocks until the follower has applied everything the
// primary has logged (forcing the primary's durable horizon to its
// append edge first, since only durable bytes ship).
func waitConverge(t *testing.T, primary *engine.Engine, f *Follower) {
	t.Helper()
	if err := primary.WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	target := primary.WAL().End()
	deadline := time.Now().Add(10 * time.Second)
	for f.AppliedLSN() < target {
		if err := f.Err(); err != nil {
			t.Fatalf("follower died: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at lsn %d, want %d", f.AppliedLSN(), target)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// dumpState serializes an engine's committed-visible state: every
// table in name order, every committed version in TID order with its
// labels and a canonical deleted marker. Primary and replica dumps
// must be byte-equal.
func dumpState(e *engine.Engine) string {
	var b strings.Builder
	tabs := e.Catalog().Tables()
	sort.Slice(tabs, func(i, j int) bool { return tabs[i].Name < tabs[j].Name })
	tm := e.TxnManager()
	for _, tab := range tabs {
		fmt.Fprintf(&b, "table %s disk=%v\n", tab.Name, tab.OnDisk)
		tab.Heap.Scan(func(tid storage.TID, tv *storage.TupleVersion) bool {
			seq, ok := tm.Committed(tv.Xmin)
			if !ok {
				return true // in flight or aborted: not state
			}
			deleted := false
			if tv.Xmax != storage.InvalidXID {
				if _, ok := tm.Committed(tv.Xmax); ok {
					deleted = true
				}
			}
			fmt.Fprintf(&b, "  tid=%d xmin=%d seq=%d del=%v l=%v il=%v row=%v\n",
				tid, tv.Xmin, seq, deleted, tv.Label, tv.ILabel, tv.Row)
			return true
		})
	}
	return b.String()
}

// TestReplicaConverges is the core contract: a fresh follower
// bootstraps, tails the WAL, and ends up with byte-identical visible
// state — mem and disk tables, labels, deletes, sequences — and
// serves reads from it.
func TestReplicaConverges(t *testing.T) {
	eng, p, addr := startPrimary(t, true)
	s := eng.NewSession(eng.Admin())
	mustExec(t, s, `CREATE TABLE m (id BIGINT PRIMARY KEY, v TEXT)`)
	mustExec(t, s, `CREATE TABLE d (id BIGINT PRIMARY KEY, v TEXT) USING DISK`)
	for i := 0; i < 200; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO m VALUES (%d, 'm%d')`, i, i))
		mustExec(t, s, fmt.Sprintf(`INSERT INTO d VALUES (%d, 'd%d')`, i, i))
	}
	mustExec(t, s, `UPDATE m SET v = 'updated' WHERE id < 10`)
	mustExec(t, s, `DELETE FROM d WHERE id >= 190`)

	f := openFollower(t, addr, t.TempDir(), true)
	defer f.Close()
	waitConverge(t, eng, f)
	if got := p.Basebackups.Load(); got != 1 {
		t.Fatalf("want 1 basebackup, got %d", got)
	}
	if a, b := dumpState(eng), dumpState(f.Engine()); a != b {
		t.Fatalf("state diverged after bootstrap:\nprimary:\n%s\nreplica:\n%s", a, b)
	}

	// Keep writing: the live tail must converge too.
	mustExec(t, s, `INSERT INTO m VALUES (1000, 'tail')`)
	mustExec(t, s, `DELETE FROM m WHERE id = 5`)
	waitConverge(t, eng, f)
	if a, b := dumpState(eng), dumpState(f.Engine()); a != b {
		t.Fatalf("state diverged after tailing:\nprimary:\n%s\nreplica:\n%s", a, b)
	}

	// The replica serves reads over the replicated state.
	r := f.Engine().NewSession(f.Engine().Admin())
	res, err := r.Exec(`SELECT v FROM m WHERE id = 1000`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "tail" {
		t.Fatalf("replica read: %v", res.Rows)
	}
	// Explicit transactions work for reads.
	mustExec(t, r, `BEGIN`)
	if _, err := r.Exec(`SELECT * FROM d`); err != nil {
		t.Fatal(err)
	}
	mustExec(t, r, `COMMIT`)
}

// TestReplicaInterleavedCommits: the replica applies a transaction's
// writes at its commit record, so other history can land between a
// write and its application. An insert that took slot 0 can arrive
// after one that took slot 1: the slot it finds must still be fillable
// — a USING DISK replica once lost the first row. A DROP TABLE can land
// between a write and its commit: on the primary the write went into
// the heap the DROP deleted, so the replica must neither fail on the
// missing table nor hand the write to a re-created one. Every history
// runs on both heap backends.
func TestReplicaInterleavedCommits(t *testing.T) {
	for _, tc := range []struct {
		name    string
		history func(a, b *engine.Session, using string)
		rows    int // committed versions the primary holds after it
	}{
		{"slots", func(a, b *engine.Session, _ string) {
			mustExec(t, a, `BEGIN`)
			mustExec(t, a, `INSERT INTO d VALUES (1)`) // slot 0
			mustExec(t, b, `INSERT INTO d VALUES (2)`) // slot 1, committed first
			mustExec(t, a, `COMMIT`)
		}, 2},
		{"drop", func(a, b *engine.Session, _ string) {
			mustExec(t, a, `BEGIN`)
			mustExec(t, a, `INSERT INTO d VALUES (1)`)
			mustExec(t, b, `DROP TABLE d`)
			mustExec(t, a, `COMMIT`)
		}, 0},
		{"drop-recreate", func(a, b *engine.Session, using string) {
			mustExec(t, a, `BEGIN`)
			mustExec(t, a, `INSERT INTO d VALUES (1)`)
			mustExec(t, b, `DROP TABLE d`)
			mustExec(t, b, `CREATE TABLE d (id BIGINT PRIMARY KEY)`+using)
			mustExec(t, a, `COMMIT`)
		}, 0},
	} {
		for _, using := range []string{"", " USING DISK"} {
			eng, _, addr := startPrimary(t, false)
			a := eng.NewSession(eng.Admin())
			b := eng.NewSession(eng.Admin())
			mustExec(t, a, `CREATE TABLE d (id BIGINT PRIMARY KEY)`+using)
			f := openFollower(t, addr, t.TempDir(), false)
			waitConverge(t, eng, f)

			tc.history(a, b, using)
			waitConverge(t, eng, f)
			err := f.Err()
			p, r := dumpState(eng), dumpState(f.Engine())
			f.Close()
			if err != nil {
				t.Fatalf("%s%s: follower failed: %v", tc.name, using, err)
			}
			if p != r {
				t.Fatalf("%s%s: replica diverged:\nprimary:\n%s\nreplica:\n%s", tc.name, using, p, r)
			}
			if strings.Count(p, "tid=") != tc.rows {
				t.Fatalf("%s%s: primary holds %s", tc.name, using, p)
			}
		}
	}
}

// TestReplicaRejectsWrites: every mutation path on a replica fails
// with ErrReadOnlyReplica.
func TestReplicaRejectsWrites(t *testing.T) {
	eng, _, addr := startPrimary(t, true)
	s := eng.NewSession(eng.Admin())
	mustExec(t, s, `CREATE TABLE t (a BIGINT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)

	f := openFollower(t, addr, t.TempDir(), true)
	defer f.Close()
	waitConverge(t, eng, f)

	re := f.Engine()
	r := re.NewSession(re.Admin())
	for _, q := range []string{
		`INSERT INTO t VALUES (2)`,
		`UPDATE t SET a = 3`,
		`DELETE FROM t`,
		`CREATE TABLE u (a BIGINT)`,
		`DROP TABLE t`,
		`CREATE INDEX t_a ON t (a)`,
		// SELECT-invocable mutations: sequence allocation draws from
		// counters the stream owns, and registration would fork them.
		`SELECT create_sequence('sneaky_seq')`,
		`SELECT nextval('sneaky_seq')`,
	} {
		if _, err := r.Exec(q); !errors.Is(err, engine.ErrReadOnlyReplica) {
			t.Fatalf("%s: want ErrReadOnlyReplica, got %v", q, err)
		}
	}
	// A write inside an explicit transaction is rejected too.
	mustExec(t, r, `BEGIN`)
	if _, err := r.Exec(`INSERT INTO t VALUES (9)`); !errors.Is(err, engine.ErrReadOnlyReplica) {
		t.Fatalf("txn write: want ErrReadOnlyReplica, got %v", err)
	}
	// Authority-state mutations are writes as well.
	if _, err := r.CreatePrincipal("mallory"); !errors.Is(err, engine.ErrReadOnlyReplica) {
		t.Fatalf("CreatePrincipal: want ErrReadOnlyReplica, got %v", err)
	}
	if _, err := r.CreateTag("sneaky"); !errors.Is(err, engine.ErrReadOnlyReplica) {
		t.Fatalf("CreateTag: want ErrReadOnlyReplica, got %v", err)
	}
	// Nothing leaked through.
	waitConverge(t, eng, f)
	if a, b := dumpState(eng), dumpState(re); a != b {
		t.Fatalf("rejected writes changed replica state:\n%s\nvs\n%s", a, b)
	}
}

// TestReplicaEnforcesLabels: Query by Label confines replica reads
// exactly as primary reads — an unauthorized principal neither sees
// secret tuples nor can declassify, on either side.
func TestReplicaEnforcesLabels(t *testing.T) {
	eng, _, addr := startPrimary(t, true)
	admin := eng.NewSession(eng.Admin())
	mustExec(t, admin, `CREATE TABLE patients (name TEXT PRIMARY KEY, diagnosis TEXT)`)

	alice := eng.CreatePrincipal("alice")
	tag, err := eng.CreateTag(alice, "alice_medical")
	if err != nil {
		t.Fatal(err)
	}
	sa := eng.NewSession(alice)
	if err := sa.AddSecrecy(tag); err != nil {
		t.Fatal(err)
	}
	mustExec(t, sa, `INSERT INTO patients VALUES ('Alice', 'HIV')`)
	if err := sa.Declassify(tag); err != nil {
		t.Fatal(err)
	}
	mallory := eng.CreatePrincipal("mallory")

	f := openFollower(t, addr, t.TempDir(), true)
	defer f.Close()
	waitConverge(t, eng, f)
	re := f.Engine()

	// The replicated authority state resolves the same principals.
	rAlice, ok := re.Authority().PrincipalByName("alice")
	if !ok || rAlice != alice {
		t.Fatalf("alice not replicated: %v %v", rAlice, ok)
	}
	rMallory, ok := re.Authority().PrincipalByName("mallory")
	if !ok {
		t.Fatal("mallory not replicated")
	}

	check := func(side string, e *engine.Engine, m, a *engine.Session) {
		t.Helper()
		// Uncontaminated: the secret row is invisible.
		res, err := m.Exec(`SELECT name FROM patients`)
		if err != nil {
			t.Fatalf("%s: %v", side, err)
		}
		if len(res.Rows) != 0 {
			t.Fatalf("%s: unlabeled session saw secret rows: %v", side, res.Rows)
		}
		// Contaminated: visible, but mallory cannot shed the tag.
		if err := m.AddSecrecy(tag); err != nil {
			t.Fatalf("%s: %v", side, err)
		}
		res, err = m.Exec(`SELECT diagnosis FROM patients WHERE name = 'Alice'`)
		if err != nil {
			t.Fatalf("%s: %v", side, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Text() != "HIV" {
			t.Fatalf("%s: contaminated read failed: %v", side, res.Rows)
		}
		if err := m.Declassify(tag); !errors.Is(err, engine.ErrAuthority) {
			t.Fatalf("%s: mallory declassified: %v", side, err)
		}
		// Alice's own authority works on both sides.
		if err := a.AddSecrecy(tag); err != nil {
			t.Fatalf("%s: %v", side, err)
		}
		if err := a.Declassify(tag); err != nil {
			t.Fatalf("%s: alice denied her own authority: %v", side, err)
		}
	}
	check("primary", eng, eng.NewSession(mallory), eng.NewSession(alice))
	check("replica", re, re.NewSession(rMallory), re.NewSession(rAlice))
}

// TestFollowerRestartCatchesUp: a follower closed mid-stream reopens,
// resumes from its persisted LSN (no second basebackup), and catches
// up — including writes that happened while it was down.
func TestFollowerRestartCatchesUp(t *testing.T) {
	eng, p, addr := startPrimary(t, false)
	s := eng.NewSession(eng.Admin())
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)`)
	for i := 0; i < 50; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, i, i))
	}

	dir := t.TempDir()
	f := openFollower(t, addr, dir, false)
	waitConverge(t, eng, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Writes while the follower is down.
	for i := 50; i < 100; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, i, i))
	}
	mustExec(t, s, `UPDATE t SET v = -1 WHERE id < 5`)

	f2 := openFollower(t, addr, dir, false)
	defer f2.Close()
	waitConverge(t, eng, f2)
	if got := p.Basebackups.Load(); got != 1 {
		t.Fatalf("restart took a second basebackup (got %d); resume from the persisted LSN failed", got)
	}
	if a, b := dumpState(eng), dumpState(f2.Engine()); a != b {
		t.Fatalf("state diverged after restart:\n%s\nvs\n%s", a, b)
	}
}

// TestFollowerCrashRestartCatchesUp is the unclean variant: the
// follower engine "crashes" (no final checkpoint, lock released as on
// process death), and the rebuilt follower must still converge — the
// RecReplLSN barrier in its own WAL carries the resume position, and
// re-shipped records apply idempotently.
func TestFollowerCrashRestartCatchesUp(t *testing.T) {
	eng, _, addr := startPrimary(t, false)
	s := eng.NewSession(eng.Admin())
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)`)
	for i := 0; i < 30; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, i, i))
	}

	dir := t.TempDir()
	f := openFollower(t, addr, dir, false)
	waitConverge(t, eng, f)

	// Crash: stop the stream, then kill the engine without Close.
	f.mu.Lock()
	f.closed = true
	conn := f.conn
	f.mu.Unlock()
	conn.Close()
	<-f.done
	f.Engine().Crash()
	f.lock.Release()

	for i := 30; i < 60; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, i, i))
	}

	f2 := openFollower(t, addr, dir, false)
	defer f2.Close()
	waitConverge(t, eng, f2)
	if a, b := dumpState(eng), dumpState(f2.Engine()); a != b {
		t.Fatalf("state diverged after crash restart:\n%s\nvs\n%s", a, b)
	}
}

// TestRebootstrapAfterTruncation: while the follower is down the
// primary checkpoints (truncating the log past the follower's
// position); the reopened follower detects it and re-bootstraps.
func TestRebootstrapAfterTruncation(t *testing.T) {
	eng, p, addr := startPrimary(t, false)
	s := eng.NewSession(eng.Admin())
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY)`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)

	dir := t.TempDir()
	f := openFollower(t, addr, dir, false)
	waitConverge(t, eng, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	behind := f.AppliedLSN()
	mustExec(t, s, `INSERT INTO t VALUES (2)`)
	// Checkpoint until the log is actually truncated past the closed
	// follower's position: the primary's sender may not have noticed
	// the hangup yet, and its subscription rightly pins the log until
	// it does.
	deadline := time.Now().Add(10 * time.Second)
	for eng.WAL().Base() <= behind {
		if err := eng.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("log never truncated past the dead follower")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mustExec(t, s, `INSERT INTO t VALUES (3)`)

	f2 := openFollower(t, addr, dir, false)
	defer f2.Close()
	waitConverge(t, eng, f2)
	if got := p.Basebackups.Load(); got != 2 {
		t.Fatalf("want re-bootstrap (2 basebackups), got %d", got)
	}
	if a, b := dumpState(eng), dumpState(f2.Engine()); a != b {
		t.Fatalf("state diverged after re-bootstrap:\n%s\nvs\n%s", a, b)
	}
}

// TestCheckpointDuringStreaming: a primary checkpoint must not
// truncate log bytes an attached follower still needs; convergence
// continues across it.
func TestCheckpointDuringStreaming(t *testing.T) {
	eng, _, addr := startPrimary(t, false)
	s := eng.NewSession(eng.Admin())
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY)`)

	f := openFollower(t, addr, t.TempDir(), false)
	defer f.Close()

	for i := 0; i < 100; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
		if i%25 == 24 {
			if err := eng.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitConverge(t, eng, f)
	if a, b := dumpState(eng), dumpState(f.Engine()); a != b {
		t.Fatalf("state diverged across checkpoints:\n%s\nvs\n%s", a, b)
	}
}

// TestConcurrentWritersConverge hammers the primary from several
// sessions while the follower streams and a reader queries it —
// the concurrency surface the race detector watches.
func TestConcurrentWritersConverge(t *testing.T) {
	eng, _, addr := startPrimary(t, false)
	s := eng.NewSession(eng.Admin())
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, w BIGINT)`)

	f := openFollower(t, addr, t.TempDir(), false)
	defer f.Close()

	const writers, rows = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sw := eng.NewSession(eng.Admin())
			for i := 0; i < rows; i++ {
				if _, err := sw.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, w*rows+i, w)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	// Concurrent replica reader.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		r := f.Engine().NewSession(f.Engine().Admin())
		for i := 0; i < 200; i++ {
			if _, err := r.Exec(`SELECT * FROM t WHERE id < 10`); err != nil {
				t.Errorf("replica reader: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-readerDone
	waitConverge(t, eng, f)
	if a, b := dumpState(eng), dumpState(f.Engine()); a != b {
		t.Fatalf("state diverged under concurrency:\n%s\nvs\n%s", a, b)
	}
	r := f.Engine().NewSession(f.Engine().Admin())
	res, err := r.Exec(`SELECT * FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != writers*rows {
		t.Fatalf("replica has %d rows, want %d", len(res.Rows), writers*rows)
	}
}

// TestPrimaryRestartReplicaResumes: a clean primary restart truncates
// its WAL file, but logical LSNs continue (the base is persisted in
// the log header) — an attached follower reconnects with its applied
// LSN and resumes without being refused or re-bootstrapped.
func TestPrimaryRestartReplicaResumes(t *testing.T) {
	dir := t.TempDir()
	eng, err := engine.New(engine.Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPrimary(eng, "")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go p.Serve(ln)

	s := eng.NewSession(eng.Admin())
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY)`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)

	f := openFollower(t, addr, t.TempDir(), false)
	defer f.Close()
	waitConverge(t, eng, f)

	// Clean primary restart: Close checkpoints and truncates the log.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng2, err := engine.New(engine.Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if end, applied := eng2.WAL().End(), f.AppliedLSN(); end < applied {
		t.Fatalf("logical LSNs regressed across restart: end %d < replica applied %d", end, applied)
	}
	p2 := NewPrimary(eng2, "")
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go p2.Serve(ln2)
	defer p2.Close()

	s2 := eng2.NewSession(eng2.Admin())
	mustExec(t, s2, `INSERT INTO t VALUES (2)`)
	waitConverge(t, eng2, f)
	if err := f.Err(); err != nil {
		t.Fatalf("follower died across primary restart: %v", err)
	}
	if got := p2.Basebackups.Load(); got != 0 {
		t.Fatalf("follower re-bootstrapped after primary restart (%d basebackups); should have resumed", got)
	}
	if a, b := dumpState(eng2), dumpState(f.Engine()); a != b {
		t.Fatalf("state diverged across primary restart:\n%s\nvs\n%s", a, b)
	}
}

// TestStreamShipsOnlyDurableBytes: the primary must not ship a commit
// its own fsyncs have not covered (a failed-over replica could
// otherwise show state the primary never acknowledged). Indirectly
// asserted via wal.ShipLimit; here we pin the API contract.
func TestStreamShipsOnlyDurableBytes(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir+"/wal.log", wal.SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	lsn, err := w.Append(&wal.Record{Type: wal.RecBegin, XID: 7})
	if err != nil {
		t.Fatal(err)
	}
	if raw, _, _ := w.ReadRaw(lsn, 1<<20); len(raw) != 0 {
		t.Fatalf("undurable bytes shipped: %d", len(raw))
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	raw, next, err := w.ReadRaw(lsn, 1<<20)
	if err != nil || len(raw) == 0 {
		t.Fatalf("durable bytes not shipped: %v %d", err, len(raw))
	}
	recs, err := wal.DecodeFrames(raw, lsn)
	if err != nil || len(recs) != 1 || recs[0].XID != 7 || next != w.End() {
		t.Fatalf("round trip: %v %+v", err, recs)
	}
}

// TestSyncOffFollowerReachesWALEnd: in SyncMode off nothing ever forces
// the log — the stream follows what has been written to the file, and a
// transaction's records are written when its outcome is appended. After a
// commit, and after a rollback, on an otherwise idle primary the
// follower must reach the primary's log end with nobody asking the log
// to sync: an outcome left in the log buffer would strand it.
func TestSyncOffFollowerReachesWALEnd(t *testing.T) {
	eng, err := engine.New(engine.Config{DataDir: t.TempDir(), SyncMode: "off"})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPrimary(eng, "")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go p.Serve(ln)
	defer func() {
		p.Close()
		eng.Close()
	}()
	s := eng.NewSession(eng.Admin())
	mustExec(t, s, `CREATE TABLE t (a BIGINT PRIMARY KEY)`)
	f := openFollower(t, ln.Addr().String(), t.TempDir(), false)
	defer f.Close()

	reach := func(what string) {
		t.Helper()
		target := eng.WAL().End()
		deadline := time.Now().Add(10 * time.Second)
		for f.AppliedLSN() < target {
			if err := f.Err(); err != nil {
				t.Fatalf("follower died: %v", err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("after %s: follower stuck at lsn %d, primary log ends at %d", what, f.AppliedLSN(), target)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)
	mustExec(t, s, `COMMIT`)
	reach("a commit")
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO t VALUES (2)`)
	mustExec(t, s, `ROLLBACK`)
	reach("a rollback")
	rs := f.Engine().NewSession(f.Engine().Admin())
	res, err := rs.Exec(`SELECT a FROM t`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("replica rows %v, err %v: want the committed row only", res, err)
	}
}
