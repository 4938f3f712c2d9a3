package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ifdb/internal/storage"
	"ifdb/internal/txn"
	"ifdb/internal/types"
	"ifdb/internal/wal"
)

// openDurableEngine opens an engine on dir. Crash-simulation tests
// simply drop the returned engine without Close; reopening the same
// dir first crashes the previous incarnation (releasing the DataDir
// lock the way process death would, with no flush or checkpoint).
var crashReg sync.Map // dir -> *Engine

func openDurableEngine(t *testing.T, dir string, ifc bool) *Engine {
	t.Helper()
	if prev, ok := crashReg.Load(dir); ok {
		prev.(*Engine).Crash()
	}
	e, err := New(Config{IFC: ifc, DataDir: dir, SyncMode: "off"})
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	crashReg.Store(dir, e)
	return e
}

func countRows(t *testing.T, s *Session, q string) int {
	t.Helper()
	res, err := s.Exec(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return len(res.Rows)
}

// TestTornRestartMemTable is the core crash-recovery contract on an
// in-memory table: committed transactions survive an unclean reopen,
// in-flight and aborted ones do not.
func TestTornRestartMemTable(t *testing.T) {
	for _, disk := range []bool{false, true} {
		name := "mem"
		using := ""
		if disk {
			name, using = "disk", " USING DISK"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			e1 := openDurableEngine(t, dir, false)
			s := e1.NewSession(e1.Admin())
			mustExec(t, s, `CREATE TABLE accounts (id BIGINT PRIMARY KEY, balance BIGINT)`+using)
			mustExec(t, s, `INSERT INTO accounts VALUES (1, 100), (2, 200), (3, 300)`)
			mustExec(t, s, `UPDATE accounts SET balance = 150 WHERE id = 1`)
			mustExec(t, s, `DELETE FROM accounts WHERE id = 3`)

			// An explicitly aborted transaction.
			mustExec(t, s, `BEGIN`)
			mustExec(t, s, `INSERT INTO accounts VALUES (50, 1)`)
			mustExec(t, s, `ROLLBACK`)

			// In flight at the "crash": began, wrote, never committed.
			// It deletes id=2 as well — the stamp must not survive.
			s2 := e1.NewSession(e1.Admin())
			mustExec(t, s2, `BEGIN`)
			mustExec(t, s2, `INSERT INTO accounts VALUES (99, 999)`)
			mustExec(t, s2, `DELETE FROM accounts WHERE id = 2`)
			// no COMMIT: crash here.

			e2 := openDurableEngine(t, dir, false)
			r := e2.NewSession(e2.Admin())
			res := mustExec(t, r, `SELECT id, balance FROM accounts ORDER BY id`)
			if len(res.Rows) != 2 {
				t.Fatalf("after recovery: %d rows, want 2: %v", len(res.Rows), res.Rows)
			}
			if res.Rows[0][1].Int() != 150 || res.Rows[1][0].Int() != 2 {
				t.Fatalf("wrong rows after recovery: %v", res.Rows)
			}
			// The in-flight deleter's xmax stamp must be gone: id=2 is
			// updatable without a serialization failure.
			mustExec(t, r, `UPDATE accounts SET balance = 250 WHERE id = 2`)
			// Primary key index recovered: uniqueness still enforced.
			if _, err := r.Exec(`INSERT INTO accounts VALUES (1, 0)`); !errors.Is(err, ErrUnique) {
				t.Fatalf("unique constraint lost in recovery: %v", err)
			}
			// Index lookups see recovered rows.
			res = mustExec(t, r, `SELECT balance FROM accounts WHERE id = 2`)
			if len(res.Rows) != 1 || res.Rows[0][0].Int() != 250 {
				t.Fatalf("index probe after recovery: %v", res.Rows)
			}
		})
	}
}

// TestRecoveryIFCState checks that labels, principals, tags, and
// delegations survive a torn restart: the security state is data too.
func TestRecoveryIFCState(t *testing.T) {
	dir := t.TempDir()
	e1 := openDurableEngine(t, dir, true)
	s := e1.NewSession(e1.Admin())
	mustExec(t, s, `CREATE TABLE secrets (k TEXT PRIMARY KEY, v TEXT)`)

	alice := e1.CreatePrincipal("alice")
	bob := e1.CreatePrincipal("bob")
	tag, err := e1.CreateTag(alice, "alice_medical")
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Authority().Delegate(alice, bob, tag); err != nil {
		t.Fatal(err)
	}

	sa := e1.NewSession(alice)
	if err := sa.AddSecrecy(tag); err != nil {
		t.Fatal(err)
	}
	mustExec(t, sa, `INSERT INTO secrets VALUES ('diagnosis', 'HIV')`)
	// Unlabeled, public row.
	mustExec(t, s, `INSERT INTO secrets VALUES ('motd', 'hello')`)
	// crash.

	e2 := openDurableEngine(t, dir, true)
	alice2, ok := e2.Authority().PrincipalByName("alice")
	if !ok || alice2 != alice {
		t.Fatalf("alice not recovered: got %d want %d", alice2, alice)
	}
	bob2, _ := e2.Authority().PrincipalByName("bob")
	if bob2 != bob {
		t.Fatalf("bob not recovered")
	}
	tag2, ok := e2.LookupTag("alice_medical")
	if !ok || tag2 != tag {
		t.Fatalf("tag not recovered: got %d want %d", tag2, tag)
	}
	if e2.Admin() != e1.Admin() {
		t.Fatalf("admin principal changed across restart: %d vs %d", e2.Admin(), e1.Admin())
	}

	// Label confinement still holds on the recovered heap.
	pub := e2.NewSession(e2.Admin())
	if n := countRows(t, pub, `SELECT * FROM secrets`); n != 1 {
		t.Fatalf("empty-label session sees %d rows, want 1", n)
	}
	sa2 := e2.NewSession(alice2)
	if err := sa2.AddSecrecy(tag2); err != nil {
		t.Fatal(err)
	}
	if n := countRows(t, sa2, `SELECT * FROM secrets`); n != 2 {
		t.Fatalf("contaminated session sees %d rows, want 2", n)
	}
	// Authority (including the recovered delegation) still works.
	if err := sa2.Declassify(tag2); err != nil {
		t.Fatalf("alice lost her own authority: %v", err)
	}
	if !e2.Authority().HasAuthority(bob2, tag2) {
		t.Fatalf("bob's delegated authority lost in recovery")
	}
}

// TestCheckpointThenCrash covers the snapshot + tail-of-log replay
// path: work before the checkpoint comes from the snapshot, work
// after it from the WAL, and the WAL is actually truncated.
func TestCheckpointThenCrash(t *testing.T) {
	dir := t.TempDir()
	e1 := openDurableEngine(t, dir, false)
	s := e1.NewSession(e1.Admin())
	mustExec(t, s, `CREATE TABLE log (id BIGINT PRIMARY KEY, msg TEXT) USING DISK`)
	mustExec(t, s, `CREATE TABLE memlog (id BIGINT PRIMARY KEY, msg TEXT)`)
	for i := 1; i <= 10; i++ {
		mustExec(t, s, `INSERT INTO log VALUES ($1, 'before')`, types.NewInt(int64(i)))
		mustExec(t, s, `INSERT INTO memlog VALUES ($1, 'before')`, types.NewInt(int64(i)))
	}
	if err := e1.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	walSize := func() int64 {
		st, err := os.Stat(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	small := walSize()
	for i := 11; i <= 20; i++ {
		mustExec(t, s, `INSERT INTO log VALUES ($1, 'after')`, types.NewInt(int64(i)))
		mustExec(t, s, `INSERT INTO memlog VALUES ($1, 'after')`, types.NewInt(int64(i)))
	}
	mustExec(t, s, `DELETE FROM memlog WHERE id = 1`)
	if walSize() <= small {
		t.Fatalf("WAL did not grow after checkpoint")
	}
	// crash.

	e2 := openDurableEngine(t, dir, false)
	r := e2.NewSession(e2.Admin())
	if n := countRows(t, r, `SELECT * FROM log`); n != 20 {
		t.Fatalf("disk table: %d rows, want 20", n)
	}
	if n := countRows(t, r, `SELECT * FROM memlog`); n != 19 {
		t.Fatalf("mem table: %d rows, want 19", n)
	}
	// Both snapshot-restored and WAL-replayed rows must be indexed.
	for _, id := range []int64{2, 15} {
		res := mustExec(t, r, `SELECT msg FROM memlog WHERE id = $1`, types.NewInt(id))
		if len(res.Rows) != 1 {
			t.Fatalf("memlog id %d not found via index", id)
		}
	}
}

// TestCleanShutdownRecoversFromSnapshotAlone: Close checkpoints, so a
// reopened database replays an empty log.
func TestCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	e1 := openDurableEngine(t, dir, false)
	s := e1.NewSession(e1.Admin())
	mustExec(t, s, `CREATE TABLE t (a BIGINT PRIMARY KEY)`)
	mustExec(t, s, `INSERT INTO t VALUES (1), (2)`)
	if err := e1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := e1.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	e2 := openDurableEngine(t, dir, false)
	r := e2.NewSession(e2.Admin())
	if n := countRows(t, r, `SELECT * FROM t`); n != 2 {
		t.Fatalf("after clean shutdown: %d rows, want 2", n)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptWALTail appends garbage to the log (a torn final write)
// and checks recovery keeps everything before it.
func TestCorruptWALTail(t *testing.T) {
	dir := t.TempDir()
	e1 := openDurableEngine(t, dir, false)
	s := e1.NewSession(e1.Admin())
	mustExec(t, s, `CREATE TABLE t (a BIGINT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1), (2), (3)`)
	// crash, with junk after the last record.
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e2 := openDurableEngine(t, dir, false)
	r := e2.NewSession(e2.Admin())
	if n := countRows(t, r, `SELECT * FROM t`); n != 3 {
		t.Fatalf("after torn tail: %d rows, want 3", n)
	}
	// And the engine can keep writing + survive another restart.
	mustExec(t, r, `INSERT INTO t VALUES (4)`)
	e3 := openDurableEngine(t, dir, false)
	r3 := e3.NewSession(e3.Admin())
	if n := countRows(t, r3, `SELECT * FROM t`); n != 4 {
		t.Fatalf("after re-append: %d rows, want 4", n)
	}
}

// TestRecoveryDDLObjects: views (incl. declassifying), secondary
// indexes, triggers, and DROP TABLE all replay.
func TestRecoveryDDLObjects(t *testing.T) {
	dir := t.TempDir()
	e1 := openDurableEngine(t, dir, true)
	s := e1.NewSession(e1.Admin())
	mustExec(t, s, `CREATE TABLE cars (id BIGINT PRIMARY KEY, owner TEXT, speed BIGINT)`)
	mustExec(t, s, `CREATE INDEX cars_owner ON cars (owner)`)
	mustExec(t, s, `CREATE TABLE scratch (x BIGINT)`)
	mustExec(t, s, `DROP TABLE scratch`)

	alice := e1.CreatePrincipal("alice")
	tag, err := e1.CreateTag(alice, "alice_loc")
	if err != nil {
		t.Fatal(err)
	}
	sa := e1.NewSession(alice)
	if err := sa.AddSecrecy(tag); err != nil {
		t.Fatal(err)
	}
	mustExec(t, sa, `INSERT INTO cars VALUES (1, 'alice', 88)`)
	if err := sa.Declassify(tag); err != nil {
		t.Fatal(err)
	}
	// A declassifying view created under alice's authority.
	mustExec(t, sa, `CREATE VIEW fast_cars AS SELECT id, speed FROM cars WHERE speed > 50 WITH DECLASSIFYING (alice_loc)`)

	// A trigger bound to a stored procedure.
	if err := e1.RegisterProc("audit", func(s *Session, args []types.Value) (types.Value, error) {
		return types.Null, nil
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `CREATE TRIGGER cars_audit AFTER INSERT ON cars EXECUTE PROCEDURE audit`)
	// crash.

	e2 := openDurableEngine(t, dir, true)
	if _, ok := e2.Catalog().Table("scratch"); ok {
		t.Fatalf("dropped table resurrected")
	}
	ct, ok := e2.Catalog().Table("cars")
	if !ok {
		t.Fatalf("cars not recovered")
	}
	foundIdx := false
	for _, ix := range ct.Indexes {
		if ix.Name == "cars_owner" {
			foundIdx = true
		}
	}
	if !foundIdx {
		t.Fatalf("secondary index not recovered")
	}
	v, ok := e2.Catalog().View("fast_cars")
	if !ok || !v.IsDeclassifying() {
		t.Fatalf("declassifying view not recovered: %+v", v)
	}
	// The view declassifies: an empty-label session sees the row.
	pub := e2.NewSession(e2.Admin())
	if n := countRows(t, pub, `SELECT * FROM fast_cars`); n != 1 {
		t.Fatalf("declassifying view returned %d rows, want 1", n)
	}
	// The trigger survives; after the app re-registers the proc it
	// fires (and without registration the insert fails loudly).
	alice2, _ := e2.Authority().PrincipalByName("alice")
	sa2 := e2.NewSession(alice2)
	tag2, _ := e2.LookupTag("alice_loc")
	if err := sa2.AddSecrecy(tag2); err != nil {
		t.Fatal(err)
	}
	fired := false
	if err := e2.RegisterProc("audit", func(s *Session, args []types.Value) (types.Value, error) {
		fired = true
		return types.Null, nil
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, sa2, `INSERT INTO cars VALUES (2, 'alice', 30)`)
	if !fired {
		t.Fatalf("recovered trigger did not fire")
	}
}

// TestRecoverySequences: allocated values never repeat after a crash.
func TestRecoverySequences(t *testing.T) {
	dir := t.TempDir()
	e1 := openDurableEngine(t, dir, false)
	if err := e1.CreateSequence("ids"); err != nil {
		t.Fatal(err)
	}
	s := e1.NewSession(e1.Admin())
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY)`)
	mustExec(t, s, `INSERT INTO t VALUES (nextval('ids')), (nextval('ids')), (nextval('ids'))`)
	// crash.

	e2 := openDurableEngine(t, dir, false)
	if err := e2.CreateSequence("ids"); err != nil {
		t.Fatalf("re-registering recovered sequence: %v", err)
	}
	s2 := e2.NewSession(e2.Admin())
	mustExec(t, s2, `INSERT INTO t VALUES (nextval('ids'))`)
	res := mustExec(t, s2, `SELECT id FROM t ORDER BY id DESC`)
	if len(res.Rows) != 4 || res.Rows[0][0].Int() <= 3 {
		t.Fatalf("sequence regressed after recovery: %v", res.Rows)
	}
}

// TestRecoveryCommitDurabilityModes runs the torn-restart flow under
// each sync mode; all must recover identically in-process (fsync
// matters only for power loss, which tests cannot simulate).
func TestRecoveryCommitDurabilityModes(t *testing.T) {
	for _, mode := range []string{"off", "commit", "group"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			e1, err := New(Config{DataDir: dir, SyncMode: mode})
			if err != nil {
				t.Fatal(err)
			}
			s := e1.NewSession(e1.Admin())
			mustExec(t, s, `CREATE TABLE t (a BIGINT)`)
			mustExec(t, s, `INSERT INTO t VALUES (1)`)
			e1.Crash()
			e2, err := New(Config{DataDir: dir, SyncMode: mode})
			if err != nil {
				t.Fatal(err)
			}
			r := e2.NewSession(e2.Admin())
			if n := countRows(t, r, `SELECT * FROM t`); n != 1 {
				t.Fatalf("mode %s: %d rows, want 1", mode, n)
			}
		})
	}
}

// TestExplicitAbortNotRelogged: recovery appends abort records only
// for transactions with *no* outcome record. An explicitly rolled
// back transaction already has one — re-logging it on every
// crash-restart would accumulate duplicates and spuriously advance
// the log's last-state position (defeating the replica fast-forward
// path after clean restarts).
func TestExplicitAbortNotRelogged(t *testing.T) {
	dir := t.TempDir()
	e1 := openDurableEngine(t, dir, false)
	s := e1.NewSession(e1.Admin())
	mustExec(t, s, `CREATE TABLE t (a BIGINT)`)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)
	mustExec(t, s, `ROLLBACK`)

	countAborts := func() int {
		recs, _, err := wal.ReadAll(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range recs {
			if r.Type == wal.RecAbort {
				n++
			}
		}
		return n
	}
	if n := countAborts(); n != 1 {
		t.Fatalf("%d abort records before restart, want 1", n)
	}
	openDurableEngine(t, dir, false) // crash + reopen
	if n := countAborts(); n != 1 {
		t.Fatalf("%d abort records after crash-restart, want 1 (no duplicate)", n)
	}
}

// TestRecoveryWithRetainedLog: when a checkpoint keeps the log file
// (a lagging replica subscription pins it), the snapshot overlaps the
// retained records. Recovery must replay that shape cleanly — in
// particular a non-owner REVOKE whose edge the snapshot already
// reflects must not error, and the DDL history must not duplicate.
func TestRecoveryWithRetainedLog(t *testing.T) {
	dir := t.TempDir()
	e1 := openDurableEngine(t, dir, true)
	s := e1.NewSession(e1.Admin())
	mustExec(t, s, `CREATE TABLE t (a BIGINT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)

	owner := e1.CreatePrincipal("owner")
	mid := e1.CreatePrincipal("mid")
	leaf := e1.CreatePrincipal("leaf")
	tag, err := e1.CreateTag(owner, "secret")
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Authority().Delegate(owner, mid, tag); err != nil {
		t.Fatal(err)
	}
	if err := e1.Authority().Delegate(mid, leaf, tag); err != nil {
		t.Fatal(err)
	}
	// Non-owner revoke: the replay shape Revoke() rejects when the
	// edge is already gone.
	if err := e1.Authority().Revoke(mid, leaf, tag); err != nil {
		t.Fatal(err)
	}

	// Pin the log so the checkpoint keeps every record, then
	// checkpoint: snapshot and retained log now overlap.
	baseBefore := e1.WAL().Base()
	sub := e1.WAL().Subscribe(0)
	if err := e1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if e1.WAL().Base() != baseBefore {
		t.Fatal("test premise broken: checkpoint truncated despite subscription")
	}
	sub.Close()
	mustExec(t, s, `INSERT INTO t VALUES (2)`)

	e2 := openDurableEngine(t, dir, true)
	r := e2.NewSession(e2.Admin())
	if n := countRows(t, r, `SELECT * FROM t`); n != 2 {
		t.Fatalf("%d rows after recovery over retained log, want 2", n)
	}
	leaf2, _ := e2.Authority().PrincipalByName("leaf")
	mid2, _ := e2.Authority().PrincipalByName("mid")
	if e2.Authority().HasAuthority(leaf2, tag) {
		t.Fatal("revoked delegation resurrected by replay")
	}
	if !e2.Authority().HasAuthority(mid2, tag) {
		t.Fatal("mid's delegation lost in replay")
	}
	// DDL history must not duplicate across snapshot + retained log.
	e3 := openDurableEngine(t, dir, true)
	r3 := e3.NewSession(e3.Admin())
	if n := countRows(t, r3, `SELECT * FROM t`); n != 2 {
		t.Fatalf("%d rows after second recovery, want 2", n)
	}
}

// TestSnapshotCoversInFlightWrites: a transaction spanning a
// checkpoint (wrote before it, commits after) must be recovered
// complete — its pre-checkpoint writes come from the snapshot, its
// commit record from the post-checkpoint log.
func TestSnapshotCoversInFlightWrites(t *testing.T) {
	dir := t.TempDir()
	e1 := openDurableEngine(t, dir, false)
	s := e1.NewSession(e1.Admin())
	mustExec(t, s, `CREATE TABLE t (a BIGINT)`)

	s2 := e1.NewSession(e1.Admin())
	mustExec(t, s2, `BEGIN`)
	mustExec(t, s2, `INSERT INTO t VALUES (42)`)
	if err := e1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s2, `COMMIT`)
	// crash.

	e2 := openDurableEngine(t, dir, false)
	r := e2.NewSession(e2.Admin())
	res := mustExec(t, r, `SELECT a FROM t`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 42 {
		t.Fatalf("txn spanning checkpoint lost: %v", res.Rows)
	}
}

// TestRecoveryInsertsOutOfSlotOrder: inserts are applied first and
// logged second, so two writers' INSERT records can reach the log in
// the opposite order to their slots. Replay meets slot 1 before slot 0,
// and slot 0 must still take its row, on both heap backends.
func TestRecoveryInsertsOutOfSlotOrder(t *testing.T) {
	for _, using := range []string{"", " USING DISK"} {
		dir := t.TempDir()
		e1 := openDurableEngine(t, dir, false)
		mustExec(t, e1.NewSession(e1.Admin()), `CREATE TABLE d (id BIGINT PRIMARY KEY)`+using)
		a, b := storage.XID(e1.TxnManager().NextXID()), storage.XID(e1.TxnManager().NextXID()+1)
		seq := e1.TxnManager().CommitSeq()
		w := e1.WAL()
		for _, r := range []wal.Record{
			{Type: wal.RecBegin, XID: a},
			{Type: wal.RecBegin, XID: b},
			{Type: wal.RecInsert, XID: b, Table: "d", TID: 1, Row: []types.Value{types.NewInt(2)}},
			{Type: wal.RecInsert, XID: a, Table: "d", TID: 0, Row: []types.Value{types.NewInt(1)}},
			{Type: wal.RecCommit, XID: b, Seq: seq + 1},
			{Type: wal.RecCommit, XID: a, Seq: seq + 2},
		} {
			if _, err := w.Append(&r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}

		e2 := openDurableEngine(t, dir, false)
		r := e2.NewSession(e2.Admin())
		if n := countRows(t, r, `SELECT id FROM d`); n != 2 {
			t.Fatalf("%q: %d rows recovered, want 2", using, n)
		}
		if n := countRows(t, r, `SELECT id FROM d WHERE id = 1`); n != 1 {
			t.Fatalf("%q: the slot-0 row is not in the index", using)
		}
	}
}

// TestRecoveredXIDsDoNotCollide: new transactions after recovery must
// draw XIDs above everything in the log, or visibility would corrupt.
func TestRecoveredXIDsDoNotCollide(t *testing.T) {
	dir := t.TempDir()
	e1 := openDurableEngine(t, dir, false)
	s := e1.NewSession(e1.Admin())
	mustExec(t, s, `CREATE TABLE t (a BIGINT)`)
	for i := 0; i < 5; i++ {
		mustExec(t, s, `INSERT INTO t VALUES (1)`)
	}
	hi := e1.TxnManager().NextXID()

	e2 := openDurableEngine(t, dir, false)
	tx := e2.TxnManager().Begin(txn.SnapshotIsolation)
	if uint64(tx.XID()) <= hi {
		t.Fatalf("xid %d reused (pre-crash high water %d)", tx.XID(), hi)
	}
	tx.Abort()
}

// TestCrashLosesOnlyTheOpenTransaction: a transaction's log records
// wait in the log buffer until its outcome is appended, so process death
// (Crash) may take an open transaction's records with it — and nothing
// else. In every sync mode the committed transactions come back, the
// open one does not, and the log is not torn. If the log never heard of
// the open transaction no restart logs anything for it; if another
// transaction's commit carried the first part of its body to the file
// (straddle), the first restart logs its ABORT and the second nothing.
func TestCrashLosesOnlyTheOpenTransaction(t *testing.T) {
	for _, mode := range []string{"off", "commit", "group"} {
		for _, straddle := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/straddle=%v", mode, straddle), func(t *testing.T) {
				dir := t.TempDir()
				open := func() *Engine {
					e, err := New(Config{DataDir: dir, SyncMode: mode})
					if err != nil {
						t.Fatal(err)
					}
					return e
				}
				logged := func() []wal.Record {
					recs, torn, err := wal.ReadAll(filepath.Join(dir, "wal.log"))
					if err != nil || torn {
						t.Fatalf("log: torn %v, err %v", torn, err)
					}
					return recs
				}
				aborts := func() (n int) {
					for _, rec := range logged() {
						if rec.Type == wal.RecAbort {
							n++
						}
					}
					return n
				}
				e1 := open()
				s := e1.NewSession(e1.Admin())
				mustExec(t, s, `CREATE TABLE t (a BIGINT PRIMARY KEY, b BIGINT)`)
				mustExec(t, s, `CREATE TABLE d (a BIGINT PRIMARY KEY) USING DISK`)
				commit := func(i int64) {
					mustExec(t, s, `BEGIN`)
					mustExec(t, s, `INSERT INTO t VALUES ($1, 0)`, types.NewInt(i))
					mustExec(t, s, `INSERT INTO d VALUES ($1)`, types.NewInt(i))
					mustExec(t, s, `UPDATE t SET b = b + 1 WHERE a = $1`, types.NewInt(i))
					mustExec(t, s, `COMMIT`)
				}
				k := int64(5)
				for i := int64(0); i < k; i++ {
					commit(i)
				}
				// With no transaction open the file is the whole log.
				recs := logged()
				if end := e1.WAL().End(); recs[len(recs)-1].LSN >= end || e1.WAL().ShipLimit() != end {
					t.Fatalf("log end %d, shippable %d", end, e1.WAL().ShipLimit())
				}

				s2 := e1.NewSession(e1.Admin())
				mustExec(t, s2, `BEGIN`)
				mustExec(t, s2, `INSERT INTO t VALUES (100, 0)`)
				mustExec(t, s2, `INSERT INTO d VALUES (100)`)
				if n := len(logged()); n != len(recs) {
					t.Fatalf("%d records of an open transaction reached the file", n-len(recs))
				}
				if straddle {
					commit(k)
					k++
				}
				mustExec(t, s2, `DELETE FROM t WHERE a = 0`)
				e1.Crash()

				wantAborts := 0
				if straddle {
					wantAborts = 1
				}
				for restart := 1; restart <= 2; restart++ {
					e := open()
					if n := aborts(); n != wantAborts {
						t.Fatalf("restart %d: %d abort records in the log, want %d", restart, n, wantAborts)
					}
					r := e.NewSession(e.Admin())
					res := mustExec(t, r, `SELECT t.a, b FROM t JOIN d ON d.a = t.a ORDER BY t.a`)
					if int64(len(res.Rows)) != k {
						t.Fatalf("restart %d: %d rows, want the %d committed: %v", restart, len(res.Rows), k, res.Rows)
					}
					for i, row := range res.Rows {
						if row[0].Int() != int64(i) || row[1].Int() != 1 {
							t.Fatalf("restart %d: row %d is %v", restart, i, row)
						}
					}
					if n := countRows(t, r, `SELECT * FROM d`); int64(n) != k {
						t.Fatalf("restart %d: %d rows in the disk table, want %d", restart, n, k)
					}
					// The open transaction's delete stamp went with it.
					mustExec(t, r, `UPDATE t SET b = 1 WHERE a = 0`)
					if restart == 2 {
						e.Close()
					} else {
						e.Crash()
					}
				}
			})
		}
	}
}

// TestRecoveryDropUnderOpenWriter: a DROP TABLE can land between a
// transaction's write and its commit. On the primary the write went
// into the heap the DROP deleted, so recovery must answer what the
// primary answered before the crash — no table, or an empty re-created
// one — on both heaps. A writer still open at the crash ends aborted,
// with exactly one ABORT logged for it across restarts.
func TestRecoveryDropUnderOpenWriter(t *testing.T) {
	for _, using := range []string{"", " USING DISK"} {
		for _, tc := range []struct {
			name             string
			recreate, commit bool
		}{
			{"drop", false, true},
			{"drop-recreate", true, true},
			{"open-at-crash", true, false},
		} {
			dir := t.TempDir()
			e1 := openDurableEngine(t, dir, false)
			a, b := e1.NewSession(e1.Admin()), e1.NewSession(e1.Admin())
			mustExec(t, b, `CREATE TABLE t (a BIGINT PRIMARY KEY)`+using)
			mustExec(t, a, `BEGIN`)
			mustExec(t, a, `INSERT INTO t VALUES (1)`)
			mustExec(t, b, `DROP TABLE t`)
			if tc.recreate {
				mustExec(t, b, `CREATE TABLE t (a BIGINT PRIMARY KEY)`+using)
			}
			if tc.commit {
				mustExec(t, a, `COMMIT`)
			}
			answer := func(e *Engine) string {
				res, err := e.NewSession(e.Admin()).Exec(`SELECT a FROM t`)
				if err != nil {
					return "no table"
				}
				return fmt.Sprintf("%d rows", len(res.Rows))
			}
			want := answer(e1)

			var xid storage.XID
			aborts := func() (n int) {
				recs, _, err := wal.ReadAll(filepath.Join(dir, "wal.log"))
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range recs {
					if r.Type == wal.RecInsert {
						xid = r.XID
					}
					if r.Type == wal.RecAbort && r.XID == xid {
						n++
					}
				}
				return n
			}
			for restart := 1; restart <= 2; restart++ {
				e := openDurableEngine(t, dir, false) // crash + reopen
				if got := answer(e); got != want {
					t.Fatalf("%s%s restart %d: recovered %s, primary answered %s", tc.name, using, restart, got, want)
				}
				if tc.commit {
					continue
				}
				if n := aborts(); n != 1 || !e.TxnManager().Aborted(xid) {
					t.Fatalf("%s%s restart %d: open writer %d has %d abort records, aborted %v; want 1, true",
						tc.name, using, restart, xid, n, e.TxnManager().Aborted(xid))
				}
			}
		}
	}
}
