package engine

import (
	"strings"
	"sync"
	"testing"

	"ifdb/internal/index"
	"ifdb/internal/label"
	"ifdb/internal/storage"
	"ifdb/internal/types"
)

// TestVacuumRespectsActiveSnapshots: a long-running reader keeps
// deleted versions reclaimable only after it finishes.
func TestVacuumRespectsActiveSnapshots(t *testing.T) {
	e, s := newTestDB(t, false)
	reader := e.NewSession(e.Admin())
	mustExec(t, reader, `BEGIN`)
	res := mustExec(t, reader, `SELECT COUNT(*) FROM emp`)
	expectRows(t, res, "5")

	// Delete everything in another session.
	mustExec(t, s, `DELETE FROM emp`)

	// Vacuum must not reclaim versions the reader can still see.
	e.Vacuum()
	res = mustExec(t, reader, `SELECT COUNT(*) FROM emp`)
	expectRows(t, res, "5")
	mustExec(t, reader, `COMMIT`)

	// Now the horizon advances and the versions go away.
	if n := e.Vacuum(); n == 0 {
		t.Fatal("nothing reclaimed after reader finished")
	}
	res = mustExec(t, s, `SELECT COUNT(*) FROM emp`)
	expectRows(t, res, "0")
}

// TestVacuumIsLabelExempt: vacuum reclaims high-labeled garbage even
// though no session could see it (paper §7.1: the GC task is exempt).
func TestVacuumIsLabelExempt(t *testing.T) {
	e := MustNew(Config{IFC: true})
	admin := e.NewSession(e.Admin())
	mustExec(t, admin, `CREATE TABLE t (id BIGINT PRIMARY KEY)`)
	alice := e.CreatePrincipal("alice")
	tg, err := e.CreateTag(alice, "t1")
	if err != nil {
		t.Fatal(err)
	}
	sa := e.NewSession(alice)
	if err := sa.AddSecrecy(tg); err != nil {
		t.Fatal(err)
	}
	mustExec(t, sa, `INSERT INTO t VALUES (1)`)
	mustExec(t, sa, `DELETE FROM t`)
	tb, _ := e.Catalog().Table("t")
	if tb.Heap.Len() != 1 {
		t.Fatalf("versions: %d", tb.Heap.Len())
	}
	if n := e.Vacuum(); n != 1 {
		t.Fatalf("reclaimed %d", n)
	}
	if tb.Heap.Len() != 0 {
		t.Fatalf("versions after vacuum: %d", tb.Heap.Len())
	}
}

// TestConcurrentNewSessionsAndVacuum races queries, churn, and vacuum.
func TestConcurrentChurnWithVacuum(t *testing.T) {
	e := MustNew(Config{})
	setup := e.NewSession(e.Admin())
	mustExec(t, setup, `CREATE TABLE c (id BIGINT PRIMARY KEY, v BIGINT)`)
	for i := int64(0); i < 50; i++ {
		mustExec(t, setup, `INSERT INTO c VALUES ($1, 0)`, types.NewInt(i))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession(e.Admin())
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := types.NewInt(int64((w*13 + i) % 50))
				// Updates conflict; ignore serialization failures.
				_, _ = s.Exec(`UPDATE c SET v = v + 1 WHERE id = $1`, id)
				if i%50 == 0 {
					if _, err := s.Exec(`SELECT COUNT(*) FROM c`); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		e.Vacuum()
	}
	close(stop)
	wg.Wait()
	// The table still has exactly 50 live rows.
	res := mustExec(t, setup, `SELECT COUNT(*) FROM c`)
	expectRows(t, res, "50")
	_ = label.Empty
}

// TestUniqueCheckPrunesDeadVersions: the unique check drops the index
// entries of the versions no snapshot sees any more. A row updated 100
// times with nobody else looking keeps at most two PK entries — the
// current version and the one the last update deleted — where it kept
// 101. A snapshot older than the updates keeps its version's entry,
// and reads the version through it, until it ends. An aborted insert's
// entry goes at the next check of its key.
func TestUniqueCheckPrunesDeadVersions(t *testing.T) {
	e := MustNew(Config{})
	s := e.NewSession(e.Admin())
	mustExec(t, s, `CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT)`)
	mustExec(t, s, `INSERT INTO kv VALUES (1, 0)`)
	tb, _ := e.Catalog().Table("kv")
	entries := func(k int64) int {
		n := 0
		tb.Indexes[0].Tree.AscendEqual(index.Key{types.NewInt(k)}, func(storage.TID) bool { n++; return true })
		return n
	}
	bump := func(times int) {
		for i := 0; i < times; i++ {
			mustExec(t, s, `UPDATE kv SET v = v + 1 WHERE k = 1`)
		}
	}

	if plan := rowStrings(mustExec(t, s, `EXPLAIN SELECT v FROM kv WHERE k = 1`)); !strings.Contains(strings.Join(plan, " "), "index=kv_pkey") {
		t.Fatalf("the point read does not probe the PK: %v", plan)
	}

	bump(100)
	if n := entries(1); n > 2 {
		t.Fatalf("after 100 updates: %d PK entries for the key, want at most 2", n)
	}

	old := e.NewSession(e.Admin())
	mustExec(t, old, `BEGIN`)
	expectRows(t, mustExec(t, old, `SELECT v FROM kv WHERE k = 1`), "100")
	bump(10)
	expectRows(t, mustExec(t, old, `SELECT v FROM kv WHERE k = 1`), "100")
	if n := entries(1); n < 11 {
		t.Fatalf("with an older snapshot open: %d PK entries for the key, want the 11 it may see", n)
	}
	mustExec(t, old, `COMMIT`)
	bump(1)
	if n := entries(1); n > 2 {
		t.Fatalf("after the older snapshot ended: %d PK entries for the key, want at most 2", n)
	}
	expectRows(t, mustExec(t, s, `SELECT v FROM kv WHERE k = 1`), "111")

	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO kv VALUES (2, 0)`)
	mustExec(t, s, `ROLLBACK`)
	mustExec(t, s, `INSERT INTO kv VALUES (2, 7)`)
	if n := entries(2); n != 1 {
		t.Fatalf("after an aborted insert and an insert: %d PK entries for the key, want 1", n)
	}
	expectRows(t, mustExec(t, s, `SELECT v FROM kv WHERE k = 2`), "7")
}
