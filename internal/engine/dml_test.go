package engine

import (
	"errors"
	"strconv"
	"sync"
	"testing"

	"ifdb/internal/types"
)

func TestInsertDefaultsAndNotNull(t *testing.T) {
	e := MustNew(Config{})
	s := e.NewSession(e.Admin())
	mustExec(t, s, `CREATE TABLE t (
		id BIGINT PRIMARY KEY,
		name TEXT NOT NULL,
		n BIGINT DEFAULT 7,
		note TEXT
	)`)
	mustExec(t, s, `INSERT INTO t (id, name) VALUES (1, 'a')`)
	res := mustExec(t, s, `SELECT n, note FROM t WHERE id = 1`)
	expectRows(t, res, "7|NULL")

	if _, err := s.Exec(`INSERT INTO t (id, name) VALUES (2, NULL)`); !errors.Is(err, ErrNotNull) {
		t.Fatalf("not-null: %v", err)
	}
	if _, err := s.Exec(`INSERT INTO t (id) VALUES (3)`); !errors.Is(err, ErrNotNull) {
		t.Fatalf("missing not-null column: %v", err)
	}
	// Coercion: int literal into float column and vice versa.
	mustExec(t, s, `CREATE TABLE c (f DOUBLE PRECISION, i BIGINT)`)
	mustExec(t, s, `INSERT INTO c VALUES (3, 4.0)`)
	res = mustExec(t, s, `SELECT f, i FROM c`)
	expectRows(t, res, "3|4")
	if _, err := s.Exec(`INSERT INTO c VALUES (1, 4.5)`); err == nil {
		t.Fatal("lossy coercion accepted")
	}
}

func TestUniqueConstraintPlain(t *testing.T) {
	e := MustNew(Config{})
	s := e.NewSession(e.Admin())
	mustExec(t, s, `CREATE TABLE u (
		id BIGINT PRIMARY KEY,
		email TEXT UNIQUE,
		a BIGINT, b BIGINT,
		UNIQUE (a, b)
	)`)
	mustExec(t, s, `INSERT INTO u VALUES (1, 'x@y', 1, 1)`)
	if _, err := s.Exec(`INSERT INTO u VALUES (1, 'z@y', 2, 2)`); !errors.Is(err, ErrUnique) {
		t.Fatalf("pkey dup: %v", err)
	}
	if _, err := s.Exec(`INSERT INTO u VALUES (2, 'x@y', 2, 2)`); !errors.Is(err, ErrUnique) {
		t.Fatalf("email dup: %v", err)
	}
	if _, err := s.Exec(`INSERT INTO u VALUES (2, 'z@y', 1, 1)`); !errors.Is(err, ErrUnique) {
		t.Fatalf("composite dup: %v", err)
	}
	// NULLs never conflict.
	mustExec(t, s, `INSERT INTO u VALUES (2, NULL, NULL, 1)`)
	mustExec(t, s, `INSERT INTO u VALUES (3, NULL, NULL, 1)`)

	// Updating away and back.
	mustExec(t, s, `UPDATE u SET email = 'w@y' WHERE id = 1`)
	mustExec(t, s, `INSERT INTO u VALUES (4, 'x@y', 9, 9)`)
	// Updating into a conflict fails.
	if _, err := s.Exec(`UPDATE u SET email = 'w@y' WHERE id = 4`); !errors.Is(err, ErrUnique) {
		t.Fatalf("update into dup: %v", err)
	}
	// No-op update of the same row does not self-conflict.
	mustExec(t, s, `UPDATE u SET email = 'w@y' WHERE id = 1`)
}

func TestUpdateSemantics(t *testing.T) {
	_, s := newTestDB(t, false)
	res := mustExec(t, s, `UPDATE emp SET salary = salary + 10 WHERE did = 1`)
	if res.Affected != 3 {
		t.Fatalf("affected: %d", res.Affected)
	}
	res = mustExec(t, s, `SELECT SUM(salary) FROM emp`)
	expectRows(t, res, "465")
	// SET references old row values, evaluated consistently.
	mustExec(t, s, `CREATE TABLE sw (a BIGINT, b BIGINT)`)
	mustExec(t, s, `INSERT INTO sw VALUES (1, 2)`)
	mustExec(t, s, `UPDATE sw SET a = b, b = a`)
	res = mustExec(t, s, `SELECT a, b FROM sw`)
	expectRows(t, res, "2|1")
}

func TestDeleteSemantics(t *testing.T) {
	_, s := newTestDB(t, false)
	res := mustExec(t, s, `DELETE FROM emp WHERE salary < 90`)
	if res.Affected != 3 {
		t.Fatalf("affected: %d", res.Affected)
	}
	res = mustExec(t, s, `SELECT COUNT(*) FROM emp`)
	expectRows(t, res, "2")
	// Delete everything.
	mustExec(t, s, `DELETE FROM emp`)
	res = mustExec(t, s, `SELECT COUNT(*) FROM emp`)
	expectRows(t, res, "0")
}

func TestForeignKeyRestrict(t *testing.T) {
	_, s := newTestDB(t, false)
	// emp.did references dept: inserting a dangling did fails.
	if _, err := s.Exec(`INSERT INTO emp VALUES (9, 'zed', 42, 1, NULL)`); !errors.Is(err, ErrForeignKey) {
		t.Fatalf("dangling insert: %v", err)
	}
	// NULL FK is fine.
	mustExec(t, s, `INSERT INTO emp VALUES (9, 'zed', NULL, 1, NULL)`)
	// Deleting a referenced dept fails (RESTRICT default).
	if _, err := s.Exec(`DELETE FROM dept WHERE did = 1`); !errors.Is(err, ErrForeignKey) {
		t.Fatalf("restricted delete: %v", err)
	}
	// The empty department can go.
	mustExec(t, s, `DELETE FROM dept WHERE did = 3`)
	// Updating a referenced key away fails.
	if _, err := s.Exec(`UPDATE dept SET did = 77 WHERE did = 2`); !errors.Is(err, ErrForeignKey) {
		t.Fatalf("key-change update: %v", err)
	}
	// Updating the referencing side to a dangling value fails.
	if _, err := s.Exec(`UPDATE emp SET did = 42 WHERE eid = 1`); !errors.Is(err, ErrForeignKey) {
		t.Fatalf("dangling update: %v", err)
	}
	// ...and to a valid one succeeds.
	mustExec(t, s, `UPDATE emp SET did = 2 WHERE eid = 1`)
}

// TestKeyChangeIgnoresNullReferences: a child whose foreign key is
// NULL references nothing, so it must not pin a parent whose NULL key
// an UPDATE sets; a child holding the parent's real key still does.
func TestKeyChangeIgnoresNullReferences(t *testing.T) {
	e := MustNew(Config{})
	s := e.NewSession(e.Admin())
	mustExec(t, s, `CREATE TABLE p (id BIGINT PRIMARY KEY, code BIGINT UNIQUE)`)
	mustExec(t, s, `CREATE TABLE c (id BIGINT PRIMARY KEY, pcode BIGINT REFERENCES p (code))`)
	mustExec(t, s, `INSERT INTO p VALUES (1, NULL)`)
	mustExec(t, s, `INSERT INTO c VALUES (1, NULL)`)
	mustExec(t, s, `UPDATE p SET code = 5 WHERE id = 1`)
	expectRows(t, mustExec(t, s, `SELECT code FROM p`), "5")
	mustExec(t, s, `INSERT INTO c VALUES (2, 5)`)
	if _, err := s.Exec(`UPDATE p SET code = 6 WHERE id = 1`); !errors.Is(err, ErrForeignKey) {
		t.Fatalf("changing a referenced key: err = %v, want ErrForeignKey", err)
	}
}

func TestForeignKeyCascade(t *testing.T) {
	e := MustNew(Config{})
	s := e.NewSession(e.Admin())
	mustExec(t, s, `
	CREATE TABLE parent (id BIGINT PRIMARY KEY);
	CREATE TABLE child (
		id BIGINT PRIMARY KEY,
		pid BIGINT,
		FOREIGN KEY (pid) REFERENCES parent (id) ON DELETE CASCADE
	);
	CREATE TABLE grandchild (
		id BIGINT PRIMARY KEY,
		cid BIGINT,
		FOREIGN KEY (cid) REFERENCES child (id) ON DELETE CASCADE
	);
	`)
	mustExec(t, s, `INSERT INTO parent VALUES (1), (2)`)
	mustExec(t, s, `INSERT INTO child VALUES (10, 1), (11, 1), (12, 2)`)
	mustExec(t, s, `INSERT INTO grandchild VALUES (100, 10), (101, 12)`)
	mustExec(t, s, `DELETE FROM parent WHERE id = 1`)
	res := mustExec(t, s, `SELECT COUNT(*) FROM child`)
	expectRows(t, res, "1")
	res = mustExec(t, s, `SELECT COUNT(*) FROM grandchild`)
	expectRows(t, res, "1")
}

func TestCheckConstraint(t *testing.T) {
	e := MustNew(Config{})
	s := e.NewSession(e.Admin())
	mustExec(t, s, `CREATE TABLE acc (id BIGINT PRIMARY KEY, bal BIGINT, CHECK (bal >= 0))`)
	mustExec(t, s, `INSERT INTO acc VALUES (1, 10)`)
	if _, err := s.Exec(`INSERT INTO acc VALUES (2, -1)`); !errors.Is(err, ErrCheck) {
		t.Fatalf("check insert: %v", err)
	}
	if _, err := s.Exec(`UPDATE acc SET bal = bal - 100 WHERE id = 1`); !errors.Is(err, ErrCheck) {
		t.Fatalf("check update: %v", err)
	}
	// NULL checks pass (SQL semantics).
	mustExec(t, s, `INSERT INTO acc VALUES (3, NULL)`)
}

func TestExplicitTransactions(t *testing.T) {
	_, s := newTestDB(t, false)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO dept VALUES (50, 'fifty')`)
	res := mustExec(t, s, `SELECT COUNT(*) FROM dept`)
	expectRows(t, res, "4")
	mustExec(t, s, `ROLLBACK`)
	res = mustExec(t, s, `SELECT COUNT(*) FROM dept`)
	expectRows(t, res, "3")

	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO dept VALUES (60, 'sixty')`)
	mustExec(t, s, `COMMIT`)
	res = mustExec(t, s, `SELECT COUNT(*) FROM dept`)
	expectRows(t, res, "4")

	// A failed statement aborts the whole explicit transaction.
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO dept VALUES (70, 'seventy')`)
	if _, err := s.Exec(`INSERT INTO dept VALUES (70, 'dup')`); err == nil {
		t.Fatal("dup accepted")
	}
	if s.InTxn() {
		t.Fatal("txn survives failed statement")
	}
	res = mustExec(t, s, `SELECT COUNT(*) FROM dept`)
	expectRows(t, res, "4")

	// COMMIT without BEGIN errors.
	if _, err := s.Exec(`COMMIT`); err == nil {
		t.Fatal("commit without begin")
	}
}

func TestSnapshotIsolationAcrossSessions(t *testing.T) {
	e, s1 := newTestDB(t, false)
	s2 := e.NewSession(e.Admin())

	mustExec(t, s1, `BEGIN`)
	res := mustExec(t, s1, `SELECT COUNT(*) FROM dept`)
	expectRows(t, res, "3")

	// s2 commits a new dept after s1's snapshot.
	mustExec(t, s2, `INSERT INTO dept VALUES (99, 'new')`)

	// s1 still sees 3 (repeatable read under SI).
	res = mustExec(t, s1, `SELECT COUNT(*) FROM dept`)
	expectRows(t, res, "3")
	mustExec(t, s1, `COMMIT`)

	// New statement sees 4.
	res = mustExec(t, s1, `SELECT COUNT(*) FROM dept`)
	expectRows(t, res, "4")
}

func TestWriteWriteConflictAcrossSessions(t *testing.T) {
	e, s1 := newTestDB(t, false)
	s2 := e.NewSession(e.Admin())
	mustExec(t, s1, `BEGIN`)
	mustExec(t, s1, `UPDATE dept SET dname = 'x' WHERE did = 1`)
	// s2 (autocommit) touching the same row must fail fast.
	if _, err := s2.Exec(`UPDATE dept SET dname = 'y' WHERE did = 1`); err == nil {
		t.Fatal("conflicting update accepted")
	}
	mustExec(t, s1, `COMMIT`)
	res := mustExec(t, s1, `SELECT dname FROM dept WHERE did = 1`)
	expectRows(t, res, "x")
}

// TestAutocommitUpdateRetries: two sessions increment one row in
// autocommit, starting each round's two increments at once, so one of
// them usually meets the other's new version and loses
// first-committer-wins. The loser runs again on a fresh snapshot: every
// increment lands and none fails.
func TestAutocommitUpdateRetries(t *testing.T) {
	e := MustNew(Config{})
	admin := e.NewSession(e.Admin())
	mustExec(t, admin, `CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT)`)
	mustExec(t, admin, `INSERT INTO kv VALUES (1, 0)`)
	sessions := []*Session{e.NewSession(e.Admin()), e.NewSession(e.Admin())}
	const n = 200
	for i := 0; i < n; i++ {
		var wg sync.WaitGroup
		for _, s := range sessions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.Exec(`UPDATE kv SET v = v + 1 WHERE k = 1`); err != nil {
					t.Errorf("round %d: %v", i, err)
				}
			}()
		}
		wg.Wait()
	}
	expectRows(t, mustExec(t, admin, `SELECT v FROM kv WHERE k = 1`), strconv.Itoa(len(sessions)*n))
}

func TestTriggersOrdinary(t *testing.T) {
	e := MustNew(Config{})
	s := e.NewSession(e.Admin())
	mustExec(t, s, `CREATE TABLE audit (what TEXT)`)
	mustExec(t, s, `CREATE TABLE work (id BIGINT PRIMARY KEY, v BIGINT)`)
	calls := 0
	if err := e.RegisterProc("audit_it", func(ps *Session, _ []types.Value) (types.Value, error) {
		calls++
		ctx := ps.TriggerContext()
		if ctx == nil {
			t.Error("no trigger context")
			return types.Null, nil
		}
		_, err := ps.Exec(`INSERT INTO audit VALUES ($1)`, types.NewText(ctx.Event))
		return types.Null, err
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `CREATE TRIGGER a1 AFTER INSERT ON work EXECUTE PROCEDURE audit_it`)
	mustExec(t, s, `CREATE TRIGGER a2 AFTER UPDATE ON work EXECUTE PROCEDURE audit_it`)
	mustExec(t, s, `CREATE TRIGGER a3 AFTER DELETE ON work EXECUTE PROCEDURE audit_it`)

	mustExec(t, s, `INSERT INTO work VALUES (1, 10)`)
	mustExec(t, s, `UPDATE work SET v = 11 WHERE id = 1`)
	mustExec(t, s, `DELETE FROM work WHERE id = 1`)
	if calls != 3 {
		t.Fatalf("trigger calls: %d", calls)
	}
	res := mustExec(t, s, `SELECT what FROM audit ORDER BY what`)
	expectRows(t, res, "DELETE", "INSERT", "UPDATE")
}

func TestBeforeTriggerMutatesRow(t *testing.T) {
	e := MustNew(Config{})
	s := e.NewSession(e.Admin())
	mustExec(t, s, `CREATE TABLE norm (id BIGINT PRIMARY KEY, name TEXT)`)
	if err := e.RegisterProc("normalize", func(ps *Session, _ []types.Value) (types.Value, error) {
		ctx := ps.TriggerContext()
		ctx.New[1] = types.NewText("normalized:" + ctx.New[1].Text())
		return types.Null, nil
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `CREATE TRIGGER n1 BEFORE INSERT ON norm EXECUTE PROCEDURE normalize`)
	mustExec(t, s, `INSERT INTO norm VALUES (1, 'x')`)
	res := mustExec(t, s, `SELECT name FROM norm`)
	expectRows(t, res, "normalized:x")
}

func TestTriggerFailureAbortsStatement(t *testing.T) {
	e := MustNew(Config{})
	s := e.NewSession(e.Admin())
	mustExec(t, s, `CREATE TABLE guarded (id BIGINT PRIMARY KEY)`)
	if err := e.RegisterProc("refuse", func(ps *Session, _ []types.Value) (types.Value, error) {
		return types.Null, errors.New("refused")
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `CREATE TRIGGER g BEFORE INSERT ON guarded EXECUTE PROCEDURE refuse`)
	if _, err := s.Exec(`INSERT INTO guarded VALUES (1)`); err == nil {
		t.Fatal("refusing trigger did not fail insert")
	}
	res := mustExec(t, s, `SELECT COUNT(*) FROM guarded`)
	expectRows(t, res, "0")
}

func TestVacuumReclaimsAndPrunesIndexes(t *testing.T) {
	e, s := newTestDB(t, false)
	// Churn: update every emp 5 times, delete two.
	for i := 0; i < 5; i++ {
		mustExec(t, s, `UPDATE emp SET salary = salary + 1`)
	}
	mustExec(t, s, `DELETE FROM emp WHERE eid IN (4, 5)`)
	before := e.Stats().Tuples
	n := e.Vacuum()
	if n == 0 {
		t.Fatal("vacuum reclaimed nothing")
	}
	after := e.Stats().Tuples
	if after >= before {
		t.Fatalf("tuples before %d after %d", before, after)
	}
	// Queries still correct after vacuum.
	res := mustExec(t, s, `SELECT COUNT(*), SUM(salary) FROM emp`)
	expectRows(t, res, "3|310")
	res = mustExec(t, s, `SELECT name FROM emp WHERE eid = 1`)
	expectRows(t, res, "ada")
	// A second vacuum finds nothing.
	if n2 := e.Vacuum(); n2 != 0 {
		t.Fatalf("second vacuum reclaimed %d", n2)
	}
}

func TestDropTable(t *testing.T) {
	_, s := newTestDB(t, false)
	// dept is referenced by emp: refuse.
	if _, err := s.Exec(`DROP TABLE dept`); err == nil {
		t.Fatal("dropped referenced table")
	}
	mustExec(t, s, `DROP TABLE emp`)
	mustExec(t, s, `DROP TABLE dept`)
	if _, err := s.Exec(`SELECT * FROM emp`); err == nil {
		t.Fatal("dropped table still queryable")
	}
	mustExec(t, s, `DROP TABLE IF EXISTS emp`)
	if _, err := s.Exec(`DROP TABLE emp`); err == nil {
		t.Fatal("dropping missing table succeeded")
	}
}

func TestOnDiskTableDML(t *testing.T) {
	e := MustNew(Config{BufferPoolPages: 4})
	s := e.NewSession(e.Admin())
	mustExec(t, s, `CREATE TABLE big (id BIGINT PRIMARY KEY, payload TEXT) USING DISK`)
	long := types.NewText(string(make([]byte, 512)))
	for i := int64(0); i < 200; i++ {
		mustExec(t, s, `INSERT INTO big VALUES ($1, $2)`, types.NewInt(i), long)
	}
	res := mustExec(t, s, `SELECT COUNT(*) FROM big`)
	expectRows(t, res, "200")
	mustExec(t, s, `UPDATE big SET payload = 'small' WHERE id = 7`)
	res = mustExec(t, s, `SELECT payload FROM big WHERE id = 7`)
	expectRows(t, res, "small")
	mustExec(t, s, `DELETE FROM big WHERE id < 100`)
	res = mustExec(t, s, `SELECT COUNT(*) FROM big`)
	expectRows(t, res, "100")
	if n := e.Vacuum(); n == 0 {
		t.Fatal("disk vacuum reclaimed nothing")
	}
	res = mustExec(t, s, `SELECT COUNT(*) FROM big`)
	expectRows(t, res, "100")
}
