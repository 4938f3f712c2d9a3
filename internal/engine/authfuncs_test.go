package engine

import (
	"errors"
	"fmt"
	"testing"

	"ifdb/internal/types"
	"ifdb/internal/wal"
)

// TestAuthorityCallsJoinCommitToken: the WAL record of each authority
// function lies inside the calling session's commit token, as a DDL
// statement's does, so a replica read that waits on the token sees the
// change.
func TestAuthorityCallsJoinCommitToken(t *testing.T) {
	e, err := New(Config{IFC: true, DataDir: t.TempDir(), SyncMode: "off"})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := e.NewSession(e.CreatePrincipal("owner"))
	var grantee []types.Value
	for _, c := range []struct {
		sql    string
		params bool
		rec    wal.RecType
	}{
		{"SELECT create_principal('bob')", false, wal.RecPrincipal},
		{"SELECT create_tag('x')", false, wal.RecTag},
		{"SELECT delegate($1, 'x')", true, wal.RecDelegate},
		{"SELECT revoke($1, 'x')", true, wal.RecRevoke},
	} {
		var params []types.Value
		if c.params {
			params = grantee
		}
		res, err := s.Exec(c.sql, params...)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if grantee == nil {
			grantee = res.Rows[0]
		}
		recs, _, err := wal.ReadAll(e.walPath())
		if err != nil {
			t.Fatal(err)
		}
		var at wal.LSN
		for _, r := range recs {
			if r.Type == c.rec {
				at = r.LSN
			}
		}
		if at == 0 {
			t.Fatalf("%s: no record of type %d in the log", c.sql, c.rec)
		}
		if tok := s.CommitToken(); tok <= uint64(at) {
			t.Errorf("%s: commit token %d does not cover its record at lsn %d", c.sql, tok, at)
		}
	}
}

// TestAuthorityCallsInTransaction: authority state is not
// transactional, so a call inside BEGIN stays after ROLLBACK; and a
// failing call aborts the transaction like any failing statement.
func TestAuthorityCallsInTransaction(t *testing.T) {
	e, err := New(Config{IFC: true})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e.NewSession(e.Admin()), `CREATE TABLE t (k BIGINT)`)
	s := e.NewSession(e.CreatePrincipal("owner"))
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `SELECT create_tag('kept')`)
	mustExec(t, s, `ROLLBACK`)
	if _, ok := e.LookupTag("kept"); !ok {
		t.Fatal("ROLLBACK undid create_tag")
	}

	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)
	if _, err := s.Exec(`SELECT create_tag('kept')`); err == nil {
		t.Fatal("a second tag named kept was created")
	}
	if _, err := s.Exec(`COMMIT`); err == nil {
		t.Fatal("COMMIT after a failed call succeeded")
	}
	res := mustExec(t, s, `SELECT COUNT(*) FROM t`)
	if n := res.Rows[0][0].Int(); n != 0 {
		t.Fatalf("the aborted transaction's insert survived: %d rows", n)
	}
}

// TestStoredAuthorityCallRefused: a view body, a column DEFAULT or a
// constraint runs in the session of whoever reads or writes through
// it, so it may not store an authority call: a view calling
// delegate(definer, tag) would otherwise hand the definer the authority
// of the first tag owner to read it.
func TestStoredAuthorityCallRefused(t *testing.T) {
	e, err := New(Config{IFC: true})
	if err != nil {
		t.Fatal(err)
	}
	var n uint64
	e.Authority().SetIDSourceForTest(func() uint64 { n++; return n })
	owner, mallory := e.CreatePrincipal("owner"), e.CreatePrincipal("mallory")
	med, err := e.CreateTag(owner, "medical")
	if err != nil {
		t.Fatal(err)
	}
	sm := e.NewSession(mallory)
	for _, ddl := range []string{
		fmt.Sprintf(`CREATE VIEW v1 AS SELECT delegate(%d, 'medical')`, mallory),
		fmt.Sprintf(`CREATE VIEW v2 AS SELECT 1 WHERE EXISTS (SELECT DELEGATE(%d, %d))`, mallory, med),
		fmt.Sprintf(`CREATE TABLE t1 (k BIGINT, g BOOLEAN DEFAULT delegate(%d, 'medical'))`, mallory),
		fmt.Sprintf(`CREATE TABLE t2 (k BIGINT, CHECK (delegate(%d, 'medical')))`, mallory),
		`CREATE TABLE t3 (k BIGINT, CHECK (create_tag('x') > 0))`,
	} {
		if _, err := sm.Exec(ddl); !errors.Is(err, ErrAuthority) {
			t.Errorf("%s: %v, want %v", ddl, err, ErrAuthority)
		}
		// Replay (recovery, a replica's apply) refuses it as well.
		if err := e.applyDDL(mallory, ddl); !errors.Is(err, ErrAuthority) {
			t.Errorf("replayed %s: %v, want %v", ddl, err, ErrAuthority)
		}
	}

	// The tag's owner reads and writes through whatever was defined.
	so := e.NewSession(owner)
	for _, q := range []string{
		`SELECT * FROM v1`, `SELECT * FROM v2`,
		`INSERT INTO t1 (k) VALUES (1)`, `INSERT INTO t2 VALUES (1)`, `INSERT INTO t3 VALUES (1)`,
	} {
		so.Exec(q) // fails: nothing was defined
	}
	if e.Authority().HasAuthority(mallory, med) {
		t.Fatal("mallory gained authority for the owner's tag")
	}
	if _, ok := e.LookupTag("x"); ok {
		t.Fatal("a stored create_tag ran")
	}
}
