package engine

import (
	"fmt"
	"strings"
	"testing"

	"ifdb/internal/types"
)

// lifecycleOutcome is what a statement's end leaves behind: its error,
// the session's transaction state, the commit and abort counters,
// whether the read-your-writes token moved and whether a following
// COMMIT finds nothing to commit.
type lifecycleOutcome struct {
	err             string
	inTxn           bool
	commits, aborts int64
	tokenMoved      bool
	commitNoTxn     bool
}

// runLifecycleCase runs one statement on a fresh logged engine, in the
// given scope (autocommit, explicit or nested in a stored procedure)
// and through the given entry (Exec, or ExecStream drained one row per
// batch), and reports its outcome. Every row the statement reads calls
// note(), which inserts through the session, so a commit logs and moves
// the commit token; the failing statement divides by zero on its third
// row, after two rows have been served.
func runLifecycleCase(t *testing.T, scope, entry string, fail bool) lifecycleOutcome {
	t.Helper()
	e, err := New(Config{DataDir: t.TempDir(), SyncMode: "off"})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := e.NewSession(e.Admin())
	mustExec(t, s, `CREATE TABLE t (k BIGINT PRIMARY KEY)`)
	mustExec(t, s, `INSERT INTO t VALUES (1), (2), (3), (4), (5)`)
	mustExec(t, s, `CREATE TABLE notes (k BIGINT)`)
	if err := e.RegisterProc("note", func(ps *Session, args []types.Value) (types.Value, error) {
		_, err := ps.Exec(`INSERT INTO notes VALUES ($1)`, args[0])
		return args[0], err
	}); err != nil {
		t.Fatal(err)
	}
	q := `SELECT k, note(k) FROM t`
	if fail {
		q = `SELECT k, note(k), 10 / (3 - k) FROM t`
	}
	stmt := func(ps *Session) error {
		if entry == "Exec" {
			_, err := ps.Exec(q)
			return err
		}
		c, err := ps.ExecStream(q)
		if err != nil {
			return err
		}
		for {
			rows, _, err := c.NextBatch(1)
			if err != nil || len(rows) == 0 {
				return err
			}
		}
	}
	if err := e.RegisterProc("nested", func(ps *Session, _ []types.Value) (types.Value, error) {
		return types.Null, stmt(ps)
	}); err != nil {
		t.Fatal(err)
	}

	if scope == "explicit" {
		mustExec(t, s, `BEGIN`)
	}
	c0, a0, tok0 := mTxnCommits.Value(), mTxnAborts.Value(), s.CommitToken()
	if scope == "nested" {
		_, err = s.Exec(`SELECT nested()`)
	} else {
		err = stmt(s)
	}
	out := lifecycleOutcome{
		err:        fmt.Sprint(err),
		inTxn:      s.InTxn(),
		commits:    mTxnCommits.Value() - c0,
		aborts:     mTxnAborts.Value() - a0,
		tokenMoved: s.CommitToken() != tok0,
	}
	_, cerr := s.Exec(`COMMIT`)
	out.commitNoTxn = cerr != nil && strings.Contains(cerr.Error(), "no open transaction")
	return out
}

// TestStatementLifecycleParity: a statement resolves its transaction the
// same way whether it runs through Exec or through a drained ExecStream
// cursor, in every scope it can run in, on success and on a failure
// mid-result.
func TestStatementLifecycleParity(t *testing.T) {
	for _, scope := range []string{"autocommit", "explicit", "nested"} {
		for _, fail := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/fail=%v", scope, fail), func(t *testing.T) {
				ex := runLifecycleCase(t, scope, "Exec", fail)
				st := runLifecycleCase(t, scope, "ExecStream", fail)
				if ex != st {
					t.Fatalf("Exec %+v, ExecStream %+v", ex, st)
				}
				if failed := ex.err != "<nil>"; failed != fail {
					t.Fatalf("error %q, want failure %v", ex.err, fail)
				}
				// Only an explicit transaction that the statement left
				// standing survives it; an autocommit or nested statement
				// commits exactly when it succeeds, and a failure aborts once.
				if want := scope == "explicit" && !fail; ex.inTxn != want || ex.commitNoTxn == want {
					t.Fatalf("explicit transaction open %v, COMMIT found none %v; want open %v", ex.inTxn, ex.commitNoTxn, want)
				}
				wantCommits, wantAborts := int64(0), int64(0)
				switch {
				case fail:
					wantAborts = 1
				case scope != "explicit":
					wantCommits = 1
				}
				if ex.commits != wantCommits || ex.aborts != wantAborts {
					t.Fatalf("commits %d aborts %d, want %d and %d", ex.commits, ex.aborts, wantCommits, wantAborts)
				}
				if ex.tokenMoved != (wantCommits == 1) {
					t.Fatalf("commit token moved %v after %d commits", ex.tokenMoved, wantCommits)
				}
			})
		}
	}
}

// TestInlineStatementParsedOnce: a statement text that is not a lone
// SELECT runs through ExecStream without a second parse or parse-cache
// lookup, and a prepared DDL handle run through ExecPreparedStream
// parses its text once per run.
func TestInlineStatementParsedOnce(t *testing.T) {
	e := MustNew(Config{})
	s := e.NewSession(e.Admin())
	drain := func(c *Cursor, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for {
			rows, _, err := c.NextBatch(64)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) == 0 {
				return
			}
		}
	}
	check := func(what string, run func(), parses, hits int64) {
		t.Helper()
		p0, h0 := e.ParseCount(), mParseCacheHits.Value()
		run()
		if p, h := e.ParseCount()-p0, mParseCacheHits.Value()-h0; p != parses || h != hits {
			t.Errorf("%s: %d parses and %d parse-cache hits, want %d and %d", what, p, h, parses, hits)
		}
	}

	check("inline CREATE TABLE", func() {
		drain(s.ExecStream(`CREATE TABLE t (k BIGINT PRIMARY KEY, v BIGINT)`))
	}, 1, 0)
	check("three inline INSERTs", func() {
		for k := int64(1); k <= 3; k++ {
			drain(s.ExecStream(`INSERT INTO t VALUES ($1, 0)`, types.NewInt(k)))
		}
	}, 1, 2)
	p, err := s.Prepare(`CREATE INDEX t_v ON t (v)`)
	if err != nil {
		t.Fatal(err)
	}
	check("prepared CREATE INDEX", func() { drain(s.ExecPreparedStream(p)) }, 1, 0)
	if got := s.LastStmtStats(); got.ParseNs <= 0 || got.SQL != p.Text {
		t.Errorf("stats after prepared DDL: %+v, want its parse timed", got)
	}
}
