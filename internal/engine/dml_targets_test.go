package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ifdb/internal/types"
)

// UPDATE and DELETE select their targets with the planner's scan, so
// what the scan does for a read — poll for cancellation, count what it
// visits, reuse a cached plan — it does for a write.

// TestDMLCancelWithinOneBatch: a cancel that lands while a keyless
// UPDATE or DELETE is still choosing its rows stops it within one scan
// batch, aborts its transaction and leaves the session usable. So does
// one that lands while a join's left side drains: the right side's scan
// polls it, whether the join drains that scan (hash) or re-seeks it
// once per left row (index), and whether or not a probe finds a row.
func TestDMLCancelWithinOneBatch(t *testing.T) {
	const rows = 200_000
	e := MustNew(Config{})
	s := e.NewSession(e.Admin())
	seedBig(t, s, rows)
	mustExec(t, s, `CREATE TABLE lefty (k BIGINT PRIMARY KEY)`)
	mustExec(t, s, `INSERT INTO lefty VALUES (10), (20), (30)`)
	calls, cancelAt := 0, 0
	if err := e.RegisterProc("trip", func(ps *Session, _ []types.Value) (types.Value, error) {
		if calls++; calls == cancelAt {
			ps.Cancel()
		}
		return types.NewInt(1), nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q        string
		cancelAt int
		plan     string // a line the statement's EXPLAIN shows
	}{
		{`UPDATE big SET k = k WHERE trip(k) = 1`, 5000, "scan big"},
		{`DELETE FROM big WHERE trip(k) = 1`, 5000, "scan big"},
		// trip cancels on lefty's last row.
		{`SELECT count(*) FROM (SELECT k, trip(k) AS t FROM lefty) a JOIN big b ON a.k = b.k`, 3,
			"join index INNER big AS b | index=big_pkey prefix=1"},
		{`SELECT count(*) FROM (SELECT k, trip(k) AS t FROM lefty) a JOIN (SELECT k FROM big) b ON a.k = b.k`, 3,
			"join hash INNER"},
		// Probes that find no entry poll too.
		{`SELECT count(*) FROM (SELECT -k AS k, trip(k) AS t FROM lefty) a JOIN big b ON a.k = b.k`, 3,
			"join index INNER big AS b | index=big_pkey prefix=1"},
	} {
		explain := strings.Join(rowStrings(mustExec(t, s, "EXPLAIN "+c.q)), "\n")
		if !strings.Contains(explain, c.plan) {
			t.Fatalf("%s: plan lacks %q:\n%s", c.q, c.plan, explain)
		}
		calls, cancelAt = 0, c.cancelAt
		if _, err := s.Exec(c.q); !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: %v, want ErrCanceled", c.q, err)
		}
		// The rows the in-flight refill had admitted, and no more.
		if calls > cancelAt+2048 {
			t.Fatalf("%s: the WHERE ran on %d rows after the cancel, want within one scan batch", c.q, calls-cancelAt)
		}
		if s.InTxn() {
			t.Fatalf("%s: statement transaction still open after the cancel", c.q)
		}
		// The cancel named the failed statement: the next one runs.
		res := mustExec(t, s, `SELECT COUNT(*) FROM big`)
		expectRows(t, res, fmt.Sprint(rows))
	}
}

// TestDeleteReferenceLookupCancels: the referential-integrity lookups a
// DELETE makes poll cancellation too. A BEFORE DELETE trigger cancels
// its own session, standing in for a CANCEL that lands mid-statement;
// the parent's delete must then fail instead of walking the unindexed
// child table to its end and committing.
func TestDeleteReferenceLookupCancels(t *testing.T) {
	e := MustNew(Config{})
	s := e.NewSession(e.Admin())
	mustExec(t, s, `CREATE TABLE parent (id BIGINT PRIMARY KEY)`)
	mustExec(t, s, `CREATE TABLE child (id BIGINT PRIMARY KEY, pid BIGINT REFERENCES parent (id))`)
	mustExec(t, s, `INSERT INTO parent VALUES (1), (2)`)
	for i := 0; i < 100; i++ {
		mustExec(t, s, `INSERT INTO child VALUES ($1, 2)`, types.NewInt(int64(i)))
	}
	if err := e.RegisterProc("cancel_self", func(ps *Session, _ []types.Value) (types.Value, error) {
		ps.Cancel()
		return types.Null, nil
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `CREATE TRIGGER c BEFORE DELETE ON parent EXECUTE PROCEDURE cancel_self`)
	if res, err := s.Exec(`DELETE FROM parent WHERE id = 1`); !errors.Is(err, ErrCanceled) {
		t.Fatalf("DELETE after a cancel: %v, %v; want ErrCanceled", res, err)
	}
	expectRows(t, mustExec(t, s, `SELECT COUNT(*) FROM parent`), "2")
}

// TestDMLScanAccounting: target selection is counted like any scan —
// every tuple visited, every tuple Label Confinement hid — and its plan
// is cached under the statement and rebuilt after DDL.
func TestDMLScanAccounting(t *testing.T) {
	const n = 400
	f := newIFC(t)
	mustExec(t, f.admin, `CREATE TABLE acc (k BIGINT PRIMARY KEY, v BIGINT)`)
	low, high := f.session(t, f.bob), f.session(t, f.alice, f.atag)
	for k := 0; k < n; k++ {
		w := low
		if k%2 == 1 {
			w = high
		}
		mustExec(t, w, `INSERT INTO acc VALUES ($1, 0)`, types.NewInt(int64(k)))
	}
	type counts struct{ scanned, denied, plans, hits int64 }
	read := func() counts {
		return counts{mRowsScanned.Value(), mLabelDenials.Value(), mPlans.Value(), mPlanCacheHits.Value()}
	}
	run := func(q string) (counts, int) {
		before := read()
		res := mustExec(t, low, q)
		after := read()
		return counts{after.scanned - before.scanned, after.denied - before.denied,
			after.plans - before.plans, after.hits - before.hits}, res.Affected
	}

	const q = `UPDATE acc SET v = v + 1 WHERE v >= 0`
	d, affected := run(q)
	if affected != n/2 {
		t.Fatalf("affected %d, want the %d rows at the session's label", affected, n/2)
	}
	if d.scanned != n || d.denied != n/2 {
		t.Fatalf("scanned +%d, denied +%d; want +%d, +%d", d.scanned, d.denied, n, n/2)
	}
	if d.plans != 1 || d.hits != 0 {
		t.Fatalf("first execution: plans +%d, cache hits +%d; want +1, +0", d.plans, d.hits)
	}
	if d, _ = run(q); d.plans != 0 || d.hits != 1 {
		t.Fatalf("second execution: plans +%d, cache hits +%d; want +0, +1", d.plans, d.hits)
	}
	mustExec(t, f.admin, `CREATE INDEX acc_v ON acc (v)`)
	if d, _ = run(q); d.plans != 1 || d.hits != 0 {
		t.Fatalf("after CREATE INDEX: plans +%d, cache hits +%d; want +1, +0", d.plans, d.hits)
	}

	del, affected := run(`DELETE FROM acc WHERE v = 3`)
	if affected != n/2 || del.denied != 0 {
		// Only the session's own rows are under v = 3 in the index.
		t.Fatalf("DELETE by index: affected %d, denied +%d; want %d, +0", affected, del.denied, n/2)
	}
}

// TestExplainDML: EXPLAIN of an UPDATE or DELETE names the write, then
// shows the plan that selects its targets — the plan EXPLAIN SELECT *
// shows for the same predicate — and executes nothing.
func TestExplainDML(t *testing.T) {
	e := MustNew(Config{})
	s := e.NewSession(e.Admin())
	mustExec(t, s, `CREATE TABLE stock (
		s_w_id BIGINT, s_i_id BIGINT, s_quantity BIGINT,
		PRIMARY KEY (s_w_id, s_i_id))`)
	mustExec(t, s, `INSERT INTO stock VALUES (1, 1, 50)`)
	seedBig(t, s, 10)
	explain := func(q string, params ...types.Value) []string {
		t.Helper()
		var lines []string
		for _, r := range mustExec(t, s, q, params...).Rows {
			lines = append(lines, r[0].Text())
		}
		return lines
	}
	for _, c := range []struct{ head, stmt, sel, scan string }{
		{"Update stock", `UPDATE stock SET s_quantity = $3 WHERE s_w_id = $1 AND s_i_id = $2`,
			`SELECT * FROM stock WHERE s_w_id = $1 AND s_i_id = $2`,
			"index=stock_pkey prefix=2 | eq=[s_w_id=$1, s_i_id=$2]"},
		{"Delete big", `DELETE FROM big`, `SELECT * FROM big`, "scan big"},
		{"Delete big", `DELETE FROM big WHERE k > 3`, `SELECT * FROM big WHERE k > 3`, "scan big | push=["},
	} {
		got, want := explain(`EXPLAIN `+c.stmt), explain(`EXPLAIN `+c.sel)
		if got[0] != c.head {
			t.Errorf("EXPLAIN %s: first line %q, want %q", c.stmt, got[0], c.head)
		}
		if strings.Join(got[1:], "\n") != strings.Join(want, "\n") {
			t.Errorf("EXPLAIN %s:\n%s\nwant the plan of %s:\n%s", c.stmt, strings.Join(got[1:], "\n"), c.sel, strings.Join(want, "\n"))
		}
		if last := got[len(got)-1]; !strings.Contains(last, c.scan) {
			t.Errorf("EXPLAIN %s: scan line %q does not show %q", c.stmt, last, c.scan)
		}
	}
	expectRows(t, mustExec(t, s, `SELECT s_quantity FROM stock`), "50")
	expectRows(t, mustExec(t, s, `SELECT COUNT(*) FROM big`), "10")

	mustExec(t, s, `CREATE VIEW v AS SELECT k FROM big`)
	if _, err := s.Exec(`EXPLAIN DELETE FROM v`); !errors.Is(err, ErrReadOnlyView) {
		t.Errorf("EXPLAIN DELETE on a view: %v", err)
	}
	if _, err := s.Exec(`EXPLAIN UPDATE nosuch SET a = 1`); err == nil || !strings.Contains(err.Error(), `no table "nosuch"`) {
		t.Errorf("EXPLAIN UPDATE on a missing table: %v", err)
	}
	if _, err := s.Exec(`EXPLAIN INSERT INTO big VALUES (99)`); err == nil {
		t.Error("EXPLAIN INSERT was accepted")
	}
}
