package engine

import (
	"fmt"
	"strings"
	"testing"

	"ifdb/internal/exec"
	"ifdb/internal/types"
)

// newTestDB builds an engine with a small fleet schema used across the
// query tests.
func newTestDB(t *testing.T, ifc bool) (*Engine, *Session) {
	t.Helper()
	e := MustNew(Config{IFC: ifc})
	s := e.NewSession(e.Admin())
	mustExec(t, s, `
	CREATE TABLE dept (
		did BIGINT PRIMARY KEY,
		dname TEXT NOT NULL
	);
	CREATE TABLE emp (
		eid BIGINT PRIMARY KEY,
		name TEXT NOT NULL,
		did BIGINT REFERENCES dept (did),
		salary DOUBLE PRECISION,
		boss BIGINT
	);
	CREATE INDEX emp_dept ON emp (did);
	`)
	for i, d := range []string{"eng", "sales", "empty"} {
		mustExec(t, s, `INSERT INTO dept VALUES ($1, $2)`, types.NewInt(int64(i+1)), types.NewText(d))
	}
	rows := []struct {
		id     int64
		name   string
		dept   int64
		salary float64
		boss   types.Value
	}{
		{1, "ada", 1, 120, types.Null},
		{2, "bob", 1, 95, types.NewInt(1)},
		{3, "cyd", 2, 80, types.NewInt(1)},
		{4, "dee", 2, 80, types.NewInt(3)},
		{5, "eli", 1, 60, types.NewInt(2)},
	}
	for _, r := range rows {
		mustExec(t, s, `INSERT INTO emp VALUES ($1, $2, $3, $4, $5)`,
			types.NewInt(r.id), types.NewText(r.name), types.NewInt(r.dept),
			types.NewFloat(r.salary), r.boss)
	}
	return e, s
}

func mustExec(t *testing.T, s *Session, q string, params ...types.Value) *Result {
	t.Helper()
	res, err := s.Exec(q, params...)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return res
}

func rowStrings(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func expectRows(t *testing.T, res *Result, want ...string) {
	t.Helper()
	got := rowStrings(res)
	if len(got) != len(want) {
		t.Fatalf("got %d rows %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %q want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestSelectBasics(t *testing.T) {
	_, s := newTestDB(t, false)
	res := mustExec(t, s, `SELECT name, salary FROM emp WHERE salary > 80 ORDER BY salary DESC`)
	expectRows(t, res, "ada|120", "bob|95")
	if res.Cols[0] != "name" || res.Cols[1] != "salary" {
		t.Fatalf("cols: %v", res.Cols)
	}

	res = mustExec(t, s, `SELECT * FROM dept ORDER BY did LIMIT 2`)
	expectRows(t, res, "1|eng", "2|sales")

	res = mustExec(t, s, `SELECT dname FROM dept ORDER BY did LIMIT 1 OFFSET 1`)
	expectRows(t, res, "sales")

	res = mustExec(t, s, `SELECT DISTINCT salary FROM emp ORDER BY salary`)
	expectRows(t, res, "60", "80", "95", "120")

	res = mustExec(t, s, `SELECT name AS who, salary * 2 doubled FROM emp WHERE eid = 1`)
	if res.Cols[0] != "who" || res.Cols[1] != "doubled" {
		t.Fatalf("aliases: %v", res.Cols)
	}
	expectRows(t, res, "ada|240")
}

func TestSelectNoFrom(t *testing.T) {
	_, s := newTestDB(t, false)
	res := mustExec(t, s, `SELECT 1 + 1, 'hi'`)
	expectRows(t, res, "2|hi")
}

func TestOrderByAliasAndExpr(t *testing.T) {
	_, s := newTestDB(t, false)
	res := mustExec(t, s, `SELECT name, salary * -1 AS negsal FROM emp ORDER BY negsal`)
	if res.Rows[0][0].Text() != "ada" {
		t.Fatalf("alias order: %v", rowStrings(res))
	}
	res = mustExec(t, s, `SELECT name FROM emp ORDER BY salary DESC, name ASC LIMIT 3`)
	expectRows(t, res, "ada", "bob", "cyd")
}

func TestJoins(t *testing.T) {
	_, s := newTestDB(t, false)
	// Inner join (index nested-loop through emp_dept or dept pkey).
	res := mustExec(t, s, `
		SELECT e.name, d.dname FROM emp e JOIN dept d ON e.did = d.did
		WHERE d.dname = 'sales' ORDER BY e.name`)
	expectRows(t, res, "cyd|sales", "dee|sales")

	// Left join with NULLs for the empty department.
	res = mustExec(t, s, `
		SELECT d.dname, e.name FROM dept d LEFT JOIN emp e ON e.did = d.did
		ORDER BY d.did, e.name`)
	if len(res.Rows) != 6 {
		t.Fatalf("left join rows: %v", rowStrings(res))
	}
	last := res.Rows[5]
	if last[0].Text() != "empty" || !last[1].IsNull() {
		t.Fatalf("left join null row: %v", last)
	}

	// Self join via aliases (nested-loop/hash path: boss is unindexed).
	res = mustExec(t, s, `
		SELECT e.name, b.name FROM emp e JOIN emp b ON e.boss = b.eid
		ORDER BY e.name`)
	expectRows(t, res, "bob|ada", "cyd|ada", "dee|cyd", "eli|bob")

	// Three-way join.
	res = mustExec(t, s, `
		SELECT e.name, b.name, d.dname
		FROM emp e JOIN emp b ON e.boss = b.eid JOIN dept d ON e.did = d.did
		WHERE d.dname = 'eng' ORDER BY e.name`)
	expectRows(t, res, "bob|ada|eng", "eli|bob|eng")

	// Join with non-equi ON falls back to nested loop.
	res = mustExec(t, s, `
		SELECT e.name, b.name FROM emp e JOIN emp b ON e.salary < b.salary AND b.eid = 1
		ORDER BY e.name`)
	expectRows(t, res, "bob|ada", "cyd|ada", "dee|ada", "eli|ada")
}

func TestAggregates(t *testing.T) {
	_, s := newTestDB(t, false)
	res := mustExec(t, s, `SELECT COUNT(*), SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM emp`)
	expectRows(t, res, "5|435|87|60|120")

	res = mustExec(t, s, `SELECT COUNT(boss) FROM emp`)
	expectRows(t, res, "4") // NULL boss ignored

	res = mustExec(t, s, `SELECT COUNT(DISTINCT salary) FROM emp`)
	expectRows(t, res, "4")

	res = mustExec(t, s, `
		SELECT d.dname, COUNT(*) AS n, SUM(e.salary) AS total
		FROM emp e JOIN dept d ON e.did = d.did
		GROUP BY d.dname ORDER BY total DESC`)
	expectRows(t, res, "eng|3|275", "sales|2|160")

	res = mustExec(t, s, `
		SELECT did, COUNT(*) FROM emp GROUP BY did HAVING COUNT(*) > 2`)
	expectRows(t, res, "1|3")

	// Aggregate over empty input (no GROUP BY): one row.
	res = mustExec(t, s, `SELECT COUNT(*), SUM(salary) FROM emp WHERE salary > 1000`)
	expectRows(t, res, "0|NULL")

	// Aggregate over empty input with GROUP BY: no rows.
	res = mustExec(t, s, `SELECT did, COUNT(*) FROM emp WHERE salary > 1000 GROUP BY did`)
	if len(res.Rows) != 0 {
		t.Fatalf("grouped empty: %v", rowStrings(res))
	}

	// Expression over aggregates.
	res = mustExec(t, s, `SELECT MAX(salary) - MIN(salary) FROM emp`)
	expectRows(t, res, "60")
}

func TestSubqueries(t *testing.T) {
	_, s := newTestDB(t, false)
	res := mustExec(t, s, `SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)`)
	expectRows(t, res, "ada")

	res = mustExec(t, s, `
		SELECT name FROM emp WHERE did IN (SELECT did FROM dept WHERE dname = 'sales')
		ORDER BY name`)
	expectRows(t, res, "cyd", "dee")

	res = mustExec(t, s, `SELECT dname FROM dept WHERE EXISTS (SELECT 1 FROM emp) ORDER BY did LIMIT 1`)
	expectRows(t, res, "eng")

	// FROM subquery.
	res = mustExec(t, s, `
		SELECT t.dname, t.n FROM (
			SELECT d.dname dname, COUNT(*) n FROM emp e JOIN dept d ON e.did = d.did GROUP BY d.dname
		) t WHERE t.n = 2`)
	expectRows(t, res, "sales|2")

	// Scalar subquery with more than one row errors.
	if _, err := s.Exec(`SELECT (SELECT salary FROM emp)`); err == nil {
		t.Fatal("multi-row scalar subquery accepted")
	}
}

func TestViews(t *testing.T) {
	_, s := newTestDB(t, false)
	mustExec(t, s, `CREATE VIEW wellpaid AS SELECT name, salary FROM emp WHERE salary >= 95`)
	res := mustExec(t, s, `SELECT name FROM wellpaid ORDER BY name`)
	expectRows(t, res, "ada", "bob")

	// Column renames + alias + join against a view.
	mustExec(t, s, `CREATE VIEW deptnames (id, label) AS SELECT did, dname FROM dept`)
	res = mustExec(t, s, `SELECT v.label FROM deptnames v WHERE v.id = 2`)
	expectRows(t, res, "sales")

	res = mustExec(t, s, `
		SELECT w.name, v.label FROM wellpaid w JOIN emp e ON w.name = e.name
		JOIN deptnames v ON e.did = v.id ORDER BY w.name`)
	expectRows(t, res, "ada|eng", "bob|eng")

	// Views are read-only.
	if _, err := s.Exec(`INSERT INTO wellpaid VALUES ('zed', 1)`); err != ErrReadOnlyView {
		t.Fatalf("insert into view: %v", err)
	}
	if _, err := s.Exec(`UPDATE wellpaid SET salary = 1`); err != ErrReadOnlyView {
		t.Fatalf("update view: %v", err)
	}
	if _, err := s.Exec(`DELETE FROM wellpaid`); err != ErrReadOnlyView {
		t.Fatalf("delete view: %v", err)
	}
}

func TestStarExpansion(t *testing.T) {
	_, s := newTestDB(t, false)
	res := mustExec(t, s, `SELECT e.*, d.dname FROM emp e JOIN dept d ON e.did = d.did WHERE e.eid = 1`)
	if len(res.Cols) != 6 {
		t.Fatalf("cols: %v", res.Cols)
	}
	if res.Cols[5] != "dname" {
		t.Fatalf("cols: %v", res.Cols)
	}
	if _, err := s.Exec(`SELECT zzz.* FROM emp`); err == nil {
		t.Fatal("bogus qualified star accepted")
	}
}

func TestIndexVsSeqScanAgree(t *testing.T) {
	_, s := newTestDB(t, false)
	// eid is the pkey: equality uses the index; an inequality forces a
	// seq scan. Both must agree with each other.
	ixRes := mustExec(t, s, `SELECT name FROM emp WHERE eid = 3`)
	seqRes := mustExec(t, s, `SELECT name FROM emp WHERE eid >= 3 AND eid <= 3`)
	expectRows(t, ixRes, "cyd")
	expectRows(t, seqRes, "cyd")
	// Composite prefix: build a table with a two-column key.
	mustExec(t, s, `CREATE TABLE kv (a BIGINT, b BIGINT, v TEXT, PRIMARY KEY (a, b))`)
	for a := int64(1); a <= 3; a++ {
		for b := int64(1); b <= 3; b++ {
			mustExec(t, s, `INSERT INTO kv VALUES ($1, $2, $3)`,
				types.NewInt(a), types.NewInt(b), types.NewText(fmt.Sprintf("%d-%d", a, b)))
		}
	}
	res := mustExec(t, s, `SELECT v FROM kv WHERE a = 2 ORDER BY b`)
	expectRows(t, res, "2-1", "2-2", "2-3")
	res = mustExec(t, s, `SELECT v FROM kv WHERE a = 2 AND b = 3`)
	expectRows(t, res, "2-3")
}

func TestInsertSelectAndParams(t *testing.T) {
	_, s := newTestDB(t, false)
	mustExec(t, s, `CREATE TABLE rich (name TEXT, salary DOUBLE PRECISION)`)
	res := mustExec(t, s, `INSERT INTO rich SELECT name, salary FROM emp WHERE salary > $1`,
		types.NewFloat(90))
	if res.Affected != 2 {
		t.Fatalf("affected: %d", res.Affected)
	}
	res = mustExec(t, s, `SELECT COUNT(*) FROM rich`)
	expectRows(t, res, "2")
}

func TestBuiltinFunctionsInQueries(t *testing.T) {
	_, s := newTestDB(t, false)
	res := mustExec(t, s, `SELECT upper(name) FROM emp WHERE eid = 1`)
	expectRows(t, res, "ADA")
	res = mustExec(t, s, `SELECT name FROM emp WHERE name LIKE '_e%' ORDER BY name`)
	expectRows(t, res, "dee")
}

func TestStoredProcFromSQL(t *testing.T) {
	e, s := newTestDB(t, false)
	if err := e.RegisterProc("double_it", func(s *Session, args []types.Value) (types.Value, error) {
		return types.NewInt(args[0].Int() * 2), nil
	}); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, s, `SELECT double_it(21)`)
	expectRows(t, res, "42")
	// Procs can issue queries through the calling session (nested
	// statement execution shares the statement transaction).
	if err := e.RegisterProc("emp_count", func(s *Session, _ []types.Value) (types.Value, error) {
		r, _, err := s.QueryRow(`SELECT COUNT(*) FROM emp`)
		if err != nil {
			return types.Null, err
		}
		return r[0], nil
	}); err != nil {
		t.Fatal(err)
	}
	res = mustExec(t, s, `SELECT emp_count()`)
	expectRows(t, res, "5")
}

func TestErrorsSurface(t *testing.T) {
	_, s := newTestDB(t, false)
	for _, q := range []string{
		`SELECT zzz FROM emp`,
		`SELECT * FROM nosuch`,
		`INSERT INTO nosuch VALUES (1)`,
		`SELECT name FROM emp ORDER BY zzz`,
		`SELECT * FROM emp LIMIT 'x'`,
		`INSERT INTO dept VALUES (1)`, // arity
	} {
		if _, err := s.Exec(q); err == nil {
			t.Errorf("%q succeeded", q)
		}
	}
}

// TestCallFuncAnswersEngineKinds: the engine computes exactly the
// functions exec's table gives an engine kind. Each is answered — with
// a value or its own argument error, never "unknown function" — and a
// Builtin or Aggregate name, which Eval computes or refuses before
// asking the engine, is unknown to it.
func TestCallFuncAnswersEngineKinds(t *testing.T) {
	e := MustNew(Config{})
	f := sessionFuncs{e.NewSession(e.Admin())}
	for _, k := range []exec.FuncKind{exec.EnginePure, exec.EngineEffect} {
		for _, name := range exec.FuncNames(k) {
			if _, err := f.CallFunc(name, nil); err != nil && strings.Contains(err.Error(), "unknown function") {
				t.Errorf("%s (kind %d): %v", name, k, err)
			}
		}
	}
	for _, k := range []exec.FuncKind{exec.Builtin, exec.Aggregate} {
		for _, name := range exec.FuncNames(k) {
			if _, err := f.CallFunc(name, nil); err == nil || !strings.Contains(err.Error(), "unknown function") {
				t.Errorf("%s (kind %d): %v, want unknown function", name, k, err)
			}
		}
	}
}
