package plan_test

import (
	"strings"
	"testing"

	"ifdb/internal/engine"
	"ifdb/internal/plan"
	"ifdb/internal/sql"
)

// FuzzBuildExplain feeds arbitrary parser output through the plan
// builder and the EXPLAIN renderer: whatever the parser accepts, Build
// must either return a clean error or a plan whose tree renders —
// never panic. Statements that plan successfully are also executed, so
// the analyzer's rewrites (pushdown, index selection, a sort below a
// projection) and the iterators behind them run on adversarial shapes
// too.
func FuzzBuildExplain(f *testing.F) {
	e := engine.MustNew(engine.Config{IFC: true})
	admin := e.NewSession(e.Admin())
	for _, q := range []string{
		`CREATE TABLE t (k BIGINT PRIMARY KEY, a BIGINT, b TEXT)`,
		`CREATE INDEX t_a ON t (a)`,
		`CREATE VIEW v AS SELECT k, a FROM t WHERE a > 0`,
		`INSERT INTO t VALUES (1, 10, 'x'), (2, 20, 'y'), (3, 20, NULL)`,
	} {
		if _, err := admin.Exec(q); err != nil {
			f.Fatal(err)
		}
	}
	for _, seed := range []string{
		`SELECT * FROM t`,
		`SELECT k FROM t WHERE a = 20 AND b IS NOT NULL ORDER BY k DESC LIMIT 1`,
		`SELECT x.a, COUNT(*) FROM (SELECT a FROM t) x GROUP BY x.a HAVING COUNT(*) > 1`,
		`SELECT t.k, v.a FROM t JOIN v ON t.k = v.k WHERE t.a BETWEEN 1 AND 30`,
		`SELECT k, _label FROM t WHERE k IN (SELECT k FROM v) OFFSET 1`,
		`SELECT DISTINCT b FROM t WHERE a = $1 OR k < 2`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, query string) {
		stmts, err := sql.ParseAll(query)
		if err != nil {
			return
		}
		planned := false
		allSelects := len(stmts) > 0
		for _, st := range stmts {
			sel, ok := st.(*sql.SelectStmt)
			if !ok {
				allSelects = false
				continue
			}
			p, err := plan.Build(e.Catalog(), sel, nil)
			if err != nil {
				continue
			}
			_ = p.Explain()
			planned = true
		}
		// Execute only all-SELECT batches (anything else would mutate the
		// shared fixture) that planned cleanly. sleep() is excluded: the
		// fuzzer stacks large arguments and the build already succeeded.
		if planned && allSelects && !strings.Contains(strings.ToLower(query), "sleep") {
			_, _ = admin.Exec(query)
		}
	})
}
