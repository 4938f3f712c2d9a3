package plan_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ifdb/internal/engine"
)

// Planner golden tests: EXPLAIN renderings of the analyzed plan tree
// for a fixture corpus, compared against testdata/explain/*.golden.
// Regenerate with:
//
//	go test ./internal/plan -run TestExplainGolden -update
var update = flag.Bool("update", false, "rewrite golden files from current output")

// explainFixture builds the corpus schema on a fresh IFC engine. The
// returned rewrite canonicalizes randomly-allocated tag IDs to tag
// names so the goldens are stable across runs.
func explainFixture(t *testing.T) (*engine.Session, func(string) string) {
	t.Helper()
	e := engine.MustNew(engine.Config{IFC: true})
	admin := e.NewSession(e.Admin())
	ddl := []string{
		`CREATE TABLE emp (id BIGINT PRIMARY KEY, dept BIGINT, name TEXT, salary BIGINT, boss BIGINT)`,
		`CREATE TABLE dept (id BIGINT PRIMARY KEY, dname TEXT)`,
		`CREATE INDEX emp_dept ON emp (dept)`,
		`CREATE INDEX emp_dept_sal ON emp (dept, salary)`,
		`CREATE VIEW wellpaid AS SELECT id, name, salary FROM emp WHERE salary > 1500`,
	}
	for _, q := range ddl {
		if _, err := admin.Exec(q); err != nil {
			t.Fatalf("fixture %q: %v", q, err)
		}
	}
	owner := e.CreatePrincipal("owner")
	tag, err := e.CreateTag(owner, "t_hr")
	if err != nil {
		t.Fatal(err)
	}
	so := e.NewSession(owner)
	if err := so.AddSecrecy(tag); err != nil {
		t.Fatal(err)
	}
	if _, err := so.Exec(`CREATE VIEW hr_pay AS
		SELECT id, salary FROM emp WITH DECLASSIFYING (t_hr)`); err != nil {
		t.Fatal(err)
	}
	id := fmt.Sprintf("%d", uint64(tag))
	return admin, func(s string) string { return strings.ReplaceAll(s, id, "t_hr") }
}

var explainCases = []struct{ name, sql string }{
	// Index selection: primary key, secondary, composite prefix.
	{"point_pk", `SELECT id, name FROM emp WHERE id = 7`},
	{"secondary_index", `SELECT id, name FROM emp WHERE dept = 3`},
	{"composite_prefix", `SELECT id FROM emp WHERE dept = 2 AND salary = 1200`},
	// Predicate pushdown: infallible conjuncts land below the scan;
	// fallible trees stay in a filter above it.
	{"pushdown_mixed", `SELECT id FROM emp WHERE dept = 2 AND salary > 1200`},
	{"pushdown_params", `SELECT id FROM emp WHERE dept = $1 AND id BETWEEN $2 AND $3`},
	{"fallible_filter", `SELECT id FROM emp WHERE salary / (dept + 1) > 300`},
	{"like_filter", `SELECT id FROM emp WHERE name LIKE 'n%' AND dept = 1`},
	// A scan hands over whole heap rows; the projection copies what it
	// keeps.
	{"prune_columns", `SELECT name FROM emp WHERE dept = 0 ORDER BY name`},
	{"prune_alias", `SELECT e.salary FROM emp e WHERE e.id < 10`},
	// Joins: index join, hash equi-join (a derived table has no index
	// to probe), non-equi, LEFT.
	{"join_index", `SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept = d.id WHERE e.salary > 1700`},
	{"join_hash", `SELECT e.name, d.dname FROM emp e JOIN (SELECT id, dname FROM dept) d ON e.dept = d.id WHERE e.salary > 1700`},
	{"join_self", `SELECT e.id, b.id FROM emp e JOIN emp b ON e.boss = b.id`},
	{"join_left", `SELECT d.dname, e.name FROM dept d LEFT JOIN emp e ON d.id = e.dept`},
	{"join_nonequi", `SELECT e.id, d.id FROM emp e JOIN dept d ON e.dept < d.id`},
	// Blocking shapes.
	{"aggregate", `SELECT dept, COUNT(*), AVG(salary) FROM emp GROUP BY dept HAVING COUNT(*) > 7`},
	{"distinct_sort", `SELECT DISTINCT dept FROM emp ORDER BY dept DESC`},
	{"limit_offset", `SELECT id FROM emp ORDER BY salary DESC LIMIT 5 OFFSET 2`},
	// A sort under LIMIT keeps only the rows LIMIT + OFFSET can reach,
	// unless DISTINCT stands between them.
	{"sort_bounded", `SELECT id FROM emp ORDER BY salary DESC, id LIMIT 3`},
	{"sort_bounded_param", `SELECT dept, COUNT(*) AS c FROM emp GROUP BY dept ORDER BY c DESC LIMIT $1 OFFSET 2`},
	{"sort_distinct_unbounded", `SELECT DISTINCT dept FROM emp ORDER BY dept LIMIT 3`},
	// A sort by plain columns under a projection of plain columns runs
	// below it, on the scan's rows; a computed key stays above it.
	{"sort_columns_below_project", `SELECT id, name FROM emp ORDER BY salary DESC, id LIMIT 5`},
	{"sort_computed_key", `SELECT id, name FROM emp ORDER BY salary * 2 LIMIT 5`},
	// LIMIT purity: a pure streaming pipeline early-exits; an impure
	// projection must drain for its side effects.
	{"limit_early_exit", `SELECT id FROM emp WHERE dept = 1 LIMIT 3`},
	{"limit_impure", `SELECT nextval('seq') FROM emp LIMIT 1`},
	// Views, including the declassifying kind (strip reaches the scan).
	{"view", `SELECT id, salary FROM wellpaid WHERE id < 30`},
	{"view_declassify", `SELECT id, salary FROM hr_pay WHERE salary > 100`},
	// Derived tables and subqueries.
	{"derived", `SELECT x.id FROM (SELECT id FROM emp WHERE dept = 1) x WHERE x.id > 5`},
	{"subquery_filter", `SELECT id FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)`},
	// Pseudo-columns and constant relations.
	{"label_column", `SELECT id, _label FROM emp WHERE id < 5`},
	{"values_only", `SELECT 1, 'x'`},
}

func TestExplainGolden(t *testing.T) {
	admin, canon := explainFixture(t)
	for _, tc := range explainCases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := admin.Exec("EXPLAIN " + tc.sql)
			if err != nil {
				t.Fatalf("EXPLAIN %s: %v", tc.sql, err)
			}
			var b strings.Builder
			fmt.Fprintf(&b, "-- EXPLAIN %s\n", tc.sql)
			for _, row := range res.Rows {
				b.WriteString(canon(row[0].Text()))
				b.WriteByte('\n')
			}
			got := b.String()
			path := filepath.Join("testdata", "explain", tc.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN drifted from %s:\n-- got --\n%s-- want --\n%s", path, got, want)
			}
		})
	}
}
