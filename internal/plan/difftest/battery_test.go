package difftest

import (
	"fmt"
	"strings"
	"testing"

	"ifdb/internal/types"
)

// TestStatementBattery diffs a hand-written corpus covering every
// planner shape the rule pipeline rewrites: predicate pushdown, index
// selection, projection pruning, joins (hash/index/left), views and
// declassifying views, aggregates, sorting, DISTINCT, LIMIT/OFFSET,
// subqueries, IFC pseudo-columns, and error paths. Each SELECT also
// runs through the streaming cursor in small batches.
func TestStatementBattery(t *testing.T) {
	p := newPair(t)

	p.setup("admin", `CREATE TABLE emp (
		id BIGINT PRIMARY KEY, dept BIGINT, name TEXT, salary BIGINT, boss BIGINT)`)
	p.setup("admin", `CREATE TABLE dept (id BIGINT PRIMARY KEY, dname TEXT)`)
	p.setup("admin", `CREATE INDEX emp_dept ON emp (dept)`)
	for i := int64(0); i < 40; i++ {
		p.setup("admin", `INSERT INTO emp VALUES ($1, $2, $3, $4, $5)`,
			types.NewInt(i), types.NewInt(i%5), types.NewText(name(i)),
			types.NewInt(1000+i*37%900), types.NewInt(i/7))
	}
	for i := int64(0); i < 5; i++ {
		p.setup("admin", `INSERT INTO dept VALUES ($1, $2)`,
			types.NewInt(i), types.NewText(name(100+i)))
	}

	// A labeled tenant whose rows interleave with public ones, so every
	// battery statement below exercises Label Confinement at the scan.
	p.addUser("alice", "t_alice")
	p.addUser("outsider")
	for i := int64(200); i < 210; i++ {
		p.setup("alice", `INSERT INTO emp VALUES ($1, $2, $3, $4, $5)`,
			types.NewInt(i), types.NewInt(i%5), types.NewText(name(i)),
			types.NewInt(5000), types.NewInt(0))
	}

	// Declassifying view owned by alice: strips her tag from the rows it
	// exposes, so the outsider sees her salaries through it and only it.
	p.setup("alice", `CREATE VIEW alice_pay AS
		SELECT id, salary FROM emp WHERE id >= 200 WITH DECLASSIFYING (t_alice)`)
	p.setup("admin", `CREATE VIEW wellpaid AS SELECT id, name, salary FROM emp WHERE salary > 1500`)

	battery := []struct {
		user string
		sql  string
		args []types.Value
	}{
		// Pushdown + index-selection shapes (whole-WHERE infallible).
		{"admin", `SELECT id, name FROM emp WHERE dept = 3 ORDER BY id`, nil},
		{"admin", `SELECT id FROM emp WHERE dept = 2 AND salary > 1200 ORDER BY id`, nil},
		{"admin", `SELECT id FROM emp WHERE id = 17`, nil},
		{"admin", `SELECT id FROM emp WHERE id = $1`, args(types.NewInt(23))},
		{"admin", `SELECT id FROM emp WHERE dept = $1 AND id BETWEEN $2 AND $3 ORDER BY id`,
			args(types.NewInt(1), types.NewInt(5), types.NewInt(30))},
		{"admin", `SELECT id FROM emp WHERE dept IN (1, 3) AND name IS NOT NULL ORDER BY id`, nil},
		// Fallible WHERE (arithmetic, LIKE): planner must keep the filter
		// above the scan; results still identical.
		{"admin", `SELECT id FROM emp WHERE salary / (dept + 1) > 300 ORDER BY id`, nil},
		{"admin", `SELECT id FROM emp WHERE name LIKE 'n1%' ORDER BY id`, nil},
		// Projection pruning over a wide table.
		{"admin", `SELECT name FROM emp WHERE dept = 0 ORDER BY name`, nil},
		{"admin", `SELECT e.name FROM emp e WHERE e.dept = 4 ORDER BY e.name`, nil},
		// Joins: hash/index equi-join, non-equi, LEFT, self-join, with
		// pushdown-eligible residue.
		{"admin", `SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept = d.id
			WHERE e.salary > 1700 ORDER BY e.name`, nil},
		{"admin", `SELECT e.id, b.id FROM emp e JOIN emp b ON e.boss = b.id
			WHERE e.dept = 2 ORDER BY e.id`, nil},
		{"admin", `SELECT d.dname, e.name FROM dept d LEFT JOIN emp e
			ON d.id = e.dept AND e.salary > 1800 ORDER BY d.dname, e.name`, nil},
		{"admin", `SELECT e.id, d.id FROM emp e JOIN dept d ON e.dept < d.id
			WHERE e.id < 6 ORDER BY e.id, d.id`, nil},
		// Aggregates, GROUP BY, HAVING.
		{"admin", `SELECT COUNT(*), MIN(salary), MAX(salary) FROM emp`, nil},
		{"admin", `SELECT dept, COUNT(*), AVG(salary) FROM emp GROUP BY dept ORDER BY dept`, nil},
		{"admin", `SELECT dept, SUM(salary) FROM emp GROUP BY dept
			HAVING COUNT(*) > 7 ORDER BY dept`, nil},
		// DISTINCT / ORDER BY DESC / LIMIT / OFFSET.
		{"admin", `SELECT DISTINCT dept FROM emp ORDER BY dept DESC`, nil},
		{"admin", `SELECT id FROM emp ORDER BY salary DESC, id LIMIT 5`, nil},
		{"admin", `SELECT id FROM emp ORDER BY id LIMIT 4 OFFSET 10`, nil},
		{"admin", `SELECT id FROM emp WHERE dept = 1 LIMIT 3 OFFSET 1`, nil},
		// Subqueries: IN, scalar, EXISTS, correlated.
		{"admin", `SELECT id FROM emp WHERE dept IN (SELECT id FROM dept WHERE dname LIKE 'n10%') ORDER BY id`, nil},
		{"admin", `SELECT id FROM emp WHERE salary = (SELECT MAX(salary) FROM emp) ORDER BY id`, nil},
		{"admin", `SELECT dname FROM dept d WHERE EXISTS
			(SELECT 1 FROM emp e WHERE e.dept = d.id AND e.salary > 1800) ORDER BY dname`, nil},
		// Views, including nested predicates over them.
		{"admin", `SELECT id, salary FROM wellpaid WHERE id < 30 ORDER BY id`, nil},
		{"outsider", `SELECT id, salary FROM alice_pay ORDER BY id`, nil},
		{"alice", `SELECT id, salary FROM alice_pay ORDER BY id`, nil},
		// IFC pseudo-columns and label builtins; the outsider's reads are
		// confined, alice's are not.
		{"alice", `SELECT id, _label FROM emp WHERE id >= 200 ORDER BY id`, nil},
		{"outsider", `SELECT COUNT(*) FROM emp`, nil},
		{"alice", `SELECT COUNT(*) FROM emp`, nil},
		{"alice", `SELECT id FROM emp WHERE label_size(_label) = 0 AND id < 10 ORDER BY id`, nil},
		// Expression zoo in the projection.
		{"admin", `SELECT id, salary * 2 + dept, -id, NOT (dept = 1) FROM emp
			WHERE id < 4 ORDER BY id`, nil},
		{"admin", `SELECT 1, 'x', NULL, TRUE FROM dept WHERE id = 0`, nil},
		// Error paths: unknown column, unknown table, ambiguous column,
		// bad parameter index, type mismatch — exact error text must
		// match across executors.
		{"admin", `SELECT nosuch FROM emp`, nil},
		{"admin", `SELECT id FROM nosuch`, nil},
		{"admin", `SELECT id FROM emp e JOIN emp b ON e.id = b.id WHERE id = 1`, nil},
		{"admin", `SELECT id FROM emp WHERE id = $4`, args(types.NewInt(1))},
		{"admin", `SELECT id FROM emp WHERE id = 'text' + 1`, nil},
	}

	for _, tc := range battery {
		if _, err := p.exec(tc.user, tc.sql, tc.args...); err != nil {
			continue // error already diffed; no stream run for failing statements
		}
		p.execStream(tc.user, tc.sql, 3, tc.args...)
		p.execPrepared(tc.user, tc.sql, tc.args...)
	}

	// Tuple keys keep column boundaries: these two rows are distinct,
	// though a key of kind ‖ string ‖ NUL per column renders both the
	// same (3 is the kind byte of TEXT). Both executors once agreed on
	// the wrong answer, so the row counts are asserted, not only diffed.
	p.setup("admin", `CREATE TABLE pairs (a TEXT, b TEXT)`)
	p.setup("admin", `INSERT INTO pairs VALUES ($1, $2)`, types.NewText("a\x00\x03b"), types.NewText("c"))
	p.setup("admin", `INSERT INTO pairs VALUES ($1, $2)`, types.NewText("a"), types.NewText("b\x00\x03c"))
	for _, q := range []string{
		`SELECT DISTINCT a, b FROM pairs`,
		`SELECT a, b, COUNT(*) FROM pairs GROUP BY a, b`,
		`SELECT x.a, y.b FROM pairs x JOIN pairs y ON x.a = y.a AND x.b = y.b`,
	} {
		if res, err := p.exec("admin", q); err != nil {
			t.Errorf("%s: %v", q, err)
		} else if len(res.Rows) != 2 {
			t.Errorf("%s: %d rows, want the 2 distinct rows", q, len(res.Rows))
		}
		p.execStream("admin", q, 1)
	}

	// The sort under LIMIT keeps only the rows LIMIT + OFFSET can reach,
	// and the aggregate folds rows as they arrive: both must still
	// answer as the legacy sort-everything, buffer-everything stages do.
	// Few distinct keys and NULLs in both, so nearly every comparison is
	// a tie and only arrival order decides.
	p.setup("admin", `CREATE TABLE ties (id BIGINT PRIMARY KEY, a BIGINT, b BIGINT)`)
	for i := int64(0); i < 30; i++ {
		a, b := types.NewInt(i*7%4), types.NewInt(i*5%3)
		if i%4 == 1 {
			a = types.Null
		}
		if i%5 == 2 {
			b = types.Null
		}
		p.setup("admin", `INSERT INTO ties VALUES ($1, $2, $3)`, types.NewInt(i), a, b)
	}
	p.setup("admin", `SELECT create_sequence('tieseq')`)
	for _, tc := range []struct {
		sql  string
		args []types.Value
	}{
		{`SELECT id, a FROM ties ORDER BY a LIMIT 7`, nil},
		{`SELECT id FROM ties ORDER BY a DESC, b LIMIT 9`, nil},
		{`SELECT id FROM ties ORDER BY b, a DESC LIMIT 4 OFFSET 6`, nil},
		{`SELECT id FROM ties ORDER BY a LIMIT 0`, nil},
		{`SELECT id FROM ties ORDER BY a DESC LIMIT 1000`, nil},
		{`SELECT id FROM ties ORDER BY b DESC LIMIT 3 OFFSET 29`, nil},
		{`SELECT id FROM ties ORDER BY a LIMIT $1`, args(types.NewInt(5))},
		{`SELECT id FROM ties ORDER BY a, b DESC LIMIT $1 OFFSET $2`, args(types.NewInt(5), types.NewInt(2))},
		{`SELECT id FROM ties ORDER BY a LIMIT $1`, args(types.NewInt(-1))},
		// DISTINCT between the sort and the LIMIT: the first two rows of
		// the order are both NULL, so a bounded sort would answer one row.
		{`SELECT DISTINCT a FROM ties ORDER BY a LIMIT 2`, nil},
		{`SELECT DISTINCT a, b FROM ties ORDER BY b DESC, a LIMIT 3 OFFSET 1`, nil},
		// Side effects in the select list run once per input row, kept or
		// not: the sequence hands out 30 values per statement.
		{`SELECT nextval('tieseq'), id FROM ties ORDER BY a DESC, id LIMIT 3`, nil},
		// Aggregates: sorted by an aggregate under LIMIT, NULL group
		// keys, and empty input with and without GROUP BY.
		{`SELECT a, COUNT(*) FROM ties GROUP BY a ORDER BY COUNT(*) DESC, a LIMIT 2`, nil},
		{`SELECT a, b, SUM(id) AS s FROM ties GROUP BY a, b ORDER BY s DESC LIMIT 4 OFFSET 1`, nil},
		{`SELECT b, MIN(a), MAX(a), AVG(id) FROM ties GROUP BY b`, nil},
		{`SELECT COUNT(*), SUM(b), MIN(a) FROM ties WHERE id < 0`, nil},
		{`SELECT a, COUNT(*) FROM ties WHERE id < 0 GROUP BY a`, nil},
		{`SELECT a, COUNT(*) FROM ties WHERE id < 0 GROUP BY a ORDER BY a LIMIT 1`, nil},
	} {
		if _, err := p.exec("admin", tc.sql, tc.args...); err != nil {
			continue
		}
		p.execStream("admin", tc.sql, 2, tc.args...)
		p.execPrepared("admin", tc.sql, tc.args...)
	}
	// exec + stream + prepared ran the nextval statement on each side
	// three times over 30 rows.
	if res, err := p.exec("admin", `SELECT nextval('tieseq')`); err != nil || res.Rows[0][0].Int() != 91 {
		t.Errorf("nextval under ORDER BY LIMIT: sequence now at %v (err %v), want 91", res, err)
	}

	// DDL invalidates cached plans: re-run a cached statement after an
	// index appears and after the table is dropped.
	p.exec("admin", `SELECT id FROM emp WHERE salary = 1370 ORDER BY id`)
	p.setup("admin", `CREATE INDEX emp_sal ON emp (salary)`)
	p.exec("admin", `SELECT id FROM emp WHERE salary = 1370 ORDER BY id`)
	p.setup("admin", `DROP TABLE dept`)
	p.exec("admin", `SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept = d.id`)

	// Transactions: the cursor's autocommit lifecycle vs an explicit
	// transaction spanning reads and writes.
	p.setup("admin", `BEGIN`)
	p.exec("admin", `SELECT COUNT(*) FROM emp`)
	p.exec("admin", `UPDATE emp SET salary = salary + 1 WHERE dept = 0`)
	p.exec("admin", `SELECT SUM(salary) FROM emp`)
	p.setup("admin", `COMMIT`)
	p.execStream("admin", `SELECT id, salary FROM emp WHERE dept = 0 ORDER BY id`, 2)
}

func name(i int64) string {
	return "n" + string(rune('0'+i/10%10)) + string(rune('0'+i%10))
}

func args(vs ...types.Value) []types.Value { return vs }

// TestDiskScanBufferReuse diffs the shapes that hold rows while the
// scan underneath moves on — sort, DISTINCT, hash and index join,
// GROUP BY, LIMIT/OFFSET, and the cursor's batches — over USING DISK
// tables of more than two scan batches behind a 4-page pool, so every
// page is evicted and its scratch copy overwritten many times within a
// statement. Ten tenant labels interleave in runs of 100 rows; the
// reader's label admits six of them and the public rows.
func TestDiskScanBufferReuse(t *testing.T) {
	const rows, run, tenants = 2600, 100, 10
	p := newPairPool(t, 4)
	p.setup("admin", `CREATE TABLE big (k BIGINT PRIMARY KEY, grp BIGINT, v BIGINT, pad TEXT) USING DISK`)
	p.setup("admin", `CREATE TABLE dim (id BIGINT, dname TEXT) USING DISK`)
	p.setup("admin", `CREATE TABLE dimk (id BIGINT PRIMARY KEY, dname TEXT) USING DISK`)
	for i := int64(0); i < 13; i++ {
		p.setup("admin", `INSERT INTO dim VALUES ($1, $2)`, types.NewInt(i), types.NewText(name(i)))
		p.setup("admin", `INSERT INTO dimk VALUES ($1, $2)`, types.NewInt(i), types.NewText(name(i)))
	}
	writers := []string{"admin"}
	var readerTags []string
	for i := 0; i < tenants; i++ {
		u, tag := fmt.Sprintf("w%d", i), fmt.Sprintf("t_%d", i)
		p.addUser(u, tag)
		writers = append(writers, u)
		if i < 6 {
			readerTags = append(readerTags, tag)
		}
	}
	p.addUser("reader", readerTags...)
	p.addUser("outsider")
	for lo := 0; lo < rows; lo += run {
		var b strings.Builder
		b.WriteString(`INSERT INTO big VALUES `)
		for k := lo; k < lo+run; k++ {
			if k > lo {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "(%d,%d,%d,'%s')", k, k%13, k*7919%1000, name(int64(k%40)))
		}
		p.setup(writers[lo/run%len(writers)], b.String())
	}

	for _, q := range []string{
		`SELECT k, grp, v, pad FROM big`,
		`SELECT pad, k FROM big`,
		`SELECT k, pad, _label FROM big WHERE grp = 3`,
		`SELECT k, pad FROM big ORDER BY v DESC, k`,
		`SELECT DISTINCT grp, pad FROM big`,
		`SELECT b.k, d.dname FROM big b JOIN dim d ON b.grp = d.id WHERE b.v > 500 ORDER BY b.k`,
		`SELECT b.k, d.dname FROM big b JOIN dimk d ON b.grp = d.id WHERE b.v < 300 ORDER BY b.k`,
		`SELECT d.dname, b.k FROM dim d LEFT JOIN big b ON d.id = b.grp AND b.v = 7 ORDER BY d.dname, b.k`,
		`SELECT grp, COUNT(*), SUM(v), MIN(pad), MAX(pad) FROM big GROUP BY grp ORDER BY grp`,
		`SELECT k, pad FROM big ORDER BY k LIMIT 50 OFFSET 1200`,
		`SELECT k, pad FROM big LIMIT 30 OFFSET 1100`,
		`SELECT COUNT(*) FROM big`,
	} {
		for _, user := range []string{"reader", "outsider", "w7"} {
			p.exec(user, q)
			p.execPrepared(user, q)
			p.execStream(user, q, 100)
			p.execStream(user, q, 1000)
		}
	}
	if res, _ := p.exec("reader", `SELECT COUNT(*) FROM big`); res.Rows[0][0].Int() != 1800 {
		t.Fatalf("reader sees %v rows, want the 1800 its label admits", res.Rows[0][0])
	}
}
