package suite

import (
	"fmt"
	"math/rand"

	"ifdb/internal/sim"
	"ifdb/internal/types"
)

// need is a capability a case asks of the backend that runs it. A
// backend declares the ones it lacks; the runner skips — and prints —
// exactly the cases that need one of them.
type need uint8

const (
	// oneNode: the answer is only defined where every table lives on
	// one node — joins, subqueries and views (a shard sees its own
	// rows), functions the gateway cannot evaluate (with an ORDER BY,
	// LIMIT, OFFSET, DISTINCT or aggregate the Router refuses such a
	// read with distplan.ErrUnmergeable; without one it concatenates
	// the shards' streams), and results decided by one heap's arrival
	// order (LIMIT without ORDER BY, ties under a LIMIT).
	oneNode need = 1 << iota
	// txnBlock: explicit transaction control, and reads of what such a
	// block wrote.
	txnBlock
	// sequences: a SELECT that changes database state.
	sequences
	// labelValue: a label as a column value (the _label pseudo-column).
	labelValue
)

var needNames = []string{"oneNode", "txnBlock", "sequences", "labelValue"}

func (n need) String() string {
	s := ""
	for i, name := range needNames {
		if n&(1<<i) != 0 {
			if s != "" {
				s += "+"
			}
			s += name
		}
	}
	return s
}

// user is a principal and the secrecy label its sessions carry. The
// first user to name a tag creates (and so owns) it.
type user struct {
	name string
	tags []string
}

// tcase is one statement of the suite: who runs it, the text, the
// arguments, and how its outcome is compared.
type tcase struct {
	user string
	sql  string
	args []types.Value

	// setup statements build state: they must succeed on every backend
	// and their outcome is not recorded.
	setup bool
	// prepared asks a backend that can to run the case through a
	// prepared handle.
	prepared bool
	// unordered: the statement fixes no row order, rows compare as a
	// multiset.
	unordered bool
	// repLabels: a DISTINCT (or tie under LIMIT) picks one of several
	// rows that show the same values under different labels, and which
	// one is consumption order's choice; values compare, labels do not.
	repLabels bool
	needs     need
}

// scenario is a database — users, the column each table is sharded by
// when the backend shards, and an ordered list of cases that build it
// up and query it.
type scenario struct {
	name     string
	users    []user
	shardKey map[string]string
	cases    []tcase
}

func (sc *scenario) add(u, q string, args ...types.Value) *tcase {
	sc.cases = append(sc.cases, tcase{user: u, sql: q, args: args})
	return &sc.cases[len(sc.cases)-1]
}

func (sc *scenario) setup(u, q string, args ...types.Value) *tcase {
	c := sc.add(u, q, args...)
	c.setup = true
	return c
}

func (c *tcase) on(n need) *tcase  { c.needs |= n; return c }
func (c *tcase) anyOrder() *tcase  { c.unordered = true; return c }
func (c *tcase) anyLabels() *tcase { c.repLabels = true; return c }
func (c *tcase) viaHandle() *tcase { c.prepared = true; return c }

func ints(ns ...int64) []types.Value {
	out := make([]types.Value, len(ns))
	for i, n := range ns {
		out[i] = types.NewInt(n)
	}
	return out
}

func name(i int64) string {
	return "n" + string(rune('0'+i/10%10)) + string(rune('0'+i%10))
}

// scenarios is the case list: the hand-written scenarios, then the two
// seeded ones once per seed.
func scenarios(seeds []int64) []scenario {
	out := []scenario{battery(), big(), probes(), fixes(), dml()}
	for _, seed := range seeds {
		out = append(out, simMix(seed), scatter(seed))
	}
	return out
}

// battery covers every shape the planner's rules rewrite: predicate
// pushdown, index selection, a sort below a projection, joins (hash,
// index, left), views and declassifying views, aggregates, sorting, DISTINCT,
// LIMIT/OFFSET, subqueries, IFC pseudo-columns, error paths, tuple-key
// boundaries, bounded sorts over ties, plan-cache invalidation by DDL
// and explicit transactions.
func battery() scenario {
	sc := scenario{
		name:     "battery",
		users:    []user{{name: "admin"}, {name: "alice", tags: []string{"t_alice"}}, {name: "outsider"}},
		shardKey: map[string]string{"emp": "id", "dept": "id", "pairs": "k", "ties": "id"},
	}
	sc.setup("admin", `CREATE TABLE emp (
		id BIGINT PRIMARY KEY, dept BIGINT, name TEXT, salary BIGINT, boss BIGINT)`)
	sc.setup("admin", `CREATE TABLE dept (id BIGINT PRIMARY KEY, dname TEXT)`)
	sc.setup("admin", `CREATE INDEX emp_dept ON emp (dept)`)
	for i := int64(0); i < 40; i++ {
		sc.setup("admin", `INSERT INTO emp VALUES ($1, $2, $3, $4, $5)`,
			types.NewInt(i), types.NewInt(i%5), types.NewText(name(i)),
			types.NewInt(1000+i*37%900), types.NewInt(i/7))
	}
	for i := int64(0); i < 5; i++ {
		sc.setup("admin", `INSERT INTO dept VALUES ($1, $2)`, types.NewInt(i), types.NewText(name(100+i)))
	}
	// A labeled tenant whose rows interleave with public ones, so every
	// statement below exercises Label Confinement at the scan.
	for i := int64(200); i < 210; i++ {
		sc.setup("alice", `INSERT INTO emp VALUES ($1, $2, $3, $4, $5)`,
			types.NewInt(i), types.NewInt(i%5), types.NewText(name(i)),
			types.NewInt(5000), types.NewInt(0))
	}
	// Declassifying view owned by alice: strips her tag from the rows it
	// exposes, so the outsider sees her salaries through it and only it.
	sc.setup("alice", `CREATE VIEW alice_pay AS
		SELECT id, salary FROM emp WHERE id >= 200 WITH DECLASSIFYING (t_alice)`)
	sc.setup("admin", `CREATE VIEW wellpaid AS SELECT id, name, salary FROM emp WHERE salary > 1500`)

	// Pushdown + index-selection shapes (whole-WHERE infallible).
	sc.add("admin", `SELECT id, name FROM emp WHERE dept = 3 ORDER BY id`)
	sc.add("admin", `SELECT id FROM emp WHERE dept = 2 AND salary > 1200 ORDER BY id`)
	sc.add("admin", `SELECT id FROM emp WHERE id = 17`)
	sc.add("admin", `SELECT id FROM emp WHERE id = $1`, ints(23)...)
	sc.add("admin", `SELECT id FROM emp WHERE dept = $1 AND id BETWEEN $2 AND $3 ORDER BY id`, ints(1, 5, 30)...)
	sc.add("admin", `SELECT id FROM emp WHERE dept IN (1, 3) AND name IS NOT NULL ORDER BY id`)
	// Fallible WHERE (arithmetic, LIKE): the filter stays above the scan.
	sc.add("admin", `SELECT id FROM emp WHERE salary / (dept + 1) > 300 ORDER BY id`)
	sc.add("admin", `SELECT id FROM emp WHERE name LIKE 'n1%' ORDER BY id`)
	// A narrow projection over a wide table, sorted below it.
	sc.add("admin", `SELECT name FROM emp WHERE dept = 0 ORDER BY name`)
	sc.add("admin", `SELECT e.name FROM emp e WHERE e.dept = 4 ORDER BY e.name`)
	// Joins: hash/index equi-join, non-equi, LEFT, self-join, with
	// pushdown-eligible residue.
	sc.add("admin", `SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept = d.id
		WHERE e.salary > 1700 ORDER BY e.name`).on(oneNode)
	sc.add("admin", `SELECT e.id, b.id FROM emp e JOIN emp b ON e.boss = b.id
		WHERE e.dept = 2 ORDER BY e.id`).on(oneNode)
	sc.add("admin", `SELECT d.dname, e.name FROM dept d LEFT JOIN emp e
		ON d.id = e.dept AND e.salary > 1800 ORDER BY d.dname, e.name`).on(oneNode)
	sc.add("admin", `SELECT e.id, d.id FROM emp e JOIN dept d ON e.dept < d.id
		WHERE e.id < 6 ORDER BY e.id, d.id`).on(oneNode)
	// Aggregates, GROUP BY, HAVING.
	sc.add("admin", `SELECT COUNT(*), MIN(salary), MAX(salary) FROM emp`)
	sc.add("admin", `SELECT dept, COUNT(*), AVG(salary) FROM emp GROUP BY dept ORDER BY dept`)
	sc.add("admin", `SELECT dept, SUM(salary) FROM emp GROUP BY dept
		HAVING COUNT(*) > 7 ORDER BY dept`)
	// DISTINCT / ORDER BY DESC / LIMIT / OFFSET.
	sc.add("admin", `SELECT DISTINCT dept FROM emp ORDER BY dept DESC`)
	sc.add("admin", `SELECT id FROM emp ORDER BY salary DESC, id LIMIT 5`)
	sc.add("admin", `SELECT id FROM emp ORDER BY id LIMIT 4 OFFSET 10`)
	sc.add("admin", `SELECT id FROM emp WHERE dept = 1 LIMIT 3 OFFSET 1`).on(oneNode)
	// Subqueries: IN, scalar, EXISTS, correlated.
	sc.add("admin", `SELECT id FROM emp WHERE dept IN (SELECT id FROM dept WHERE dname LIKE 'n10%') ORDER BY id`).on(oneNode)
	sc.add("admin", `SELECT id FROM emp WHERE salary = (SELECT MAX(salary) FROM emp) ORDER BY id`).on(oneNode)
	sc.add("admin", `SELECT dname FROM dept d WHERE EXISTS
		(SELECT 1 FROM emp e WHERE e.dept = d.id AND e.salary > 1800) ORDER BY dname`).on(oneNode)
	// Views, including nested predicates over them.
	sc.add("admin", `SELECT id, salary FROM wellpaid WHERE id < 30 ORDER BY id`).on(oneNode)
	sc.add("outsider", `SELECT id, salary FROM alice_pay ORDER BY id`).on(oneNode)
	sc.add("alice", `SELECT id, salary FROM alice_pay ORDER BY id`).on(oneNode)
	// IFC pseudo-columns and label builtins; the outsider's reads are
	// confined, alice's are not.
	sc.add("alice", `SELECT id, _label FROM emp WHERE id >= 200 ORDER BY id`).on(labelValue)
	sc.add("outsider", `SELECT COUNT(*) FROM emp`)
	sc.add("alice", `SELECT COUNT(*) FROM emp`)
	sc.add("alice", `SELECT id FROM emp WHERE label_size(_label) = 0 AND id < 10 ORDER BY id`).on(oneNode)
	// Expression zoo in the projection.
	sc.add("admin", `SELECT id, salary * 2 + dept, -id, NOT (dept = 1) FROM emp
		WHERE id < 4 ORDER BY id`)
	sc.add("admin", `SELECT 1, 'x', NULL, TRUE FROM dept WHERE id = 0`)
	// Error paths: unknown column, unknown table, ambiguous column, bad
	// parameter index, type mismatch — exact error text.
	sc.add("admin", `SELECT nosuch FROM emp`)
	sc.add("admin", `SELECT id FROM nosuch`)
	sc.add("admin", `SELECT id FROM emp e JOIN emp b ON e.id = b.id WHERE id = 1`).on(oneNode)
	sc.add("admin", `SELECT id FROM emp WHERE id = $4`, ints(1)...)
	sc.add("admin", `SELECT id FROM emp WHERE id = 'text' + 1`)

	// Tuple keys keep column boundaries: these two rows are distinct,
	// though a key of kind ‖ string ‖ NUL per column renders both the
	// same (3 is the kind byte of TEXT). Keys 0 and 1 hash to different
	// shards of three (TestPairsStraddleShards), so on the Router only
	// the gateway's DISTINCT and GROUP BY can tell the rows apart.
	sc.setup("admin", `CREATE TABLE pairs (k BIGINT PRIMARY KEY, a TEXT, b TEXT)`)
	sc.setup("admin", `INSERT INTO pairs VALUES ($1, $2, $3)`, types.NewInt(pairKeys[0]), types.NewText("a\x00\x03b"), types.NewText("c"))
	sc.setup("admin", `INSERT INTO pairs VALUES ($1, $2, $3)`, types.NewInt(pairKeys[1]), types.NewText("a"), types.NewText("b\x00\x03c"))
	sc.add("admin", `SELECT DISTINCT a, b FROM pairs`).anyOrder()
	sc.add("admin", `SELECT a, b, COUNT(*) FROM pairs GROUP BY a, b`).anyOrder()
	sc.add("admin", `SELECT x.a, y.b FROM pairs x JOIN pairs y ON x.a = y.a AND x.b = y.b`).anyOrder().on(oneNode)

	// The sort under LIMIT keeps only the rows LIMIT + OFFSET can reach,
	// and the aggregate folds rows as they arrive. Few distinct keys and
	// NULLs in both, so nearly every comparison is a tie and only
	// arrival order decides — which is one heap's to give.
	sc.setup("admin", `CREATE TABLE ties (id BIGINT PRIMARY KEY, a BIGINT, b BIGINT)`)
	for i := int64(0); i < 30; i++ {
		a, b := types.NewInt(i*7%4), types.NewInt(i*5%3)
		if i%4 == 1 {
			a = types.Null
		}
		if i%5 == 2 {
			b = types.Null
		}
		sc.setup("admin", `INSERT INTO ties VALUES ($1, $2, $3)`, types.NewInt(i), a, b)
	}
	sc.setup("admin", `SELECT create_sequence('tieseq')`).on(sequences)
	sc.add("admin", `SELECT id, a FROM ties ORDER BY a LIMIT 7`).on(oneNode)
	sc.add("admin", `SELECT id FROM ties ORDER BY a DESC, b LIMIT 9`).on(oneNode)
	sc.add("admin", `SELECT id FROM ties ORDER BY b, a DESC LIMIT 4 OFFSET 6`).on(oneNode)
	sc.add("admin", `SELECT id FROM ties ORDER BY a LIMIT 0`)
	sc.add("admin", `SELECT id FROM ties ORDER BY a DESC LIMIT 1000`).on(oneNode)
	sc.add("admin", `SELECT id FROM ties ORDER BY b DESC LIMIT 3 OFFSET 29`).on(oneNode)
	sc.add("admin", `SELECT id FROM ties ORDER BY a LIMIT $1`, ints(5)...).on(oneNode)
	sc.add("admin", `SELECT id FROM ties ORDER BY a, b DESC LIMIT $1 OFFSET $2`, ints(5, 2)...).on(oneNode)
	sc.add("admin", `SELECT id FROM ties ORDER BY a LIMIT $1`, ints(-1)...)
	// DISTINCT between the sort and the LIMIT: the first two rows of
	// the order are both NULL, so a bounded sort would answer one row.
	sc.add("admin", `SELECT DISTINCT a FROM ties ORDER BY a LIMIT 2`)
	sc.add("admin", `SELECT DISTINCT a, b FROM ties ORDER BY b DESC, a LIMIT 3 OFFSET 1`)
	// Side effects in the select list run once per input row, kept or
	// not: the sequence hands out 30 values, so the next is 31.
	sc.add("admin", `SELECT nextval('tieseq'), id FROM ties ORDER BY a DESC, id LIMIT 3`).on(sequences)
	sc.add("admin", `SELECT nextval('tieseq')`).on(sequences)
	// Aggregates: sorted by an aggregate under LIMIT, NULL group keys,
	// and empty input with and without GROUP BY.
	sc.add("admin", `SELECT a, COUNT(*) FROM ties GROUP BY a ORDER BY COUNT(*) DESC, a LIMIT 2`)
	sc.add("admin", `SELECT a, b, SUM(id) AS s FROM ties GROUP BY a, b ORDER BY s DESC LIMIT 4 OFFSET 1`).on(oneNode)
	sc.add("admin", `SELECT b, MIN(a), MAX(a), AVG(id) FROM ties GROUP BY b`).anyOrder()
	sc.add("admin", `SELECT COUNT(*), SUM(b), MIN(a) FROM ties WHERE id < 0`)
	sc.add("admin", `SELECT a, COUNT(*) FROM ties WHERE id < 0 GROUP BY a`)
	sc.add("admin", `SELECT a, COUNT(*) FROM ties WHERE id < 0 GROUP BY a ORDER BY a LIMIT 1`)

	// DDL invalidates cached plans: the same statement before and after
	// an index appears, and a join after one of its tables is dropped.
	sc.add("admin", `SELECT id FROM emp WHERE salary = 1370 ORDER BY id`)
	sc.setup("admin", `CREATE INDEX emp_sal ON emp (salary)`)
	sc.add("admin", `SELECT id FROM emp WHERE salary = 1370 ORDER BY id`)
	sc.setup("admin", `DROP TABLE dept`)
	sc.add("admin", `SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept = d.id`).on(oneNode)

	// An explicit transaction spanning reads and writes, then a read of
	// what it committed.
	sc.add("admin", `BEGIN`).on(txnBlock)
	sc.add("admin", `SELECT COUNT(*) FROM emp`).on(txnBlock)
	sc.add("admin", `UPDATE emp SET salary = salary + 1 WHERE dept = 0`).on(txnBlock)
	sc.add("admin", `SELECT SUM(salary) FROM emp`).on(txnBlock)
	sc.add("admin", `COMMIT`).on(txnBlock)
	sc.add("admin", `SELECT id, salary FROM emp WHERE dept = 0 ORDER BY id`).on(txnBlock)
	return sc
}

// pairKeys are the primary keys of battery's two pairs rows.
var pairKeys = [2]int64{0, 1}

// big holds rows while the scan underneath moves on — sort, DISTINCT,
// hash and index join, GROUP BY, LIMIT/OFFSET, and a cursor's batches —
// over a table of more than two scan batches: on USING DISK behind the
// suite's 4-page pool every page is evicted and its scratch copy
// overwritten many times within a statement. Ten tenant labels
// interleave in runs of 100 rows; the reader's label admits six of
// them and the public rows (1800 of the 2600).
func big() scenario {
	const rows, run, tenants = 2600, 100, 10
	sc := scenario{
		name:     "big",
		users:    []user{{name: "admin"}},
		shardKey: map[string]string{"big": "k", "dim": "id", "dimk": "id"},
	}
	writers := []string{"admin"}
	reader := user{name: "reader"}
	for i := 0; i < tenants; i++ {
		u := user{name: fmt.Sprintf("w%d", i), tags: []string{fmt.Sprintf("t_%d", i)}}
		sc.users = append(sc.users, u)
		writers = append(writers, u.name)
		if i < 6 {
			reader.tags = append(reader.tags, u.tags[0])
		}
	}
	sc.users = append(sc.users, reader, user{name: "outsider"})

	sc.setup("admin", `CREATE TABLE big (k BIGINT PRIMARY KEY, grp BIGINT, v BIGINT, pad TEXT)`)
	sc.setup("admin", `CREATE TABLE dim (id BIGINT, dname TEXT)`)
	sc.setup("admin", `CREATE TABLE dimk (id BIGINT PRIMARY KEY, dname TEXT)`)
	for i := int64(0); i < 13; i++ {
		sc.setup("admin", `INSERT INTO dim VALUES ($1, $2)`, types.NewInt(i), types.NewText(name(i)))
		sc.setup("admin", `INSERT INTO dimk VALUES ($1, $2)`, types.NewInt(i), types.NewText(name(i)))
	}
	for k := int64(0); k < rows; k++ {
		sc.setup(writers[int(k)/run%len(writers)], `INSERT INTO big VALUES ($1, $2, $3, $4)`,
			types.NewInt(k), types.NewInt(k%13), types.NewInt(k*7919%1000), types.NewText(name(k%40))).viaHandle()
	}
	for _, u := range []string{"reader", "outsider", "w7"} {
		sc.add(u, `SELECT k, grp, v, pad FROM big`).anyOrder()
		sc.add(u, `SELECT pad, k FROM big`).anyOrder()
		sc.add(u, `SELECT k, pad, _label FROM big WHERE grp = 3`).anyOrder().on(labelValue)
		sc.add(u, `SELECT k, pad FROM big ORDER BY v DESC, k`)
		sc.add(u, `SELECT DISTINCT grp, pad FROM big`).anyOrder().anyLabels()
		sc.add(u, `SELECT b.k, d.dname FROM big b JOIN dim d ON b.grp = d.id WHERE b.v > 500 ORDER BY b.k`).on(oneNode)
		sc.add(u, `SELECT b.k, d.dname FROM big b JOIN dimk d ON b.grp = d.id WHERE b.v < 300 ORDER BY b.k`).on(oneNode)
		sc.add(u, `SELECT d.dname, b.k FROM dim d LEFT JOIN big b ON d.id = b.grp AND b.v = 7 ORDER BY d.dname, b.k`).on(oneNode)
		sc.add(u, `SELECT grp, COUNT(*), SUM(v), MIN(pad), MAX(pad) FROM big GROUP BY grp ORDER BY grp`)
		sc.add(u, `SELECT k, pad FROM big ORDER BY k LIMIT 50 OFFSET 1200`)
		sc.add(u, `SELECT k, pad FROM big LIMIT 30 OFFSET 1100`).on(oneNode)
		sc.add(u, `SELECT COUNT(*) FROM big`)
	}
	return sc
}

// probeSentinel is the secret an unprivileged session must never read.
const probeSentinel = "SENTINEL-SECRET"

// probeSetup builds the table FuzzNoLabelBypass probes: one row under
// alice's tag holding the sentinel, three public rows, one with a NULL.
func probeSetup(sc *scenario) {
	sc.setup("admin", `CREATE TABLE s (k BIGINT PRIMARY KEY, v TEXT, n BIGINT)`)
	sc.setup("admin", `CREATE INDEX s_n ON s (n)`)
	sc.setup("alice", `INSERT INTO s VALUES (1, $1, 7)`, types.NewText(probeSentinel))
	sc.setup("admin", `INSERT INTO s VALUES (2, 'pub2', 7)`)
	sc.setup("admin", `INSERT INTO s VALUES (3, 'pub3', 9)`)
	sc.setup("admin", `INSERT INTO s VALUES (4, NULL, 7)`)
}

// probeClauses seed FuzzNoLabelBypass; probes runs the same clauses as
// suite cases, so every backend answers them too.
var probeClauses = []string{
	`v = 'SENTINEL-SECRET'`,
	`k = 1`,
	`n = 7 AND v IS NOT NULL`,
	`k BETWEEN 0 AND 5`,
	`v LIKE 'SENT%'`,
	`1 = 1 OR v = 'SENTINEL-SECRET'`,
	`label_size(_label) >= 0`,
	`n = 7 AND k IN (SELECT k FROM s)`,
}

func probes() scenario {
	sc := scenario{
		name:     "probes",
		users:    []user{{name: "admin"}, {name: "alice", tags: []string{"t_alice"}}, {name: "probe"}},
		shardKey: map[string]string{"s": "k"},
	}
	probeSetup(&sc)
	for i, cl := range probeClauses {
		c := sc.add("probe", `SELECT k, v FROM s WHERE `+cl).anyOrder()
		if i == len(probeClauses)-1 {
			c.on(oneNode)
		}
	}
	return sc
}

// fixes holds the statements whose recorded answer is not the one the
// parent of the suite gave: positional ORDER BY / GROUP BY, and
// three-valued IN (subquery).
func fixes() scenario {
	sc := scenario{
		name:     "fixes",
		users:    []user{{name: "admin"}},
		shardKey: map[string]string{"a": "k", "nn": "id", "wn": "id"},
	}
	sc.setup("admin", `CREATE TABLE a (k BIGINT PRIMARY KEY, v BIGINT)`)
	for _, kv := range [][2]int64{{1, 10}, {2, 30}, {3, 20}, {4, 30}} {
		sc.setup("admin", `INSERT INTO a VALUES ($1, $2)`, ints(kv[0], kv[1])...)
	}
	sc.setup("admin", `INSERT INTO a VALUES (5, NULL)`)
	// nn holds no NULL, wn holds one.
	sc.setup("admin", `CREATE TABLE nn (id BIGINT PRIMARY KEY, v BIGINT)`)
	sc.setup("admin", `CREATE TABLE wn (id BIGINT PRIMARY KEY, v BIGINT)`)
	sc.setup("admin", `INSERT INTO nn VALUES (1, 10)`)
	sc.setup("admin", `INSERT INTO wn VALUES (1, 10)`)
	sc.setup("admin", `INSERT INTO wn VALUES (2, NULL)`)

	// A position names the n-th select item.
	sc.add("admin", `SELECT k, v FROM a ORDER BY 2 DESC, 1`)
	sc.add("admin", `SELECT v, count(*) FROM a GROUP BY 1`).anyOrder()
	sc.add("admin", `SELECT v, count(*) AS c FROM a GROUP BY 1 ORDER BY 2 DESC, 1 LIMIT 2`)
	sc.add("admin", `SELECT * FROM a ORDER BY 2, 1 DESC`).on(oneNode)
	sc.add("admin", `SELECT k FROM a ORDER BY 2`)
	sc.add("admin", `SELECT k FROM a ORDER BY 0`)
	sc.add("admin", `SELECT k, count(*) FROM a GROUP BY 3`)
	// v NOT IN (set): true only when the set holds neither v nor a NULL.
	sc.add("admin", `SELECT k FROM a WHERE v NOT IN (SELECT v FROM nn) ORDER BY k`).on(oneNode)
	sc.add("admin", `SELECT k FROM a WHERE v NOT IN (SELECT v FROM wn) ORDER BY k`).on(oneNode)
	sc.add("admin", `SELECT k FROM a WHERE v IN (SELECT v FROM wn) ORDER BY k`).on(oneNode)
	sc.add("admin", `SELECT k, v NOT IN (SELECT v FROM nn), v NOT IN (SELECT v FROM wn), v IN (SELECT v FROM wn) FROM a ORDER BY k`).on(oneNode)
	sc.add("admin", `SELECT k, v NOT IN (10, NULL), v IN (10, NULL) FROM a ORDER BY k`)
	// Against the empty set even a NULL operand has a definite answer.
	sc.add("admin", `SELECT k, v IN (SELECT v FROM nn WHERE v < 0), v NOT IN (SELECT v FROM nn WHERE v < 0) FROM a ORDER BY k`).on(oneNode)
	return sc
}

// dml is UPDATE and DELETE target selection: which rows a WHERE picks
// for a write — by index, by index prefix plus residual, by a
// contradiction, past a predicate that would fail on a row the session
// cannot see, by label, by subquery on the table being written — and
// what the write half then does with them (Write Rule, cascade, two
// writes of one key in a transaction). Recorded at the last commit
// whose engine selected DML targets with a scan of its own.
//
// Two tables hold the same rows: acct takes only statements that name
// their row's key, which a Router can place; led takes the rest.
func dml() scenario {
	sc := scenario{
		name:     "dml",
		users:    []user{{name: "admin"}, {name: "alice", tags: []string{"t_alice"}}},
		shardKey: map[string]string{"acct": "id", "led": "id", "hollow": "k", "ord": "id", "line": "ord", "inv": "ord"},
	}
	for _, tbl := range []string{"acct", "led"} {
		sc.setup("admin", `CREATE TABLE `+tbl+` (id BIGINT PRIMARY KEY, grp BIGINT, v BIGINT, note TEXT)`)
		sc.setup("admin", `CREATE INDEX `+tbl+`_gv ON `+tbl+` (grp, v)`)
		for i := int64(1); i <= 12; i++ {
			sc.setup("admin", `INSERT INTO `+tbl+` VALUES ($1, $2, $3, NULL)`, ints(i, i%3, i*10)...)
		}
		// alice's rows sit above admin's label; 101 is the table's only
		// v = 0.
		for i := int64(101); i <= 104; i++ {
			sc.setup("alice", `INSERT INTO `+tbl+` VALUES ($1, $2, $3, NULL)`, ints(i, i%3, (i-101)*10)...)
		}
	}
	acct := func(u string) { sc.add(u, `SELECT id, grp, v, note FROM acct ORDER BY id`) }
	led := func(u string) { sc.add(u, `SELECT id, grp, v, note FROM led ORDER BY id`).on(oneNode) }

	// Indexed equality: literal, parameter, prepared handle, no match.
	sc.add("admin", `UPDATE acct SET v = v + 1 WHERE id = 3`)
	sc.add("admin", `UPDATE acct SET note = $2 WHERE id = $1`, types.NewInt(4), types.NewText("four"))
	sc.add("admin", `UPDATE acct SET note = $2 WHERE id = $1`, types.NewInt(5), types.NewText("five")).viaHandle()
	sc.add("admin", `UPDATE acct SET note = $2 WHERE id = $1`, types.NewInt(6), types.NewText("six")).viaHandle()
	sc.add("admin", `UPDATE acct SET note = 'none' WHERE id = 99`)
	sc.add("admin", `DELETE FROM acct WHERE id = 12`)
	sc.add("admin", `DELETE FROM acct WHERE id = 12`)
	// A write moves its row in a secondary index; the next finds it there.
	sc.add("admin", `UPDATE acct SET grp = 7 WHERE id = 9`)
	sc.add("admin", `SELECT id FROM acct WHERE grp = 7`)
	sc.add("admin", `UPDATE acct SET note = 'seven' WHERE grp = 7 AND id = 9`)
	sc.add("admin", `UPDATE acct SET note = 'g2v80' WHERE grp = 2 AND v = 80 AND note IS NULL AND id = 8`)
	// A contradiction binds the same column twice.
	sc.add("admin", `UPDATE acct SET note = 'both' WHERE id = 1 AND id = 2`)
	sc.add("admin", `DELETE FROM acct WHERE id = 1 AND id = 2`)
	// A predicate that fails on v = 0: the only such row is alice's, so
	// admin's statement never evaluates it; alice's does.
	sc.add("admin", `UPDATE acct SET note = 'div101' WHERE id = 101 AND 100 / v > 5`)
	sc.add("admin", `DELETE FROM acct WHERE id = 101 AND 100 / v > 5`)
	sc.add("alice", `UPDATE acct SET note = 'div101' WHERE id = 101 AND 100 / v > 5`)
	sc.add("alice", `DELETE FROM acct WHERE 100 / v > 5 AND id = 101`)
	// The label in the WHERE.
	sc.add("alice", `UPDATE acct SET note = 'mine102' WHERE id = 102 AND label_size(_label) = 1`)
	sc.add("alice", `UPDATE acct SET note = 'public?' WHERE id = 102 AND label_size(_label) = 0`)
	sc.add("alice", `DELETE FROM acct WHERE _label = getlabel() AND id = 104`)
	sc.add("admin", `DELETE FROM acct WHERE _label = getlabel() AND id = 103`)
	// The Write Rule: alice sees admin's rows and may not write them.
	sc.add("alice", `UPDATE acct SET note = 'w' WHERE id = 3`)
	sc.add("alice", `DELETE FROM acct WHERE id = 3`)
	sc.add("alice", `UPDATE acct SET note = 'w' WHERE id = 103`)
	// Statement shape errors.
	sc.add("admin", `UPDATE acct SET nosuch = 0 WHERE id = 1`)
	sc.add("admin", `UPDATE acct SET v = 0 WHERE nosuch = 1 AND id = 1`)
	sc.add("admin", `DELETE FROM acct WHERE nosuch = 1 AND id = 1`)
	sc.add("admin", `UPDATE acct SET v = 'text' WHERE id = 1`)
	acct("admin")
	acct("alice")
	// Two writes of one key in one transaction: the second sees the first.
	sc.add("admin", `BEGIN`).on(txnBlock)
	sc.add("admin", `UPDATE acct SET v = v + 1 WHERE id = 5`).on(txnBlock)
	sc.add("admin", `UPDATE acct SET v = v * 2 WHERE id = 5`).on(txnBlock)
	sc.add("admin", `SELECT v FROM acct WHERE id = 5`).on(txnBlock)
	sc.add("admin", `DELETE FROM acct WHERE id = 6`).on(txnBlock)
	sc.add("admin", `UPDATE acct SET v = 0 WHERE id = 6`).on(txnBlock)
	sc.add("admin", `COMMIT`).on(txnBlock)
	sc.add("admin", `SELECT id, v FROM acct WHERE id = 5 OR id = 6 ORDER BY id`).on(txnBlock)
	// A missing parameter fails though the table holds no row to test,
	// where the parameter is one the scan is opened with.
	sc.setup("admin", `CREATE TABLE hollow (k BIGINT PRIMARY KEY, v BIGINT)`)
	sc.add("admin", `UPDATE hollow SET v = 1 WHERE k = $1 AND v = $2`, ints(1)...)
	sc.add("admin", `DELETE FROM hollow WHERE k = $1 AND v = $2`, ints(1)...)
	sc.add("admin", `UPDATE hollow SET v = 1 WHERE k = $1 AND v > $2`, ints(1)...)
	// ON DELETE CASCADE, and a reference that refuses the delete.
	sc.setup("admin", `CREATE TABLE ord (id BIGINT PRIMARY KEY, c BIGINT)`)
	sc.setup("admin", `CREATE TABLE line (
		id BIGINT PRIMARY KEY, ord BIGINT, q BIGINT,
		FOREIGN KEY (ord) REFERENCES ord (id) ON DELETE CASCADE)`)
	sc.setup("admin", `CREATE TABLE inv (
		id BIGINT PRIMARY KEY, ord BIGINT,
		FOREIGN KEY (ord) REFERENCES ord (id))`)
	for i := int64(1); i <= 4; i++ {
		sc.setup("admin", `INSERT INTO ord (id, c) VALUES ($1, $2)`, ints(i, i%2)...)
		for j := int64(0); j < i; j++ {
			sc.setup("admin", `INSERT INTO line (id, ord, q) VALUES ($1, $2, $3)`, ints(i*10+j, i, j)...)
		}
	}
	sc.setup("admin", `INSERT INTO inv (id, ord) VALUES (4, 4)`)
	sc.add("admin", `DELETE FROM ord WHERE id = 3`)
	sc.add("admin", `DELETE FROM ord WHERE id = 4`)
	sc.add("admin", `SELECT id, c FROM ord ORDER BY id`)
	sc.add("admin", `SELECT id, ord, q FROM line ORDER BY id`)
	sc.add("admin", `DELETE FROM ord WHERE c = 1`).on(oneNode)
	sc.add("admin", `SELECT id, ord, q FROM line ORDER BY id`).on(oneNode)

	// A composite index bound by its prefix, the rest a residual; then
	// bound whole. The first statement's new versions land in the index
	// range it is reading.
	sc.add("admin", `UPDATE led SET v = v + 1 WHERE grp = 1`).on(oneNode)
	sc.add("admin", `UPDATE led SET note = 'g1' WHERE grp = 1 AND v > 40`).on(oneNode)
	sc.add("admin", `UPDATE led SET note = 'g2v80' WHERE grp = 2 AND v = 80 AND note IS NULL`).on(oneNode)
	sc.add("admin", `DELETE FROM led WHERE grp = 0 AND grp = 1`).on(oneNode)
	led("admin")
	sc.add("admin", `UPDATE led SET note = 'div' WHERE 100 / v > 5`).on(oneNode)
	sc.add("alice", `DELETE FROM led WHERE 100 / v > 5`).on(oneNode)
	sc.add("alice", `UPDATE led SET note = 'mine' WHERE label_size(_label) = 1`).on(oneNode)
	led("alice")
	// Subqueries over the table being written see it as it was.
	sc.add("admin", `UPDATE led SET v = v + 1000 WHERE id IN (SELECT id FROM led WHERE grp = 2)`).on(oneNode)
	sc.add("admin", `UPDATE led SET note = 'max' WHERE v = (SELECT MAX(v) FROM led)`).on(oneNode)
	sc.add("admin", `DELETE FROM led WHERE v = (SELECT MIN(b.v) FROM led b WHERE b.grp = led.grp)`).on(oneNode)
	sc.add("admin", `DELETE FROM led WHERE id IN (SELECT id FROM led WHERE v > 1050)`).on(oneNode)
	led("admin")
	// The Write Rule over several rows: alice's own row 102 (grp 0, the
	// lowest v) is reached first and written, then admin's row 3 fails
	// the statement as a whole: 102 reads as it did before.
	sc.add("alice", `UPDATE led SET note = 'w' WHERE grp = 0 AND v < 40`).on(oneNode)
	sc.add("alice", `DELETE FROM led WHERE grp = 0 AND v < 40`).on(oneNode)
	led("alice")
	sc.setup("admin", `CREATE VIEW rich AS SELECT id, v FROM led WHERE v > 50`).on(oneNode)
	sc.add("admin", `UPDATE rich SET v = 0 WHERE id = 1`).on(oneNode)
	sc.add("admin", `DELETE FROM rich WHERE id = 1`).on(oneNode)
	sc.add("admin", `UPDATE nosuch SET v = 0 WHERE id = 1`).on(oneNode)
	// No WHERE at all.
	sc.add("alice", `DELETE FROM led`).on(oneNode)
	sc.add("admin", `UPDATE led SET note = 'all'`).on(oneNode)
	led("admin")
	sc.add("admin", `DELETE FROM led`).on(oneNode)
	sc.add("alice", `SELECT COUNT(*) FROM led`).on(oneNode)
	return sc
}

// simMix replays a sim-generated statement mix — IFC-labeled tenant
// cohorts with distinct statement classes and prepared-statement
// appetites — in schedule order, then drains the end state per tenant.
func simMix(seed int64) scenario {
	const keys = 48
	w := sim.Workload{
		Seed: seed, Arrival: sim.ArrivalClosed, Workers: 4, Ops: 500,
		Table: "kv", Keys: keys, ScanSpan: 16,
		Cohorts: []sim.Cohort{
			{Name: "tenant0", Weight: 3, Tags: []string{"t_tenant0"},
				Mix: sim.StmtMix{PointRead: 8, PointWrite: 2}, PreparedPct: 100},
			{Name: "tenant1", Weight: 2, Tags: []string{"t_tenant1"},
				Mix: sim.StmtMix{PointRead: 5, PointWrite: 2, Insert: 2, Scan: 1}, PreparedPct: 50},
			{Name: "public", Weight: 2,
				Mix: sim.StmtMix{PointRead: 3, PointWrite: 2, Insert: 3, Scan: 2, DDL: 1}},
		},
	}
	sched, err := sim.Generate(w)
	if err != nil {
		panic(err)
	}
	sc := scenario{
		name:     fmt.Sprintf("sim-seed%d", seed),
		users:    []user{{name: "admin"}},
		shardKey: map[string]string{"kv": "k"},
	}
	sc.setup("admin", `CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT)`)
	// Each cohort's key domain is seeded through the cohort's own
	// session, so rows carry the tenant's label and the write rule lets
	// the tenant's updates hit them.
	for ci, c := range w.Cohorts {
		sc.users = append(sc.users, user{name: c.Name, tags: c.Tags})
		for k := int64(0); k < keys; k++ {
			sc.setup(c.Name, `INSERT INTO kv VALUES ($1, $2)`, ints(int64(ci)*sim.CohortKeyStride+k, k)...)
		}
	}
	for i := range sched.Ops {
		op := &sched.Ops[i]
		if c := sc.add(op.Cohort, op.SQL, ints(op.Args...)...); op.Prepared {
			c.viaHandle()
		}
	}
	for _, c := range w.Cohorts {
		sc.add(c.Name, `SELECT k, v, _label FROM kv ORDER BY k`).on(labelValue)
		sc.add(c.Name, `SELECT k, v FROM kv ORDER BY k`)
		sc.add(c.Name, `SELECT COUNT(*), SUM(v) FROM kv`)
	}
	return sc
}

// scatter is the battery for reads with no shard key: partial
// aggregates, ordered merges, bounds and glue evaluated at the gateway,
// error text, over seeded data — unique v (no ties), a small group
// space with a NULL group, every tenth row written under a secrecy tag
// — read once by a session that cannot see those rows and once by one
// that can.
func scatter(seed int64) scenario {
	sc := scenario{
		name:     fmt.Sprintf("scatter-seed%d", seed),
		users:    []user{{name: "pub"}, {name: "sec", tags: []string{"sekrit"}}},
		shardKey: map[string]string{"kv": "k"},
	}
	sc.setup("pub", `CREATE TABLE kv (k BIGINT PRIMARY KEY, g TEXT, v BIGINT)`)
	rng := rand.New(rand.NewSource(seed))
	groups := []string{"red", "green", "blue", "cyan", "plum"}
	const n = 60
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		g := types.NewText(groups[rng.Intn(len(groups))])
		if i%13 == 5 {
			g = types.Null
		}
		u := "pub"
		if i%10 == 7 {
			u = "sec"
		}
		sc.setup(u, `INSERT INTO kv VALUES ($1, $2, $3)`, types.NewInt(int64(i)), g, types.NewInt(int64(perm[i]*3+1)))
	}
	for _, u := range []string{"pub", "sec"} {
		q := func(text string, args ...int64) *tcase { return sc.add(u, text, ints(args...)...) }
		q(`SELECT count(*) FROM kv`)
		q(`SELECT count(v) FROM kv`)
		q(`SELECT sum(v) FROM kv`)
		q(`SELECT avg(v) FROM kv`)
		q(`SELECT min(v), max(v) FROM kv`)
		q(`SELECT min(g) FROM kv`)
		q(`SELECT g, count(*) FROM kv GROUP BY g`).anyOrder()
		q(`SELECT g, sum(v) AS s FROM kv GROUP BY g HAVING count(*) > 3 ORDER BY g`)
		q(`SELECT g, avg(v) FROM kv GROUP BY g ORDER BY g`)
		q(`SELECT g, min(v), max(v), count(*) FROM kv GROUP BY g ORDER BY g`)
		q(`SELECT v FROM kv ORDER BY v LIMIT 5`)
		q(`SELECT v FROM kv ORDER BY v DESC LIMIT 5 OFFSET 3`)
		q(`SELECT DISTINCT g FROM kv ORDER BY g`).anyLabels()
		q(`SELECT count(DISTINCT g) FROM kv`)
		q(`SELECT g, count(*) FROM kv WHERE v > 50 GROUP BY g ORDER BY g`)
		q(`SELECT k + v FROM kv ORDER BY k LIMIT 10`)
		q(`SELECT g, v FROM kv ORDER BY g, v`)
		q(`SELECT sum(v) FROM kv WHERE g = 'zz'`)
		q(`SELECT v FROM kv WHERE k < 0 ORDER BY v`)
		// Bounds and glue evaluated at the gateway, in both merge shapes:
		// the single node's answer or its error text.
		q(`SELECT v FROM kv ORDER BY v LIMIT -1`)
		q(`SELECT v FROM kv ORDER BY v LIMIT 3 OFFSET 1.5`)
		q(`SELECT v FROM kv ORDER BY v OFFSET 1000`)
		q(`SELECT g, count(*) FROM kv GROUP BY g ORDER BY g LIMIT -1`)
		q(`SELECT g, count(*) FROM kv GROUP BY g ORDER BY g LIMIT 3 OFFSET 1.5`)
		q(`SELECT g, count(*) FROM kv GROUP BY g ORDER BY g OFFSET 1000`)
		// HAVING glue that fails only at the gateway: arithmetic on TEXT.
		q(`SELECT g, count(*) FROM kv GROUP BY g HAVING g + 1 > 0`).anyOrder()
		q(`SELECT sum(g) FROM kv`) // type error: every backend refuses identically
		// The sort under LIMIT keeps limit + offset rows — on the shards
		// (pushed literal bounds) and at the gateway (over an aggregate's
		// groups): mixed directions over NULL groups, bounds of nothing,
		// past the end and from a parameter, and DISTINCT, which takes
		// the bound away.
		q(`SELECT g, v FROM kv ORDER BY g DESC, v LIMIT 7`)
		q(`SELECT g, v FROM kv ORDER BY g, v DESC LIMIT 5 OFFSET 4`)
		q(`SELECT v FROM kv ORDER BY v LIMIT 0`)
		q(`SELECT v FROM kv ORDER BY v DESC LIMIT 1000`)
		q(`SELECT v FROM kv ORDER BY v DESC LIMIT $1`, 4)
		q(`SELECT v FROM kv ORDER BY v LIMIT $1 OFFSET $2`, 3, 2)
		// Ties only: which rows fill the LIMIT is arrival order's choice,
		// but every candidate shows the same value.
		q(`SELECT g FROM kv ORDER BY g LIMIT 9`).anyLabels()
		q(`SELECT DISTINCT g FROM kv ORDER BY g LIMIT 2`).anyLabels()
		q(`SELECT DISTINCT g FROM kv ORDER BY g DESC LIMIT 2 OFFSET 1`).anyLabels()
		q(`SELECT g, count(*) AS c FROM kv GROUP BY g ORDER BY c DESC, g LIMIT 2`)
		q(`SELECT g, sum(v) FROM kv GROUP BY g ORDER BY sum(v) DESC LIMIT $1 OFFSET $2`, 2, 1)
		q(`SELECT g, min(v) FROM kv GROUP BY g ORDER BY min(v) LIMIT 0`)
		q(`SELECT count(*), sum(v), min(g) FROM kv WHERE k < 0`)
		q(`SELECT g, count(*) FROM kv WHERE k < 0 GROUP BY g`).anyOrder()
		q(`SELECT g, count(*) FROM kv WHERE k < 0 GROUP BY g ORDER BY g LIMIT 3`)
		// Keyless reads with nothing for a gateway to merge: the shards'
		// streams are concatenated.
		q(`SELECT k, g, v FROM kv`).anyOrder()
		q(`SELECT k, v FROM kv WHERE v > 100`).anyOrder()
	}
	return sc
}
