package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ifdb/internal/label"
	"ifdb/internal/txn"
	"ifdb/internal/types"
)

// TestStatementAllocBudget holds the three statement shapes New-Order is
// made of to an allocation budget: a composite-PK SELECT, a PK UPDATE of
// non-key columns and a 3-column INSERT, each a plan-cache hit inside an
// explicit transaction on a database with a log (SyncMode off), with IFC
// on and off, in objects and in bytes. A cached statement allocates its
// output row (a SELECT), the version it writes and that version's index
// keys, and its Result (a SELECT's): its plan's iterator tree, its
// frame, its Runtime, its UPDATE targets, its Label Confinement
// predicate and the label it writes are all kept or shared from
// statement to statement. What the budget keeps from growing back is
// that scaffolding: 7, 12 and 8 objects (1 633, 3 121 and 1 394 bytes)
// with IFC on before it went.
func TestStatementAllocBudget(t *testing.T) {
	for _, ifc := range []bool{true, false} {
		t.Run(fmt.Sprintf("ifc=%v", ifc), func(t *testing.T) {
			e, err := New(Config{IFC: ifc, DataDir: t.TempDir(), SyncMode: "off"})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			s := e.NewSession(e.Admin())
			mustExec(t, s, `CREATE TABLE stock (s_w_id BIGINT, s_i_id BIGINT, s_quantity BIGINT, s_ytd BIGINT, s_order_cnt BIGINT, PRIMARY KEY (s_w_id, s_i_id))`)
			mustExec(t, s, `CREATE TABLE new_order (no_w_id BIGINT, no_d_id BIGINT, no_o_id BIGINT, PRIMARY KEY (no_w_id, no_d_id, no_o_id))`)
			if ifc {
				// Rows and session carry one tag, so Label Confinement has
				// a label to compare on every read, as in the benchmark.
				tag, err := e.CreateTag(e.Admin(), "tenant")
				if err != nil {
					t.Fatal(err)
				}
				SyncLabel(s, label.New(tag), nil, e.Admin())
			}
			for i := int64(1); i <= 50; i++ {
				mustExec(t, s, `INSERT INTO stock VALUES (1, $1, 50, 0, 0)`, types.NewInt(i))
			}

			if err := s.Begin(txn.SnapshotIsolation); err != nil {
				t.Fatal(err)
			}
			defer s.Abort()
			// Each shape's parameters are one slice, rewritten in place
			// before every execution: building them is the caller's cost.
			next := int64(0)
			shapes := []struct {
				name   string
				budget float64 // objects per statement
				bytes  uint64  // bytes per statement
				text   string
				params []types.Value
				bump   func(p []types.Value)
			}{
				{"select", 3, 600, `SELECT s_quantity, s_ytd, s_order_cnt FROM stock WHERE s_w_id = $1 AND s_i_id = $2`,
					make([]types.Value, 2),
					func(p []types.Value) { p[0], p[1] = types.NewInt(1), types.NewInt(1+next%50) }},
				{"update", 8, 1500, `UPDATE stock SET s_quantity = $3, s_ytd = $4, s_order_cnt = $5 WHERE s_w_id = $1 AND s_i_id = $2`,
					make([]types.Value, 5),
					func(p []types.Value) {
						p[0], p[1] = types.NewInt(1), types.NewInt(1+next%50)
						p[2], p[3], p[4] = types.NewInt(40), types.NewInt(next), types.NewInt(next)
					}},
				{"insert", 6, 1000, `INSERT INTO new_order VALUES ($1, $2, $3)`,
					make([]types.Value, 3),
					func(p []types.Value) { p[0], p[1], p[2] = types.NewInt(1), types.NewInt(1), types.NewInt(next) }},
			}
			for _, sh := range shapes {
				run := func() {
					next++
					sh.bump(sh.params)
					if _, err := s.Exec(sh.text, sh.params...); err != nil {
						t.Fatal(err)
					}
				}
				run() // parses and plans
				if per := testing.AllocsPerRun(200, run); per > sh.budget {
					t.Errorf("%s: %.1f allocations per statement, budget %.0f", sh.name, per, sh.budget)
				} else {
					t.Logf("%s: %.1f allocations per statement (budget %.0f)", sh.name, per, sh.budget)
				}
				const runs = 2000
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < runs; i++ {
					run()
				}
				runtime.ReadMemStats(&after)
				if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > sh.bytes {
					t.Errorf("%s: %d bytes per statement, budget %d", sh.name, per, sh.bytes)
				} else {
					t.Logf("%s: %d bytes per statement (budget %d)", sh.name, per, sh.bytes)
				}
			}
		})
	}
}

// TestDiskDrainAllocBudget holds the streamed drain of a table on disk,
// as the wire server pulls it (an encoded-mode Cursor, NextEncoded), to
// a budget in bytes allocated per row sent: 20 000 rows of scan-drain's
// shape under two labels, half of them visible to the reader, with IFC
// on. Rows leave as their stored bytes, copied once into blocks that
// are never reused; a row decoded into values and then encoded again —
// about 290 bytes a row, as NextBatch still allocates — is what the
// budget keeps from coming back.
func TestDiskDrainAllocBudget(t *testing.T) {
	const rows, budget = 20_000, 120
	e, err := New(Config{IFC: true, DataDir: t.TempDir(), SyncMode: "off"})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := e.NewSession(e.Admin())
	mustExec(t, s, `CREATE TABLE big (k BIGINT PRIMARY KEY, tenant BIGINT, v BIGINT, pad TEXT) USING DISK`)
	var tags [2]label.Label
	for i := range tags {
		tag, err := e.CreateTag(e.Admin(), fmt.Sprintf("tenant%d", i))
		if err != nil {
			t.Fatal(err)
		}
		tags[i] = label.New(tag)
	}
	const batch = 100
	var q strings.Builder
	for k := 0; k < rows; k += batch {
		q.Reset()
		q.WriteString(`INSERT INTO big VALUES `)
		for i := k; i < k+batch; i++ {
			if i > k {
				q.WriteString(", ")
			}
			fmt.Fprintf(&q, "(%d, %d, %d, 'p%039d')", i, k/batch%2, i*7919, i)
		}
		SyncLabel(s, tags[k/batch%2], nil, e.Admin())
		mustExec(t, s, q.String())
	}
	SyncLabel(s, tags[0], nil, e.Admin())
	drain := func() int {
		cur, err := s.ExecStream(`SELECT k, tenant, v, pad FROM big`)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			rows, stored, _, err := cur.NextEncoded(256)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) == 0 {
				return n
			}
			if len(stored) != len(rows) {
				t.Fatalf("%d stored rows beside %d rows", len(stored), len(rows))
			}
			n += len(rows)
		}
	}
	drain() // parses, plans and fills the pool's frames
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := drain()
	runtime.ReadMemStats(&after)
	if n != rows/2 {
		t.Fatalf("drained %d rows, want %d", n, rows/2)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(n); per > budget {
		t.Errorf("%d bytes allocated per row sent, budget %d", per, budget)
	} else {
		t.Logf("%d bytes allocated per row sent (budget %d)", per, budget)
	}
}

// TestLazySubqueryRunner: an expression environment builds its subquery
// runner the first time it meets a subquery, not when the plan opens, so
// the three ways a runner is reached must still answer as they did when
// every environment was handed one up front: a scalar subquery in a
// WHERE; one inside a declassifying view's body, which must run under
// the view's strip (without it the inner MAX would not see the rows the
// view declassifies); and a query issued by a stored procedure in the
// middle of another statement's scan, whose parameters must not leak
// into the statement that called it.
func TestLazySubqueryRunner(t *testing.T) {
	e := MustNew(Config{IFC: true})
	admin := e.NewSession(e.Admin())
	mustExec(t, admin, `CREATE TABLE emp (id BIGINT PRIMARY KEY, salary BIGINT)`)
	for i := int64(1); i <= 4; i++ {
		mustExec(t, admin, `INSERT INTO emp VALUES ($1, $2)`, types.NewInt(i), types.NewInt(1000+100*i))
	}
	alice := e.CreatePrincipal("alice")
	tag, err := e.CreateTag(alice, "t_alice")
	if err != nil {
		t.Fatal(err)
	}
	sa := e.NewSession(alice)
	if err := sa.AddSecrecy(tag); err != nil {
		t.Fatal(err)
	}
	mustExec(t, sa, `INSERT INTO emp VALUES (10, 5000), (11, 4000)`)
	mustExec(t, sa, `CREATE VIEW top_pay AS
		SELECT id, salary FROM emp WHERE salary = (SELECT MAX(salary) FROM emp) WITH DECLASSIFYING (t_alice)`)
	if err := e.RegisterProc("paid_more", func(ps *Session, args []types.Value) (types.Value, error) {
		res, err := ps.Exec(`SELECT COUNT(*) FROM emp WHERE salary > (SELECT salary FROM emp WHERE id = $1)`, args[0])
		if err != nil {
			return types.Null, err
		}
		return res.Rows[0][0], nil
	}); err != nil {
		t.Fatal(err)
	}
	outsider := e.NewSession(e.CreatePrincipal("outsider"))

	for _, c := range []struct {
		name   string
		s      *Session
		q      string
		params []types.Value
		want   string
	}{
		{"scalar subquery, public reader", admin,
			`SELECT id FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)`, nil, "4"},
		{"scalar subquery, labeled reader", sa,
			`SELECT id FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)`, nil, "10"},
		{"subquery under a declassifying view's strip", outsider,
			`SELECT id, salary FROM top_pay`, nil, "10|5000"},
		{"stored procedure querying mid-scan", admin,
			`SELECT id, paid_more(id) FROM emp WHERE id <= $1 ORDER BY id`, []types.Value{types.NewInt(3)}, "1|3 2|2 3|1"},
	} {
		res, err := c.s.Exec(c.q, c.params...)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got := strings.Join(rowStrings(res), " "); got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}
