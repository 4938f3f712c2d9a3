package engine

import (
	"fmt"
	"testing"

	"ifdb/internal/types"
)

// TestAggregateOrdinalParity: a GROUP BY key or aggregate argument that
// is a plain column reference answers exactly as the same reference
// wrapped in coalesce(), which is an expression and so always evaluated
// by name, row by row. Rows, row labels and error text must agree —
// including the references that do not resolve, which fail on the first
// row and never on an empty input.
func TestAggregateOrdinalParity(t *testing.T) {
	e := MustNew(Config{IFC: true})
	admin := e.NewSession(e.Admin())
	mustExec(t, admin, `CREATE TABLE t (id BIGINT PRIMARY KEY, g TEXT, v BIGINT, pad TEXT)`)
	mustExec(t, admin, `CREATE TABLE empty (id BIGINT PRIMARY KEY, g TEXT, v BIGINT, pad TEXT)`)
	owner := e.CreatePrincipal("owner")
	tag, err := e.CreateTag(owner, "t_sec")
	if err != nil {
		t.Fatal(err)
	}
	so := e.NewSession(owner)
	for i := int64(1); i <= 40; i++ {
		s := admin
		if i%3 == 0 {
			s = so // a third of the rows carry the tag
		}
		v := types.NewInt(i * 7 % 11)
		if i%5 == 0 {
			v = types.Null
		}
		mustExec(t, s, `INSERT INTO t VALUES ($1, $2, $3, 'x')`,
			types.NewInt(i), types.NewText(fmt.Sprintf("g%d", i%4)), v)
		if i == 2 {
			if err := so.AddSecrecy(tag); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, c := range []struct{ name, plain, eval string }{
		{"plain column",
			`SELECT g, count(*), sum(v), min(v), avg(v), count(DISTINCT v) FROM t GROUP BY g`,
			`SELECT g, count(*), sum(coalesce(v)), min(coalesce(v)), avg(coalesce(v)), count(DISTINCT coalesce(v)) FROM t GROUP BY coalesce(g)`},
		{"qualified column",
			`SELECT t.g, max(t.v), count(t.v) FROM t GROUP BY t.g ORDER BY t.g DESC`,
			`SELECT t.g, max(coalesce(t.v)), count(coalesce(t.v)) FROM t GROUP BY coalesce(t.g) ORDER BY t.g DESC`},
		{"label pseudo-column",
			`SELECT _label, count(*), sum(v) FROM t GROUP BY _label`,
			`SELECT _label, count(*), sum(coalesce(v)) FROM t GROUP BY coalesce(_label)`},
		{"expression",
			`SELECT v + 1, count(*), sum(v + 1) FROM t GROUP BY v + 1 ORDER BY 1`,
			`SELECT v + 1, count(*), sum(coalesce(v + 1)) FROM t GROUP BY coalesce(v + 1) ORDER BY 1`},
		{"no GROUP BY",
			`SELECT count(v), sum(v) FROM t`,
			`SELECT count(coalesce(v)), sum(coalesce(v)) FROM t`},
		{"ambiguous key under a self-join",
			`SELECT count(*) FROM t a JOIN t b ON a.id = b.id GROUP BY g`,
			`SELECT count(*) FROM t a JOIN t b ON a.id = b.id GROUP BY coalesce(g)`},
		{"ambiguous argument under a self-join",
			`SELECT a.g, sum(v) FROM t a JOIN t b ON a.id = b.id GROUP BY a.g`,
			`SELECT a.g, sum(coalesce(v)) FROM t a JOIN t b ON a.id = b.id GROUP BY coalesce(a.g)`},
		{"unknown key",
			`SELECT count(*) FROM t GROUP BY nosuch`,
			`SELECT count(*) FROM t GROUP BY coalesce(nosuch)`},
		{"unknown argument",
			`SELECT g, sum(nosuch) FROM t GROUP BY g`,
			`SELECT g, sum(coalesce(nosuch)) FROM t GROUP BY coalesce(g)`},
		{"unknown key, empty table",
			`SELECT count(*) FROM empty GROUP BY nosuch`,
			`SELECT count(*) FROM empty GROUP BY coalesce(nosuch)`},
		{"unknown argument, empty table",
			`SELECT sum(nosuch), count(*) FROM empty`,
			`SELECT sum(coalesce(nosuch)), count(*) FROM empty`},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, want := answer(so, c.plain), answer(so, c.eval)
			if got != want {
				t.Errorf("%s\n got: %s\n%s\nwant: %s", c.plain, got, c.eval, want)
			}
		})
	}
}

// answer renders a statement's rows with their labels, or its error.
func answer(s *Session, q string) string {
	res, err := s.Exec(q)
	if err != nil {
		return "error: " + err.Error()
	}
	out := ""
	for i, r := range rowStrings(res) {
		out += fmt.Sprintf("%s @%v; ", r, res.RowLabels[i])
	}
	return out
}

// TestScanFoldAndTopKAllocBudget: a GROUP BY fold and a bounded top-k
// sort over a mem table allocate per group and per kept row, not per
// scanned row. The scan hands over the heap's own rows, the fold reads
// its key and arguments by ordinal, and the sort runs below the
// projection, which copies only the rows the sort emits: ten times the
// rows costs no more allocations.
func TestScanFoldAndTopKAllocBudget(t *testing.T) {
	const slack = 4
	stmts := []string{
		`SELECT region, count(*), sum(v) FROM t GROUP BY region`,
		`SELECT id, v FROM t ORDER BY v DESC, id LIMIT 50`,
	}
	allocs := func(rows int) []float64 {
		e := MustNew(Config{IFC: true})
		s := e.NewSession(e.Admin())
		mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, region TEXT, v BIGINT, pad TEXT)`)
		for i := 0; i < rows; i++ {
			mustExec(t, s, `INSERT INTO t VALUES ($1, $2, $3, 'padding')`, types.NewInt(int64(i)),
				types.NewText(fmt.Sprintf("region-%02d", i%12)), types.NewInt(int64(i*7919%10000)))
		}
		per := make([]float64, len(stmts))
		for i, q := range stmts {
			mustExec(t, s, q) // parses and plans
			per[i] = testing.AllocsPerRun(10, func() { mustExec(t, s, q) })
		}
		return per
	}
	small, large := allocs(1_000), allocs(10_000)
	for i, q := range stmts {
		if large[i] > small[i]+slack {
			t.Errorf("%s: %.0f allocations at 1 000 rows, %.0f at 10 000 (slack %d)", q, small[i], large[i], slack)
		} else {
			t.Logf("%s: %.0f allocations at 1 000 rows, %.0f at 10 000", q, small[i], large[i])
		}
	}
}
