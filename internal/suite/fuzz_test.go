package suite

import (
	"sort"
	"strings"
	"testing"

	"ifdb/internal/sql"
)

// FuzzNoLabelBypass fuzzes WHERE clauses over a table holding a
// secret-labeled sentinel row, on MemHeap and on USING DISK, and
// asserts two invariants on every accepted clause p:
//
//  1. No bypass: an unprivileged session never receives the sentinel,
//     whatever predicate the analyzer pushed below the scan — Label
//     Confinement runs before pushed predicates, and pushing must never
//     reorder that.
//  2. Partition: WHERE p, WHERE NOT (p) and WHERE (p) IS NULL split
//     the rows of the statement without a WHERE — each visible row is
//     in exactly one. A predicate evaluated wrongly somewhere in the
//     plan (pushed, residual, index-selected) loses or duplicates one.
//
// Session-label-mutating builtins (addsecrecy and friends) are
// excluded: contaminating the probe session would make seeing the
// sentinel legal, which is not a bypass. So are sleep, sequences and
// now(), whose answers differ from one evaluation to the next.
func FuzzNoLabelBypass(f *testing.F) {
	sc := scenario{users: []user{{name: "admin"}, {name: "alice", tags: []string{"t_alice"}}, {name: "probe"}}}
	probeSetup(&sc)
	probe := func(t *testing.T, d db, sel *sql.SelectStmt) (outcome, bool) {
		text, err := sql.FormatSelect(sel)
		if err != nil {
			return outcome{}, false
		}
		o := d.run(&tcase{user: "probe"}, text)
		for _, row := range o.rows {
			if strings.Contains(row, probeSentinel) {
				t.Fatalf("label bypass: the unprivileged session read the sentinel via %s", text)
			}
		}
		return o, o.err == ""
	}
	var heaps []db
	for _, disk := range []bool{false, true} {
		heaps = append(heaps, play(f, &sc, backends[0], disk, nil)) // all setup: nothing to report
	}
	for _, cl := range probeClauses {
		f.Add(cl)
	}
	f.Fuzz(func(t *testing.T, clause string) {
		low := strings.ToLower(clause)
		for _, banned := range []string{"sleep", "secrecy", "declassify", "endorse", "integrity", "nextval", "create_sequence", "now"} {
			if strings.Contains(low, banned) {
				return
			}
		}
		stmts, err := sql.ParseAll("SELECT k, v FROM s WHERE " + clause)
		if err != nil || len(stmts) != 1 {
			return
		}
		sel, ok := stmts[0].(*sql.SelectStmt)
		if !ok || sel.Where == nil || len(sel.GroupBy) > 0 || sel.Having != nil || len(sel.OrderBy) > 0 ||
			sel.Limit != nil || sel.Offset != nil || sel.Distinct || sel.ForUpdate {
			return
		}
		p := sel.Where
		for _, d := range heaps {
			var parts []string
			whole := true
			for _, where := range []sql.Expr{p, &sql.UnaryExpr{Op: "NOT", Expr: p}, &sql.IsNullExpr{Expr: p}} {
				sel.Where = where
				o, ok := probe(t, d, sel)
				parts = append(parts, o.rows...)
				whole = whole && ok
			}
			sel.Where = nil
			all, ok := probe(t, d, sel)
			if !whole || !ok {
				continue // a part failed at run time: nothing to add up
			}
			sort.Strings(parts)
			sort.Strings(all.rows)
			if got, want := strings.Join(parts, "\n"), strings.Join(all.rows, "\n"); got != want {
				t.Fatalf("WHERE %s: the rows where it is true, false and NULL are\n%s\nbut the table's visible rows are\n%s", clause, got, want)
			}
		}
	})
}
