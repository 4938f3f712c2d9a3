package plan

import (
	"ifdb/internal/exec"
	"ifdb/internal/sql"
)

// rules is the ordered analysis pass applied to every SELECT level.
// Order matters: index selection reads the same WHERE clause pushdown
// splits, so it mines the original expression, not the residual.
//
// No rule narrows a scan to the columns the level reads: a scan hands
// over the heap's own row, and the operator that keeps a row (the
// projection, the sort, a group's first row, a join) is the one copy.
var rules = []struct {
	name  string
	apply func(*level) error
}{
	{"pushdown", pushdownPredicates},
	{"indexselect", selectIndexes},
}

// pushdownPredicates moves WHERE conjuncts below the FROM scan, where
// they run per tuple right after MVCC and label visibility instead of
// after the whole input materializes.
//
// Answers and errors must be those of filtering after the whole input,
// which constrains the rule hard:
//
//   - The entire WHERE tree (and, when joins are present, every ON
//     clause) must be infallible: built only from shapes exec.Eval can
//     never fail on. Otherwise splitting the conjunction could
//     suppress or reorder an error. (Parameters are treated as
//     infallible: a missing parameter fails in the pushed position
//     exactly when it fails in the residual one — on the first visible
//     row.)
//   - A pushed conjunct must resolve entirely in the FROM scan's
//     schema; conjuncts touching joined tables stay in the residual.
//   - _label/_ilabel conjuncts are pushed only for single-table
//     queries: under a join the WHERE sees the combined row label
//     (left ∪ right), which the scan cannot know. For a single
//     table the scan's strip-adjusted tuple label is byte-identical to
//     what the WHERE evaluated.
//
// The pushed conjuncts are evaluated only after the Label Confinement
// Rule admits the tuple, so pushdown cannot become a read side channel
// on rows the process label does not cover.
func pushdownPredicates(lv *level) error {
	lv.residual = lv.sel.Where
	if lv.sel.Where == nil || len(lv.sources) == 0 {
		return nil
	}
	fromScan := lv.sources[0].scan
	if fromScan == nil {
		return nil // FROM is a view or derived table
	}
	if !infallibleExpr(lv.sel.Where, lv.full) {
		return nil
	}
	hasJoins := len(lv.sources) > 1
	if hasJoins {
		for _, src := range lv.sources[1:] {
			if src.jc.On == nil || !infallibleExpr(src.jc.On, lv.full) {
				return nil
			}
		}
	}
	var pushed, residual []sql.Expr
	for _, c := range splitConjuncts(lv.sel.Where) {
		if pushableConjunct(c, fromScan.schema, hasJoins) {
			pushed = append(pushed, c)
		} else {
			residual = append(residual, c)
		}
	}
	if len(pushed) == 0 {
		return nil
	}
	fromScan.Pushed = pushed
	lv.residual = joinConjuncts(residual)
	return nil
}

// selectIndexes mines the FROM scan's filter for column = constant
// conjuncts and picks the index with the longest fully-bound leading
// prefix. The constant expressions are kept unevaluated: parameters are
// bound when the scan opens.
func selectIndexes(lv *level) error {
	if len(lv.sources) == 0 {
		return nil
	}
	scan := lv.sources[0].scan
	if scan == nil || scan.Filter == nil {
		return nil
	}
	var eq []EqConst
	var walk func(e sql.Expr)
	walk = func(e sql.Expr) {
		b, ok := e.(*sql.BinaryExpr)
		if !ok {
			return
		}
		switch b.Op {
		case "AND":
			walk(b.Left)
			walk(b.Right)
		case "=":
			col, cexpr := b.Left, b.Right
			if !isConst(cexpr) {
				col, cexpr = b.Right, b.Left
			}
			cr, ok := col.(*sql.ColumnRef)
			if !ok || !isConst(cexpr) || cr.Column == "_label" {
				return
			}
			i, err := scan.schema.Resolve(cr.Table, cr.Column)
			if err != nil {
				return // column from another table in a join filter
			}
			eq = append(eq, EqConst{Col: i, Expr: cexpr})
		}
	}
	walk(scan.Filter)
	if len(eq) == 0 {
		return nil
	}
	scan.Eq = eq
	cols := make(map[int]bool, len(eq))
	for _, e := range eq {
		cols[e.Col] = true
	}
	if ix, n := scan.Table.BestIndexForCols(cols); ix != nil && n > 0 {
		scan.Index, scan.Prefix = ix, n
	}
	return nil
}

func isConst(e sql.Expr) bool {
	switch e.(type) {
	case *sql.Literal, *sql.Param:
		return true
	}
	return false
}

// walkRefs visits every column reference in e, not descending into
// subqueries (their references resolve against their own scope).
func walkRefs(e sql.Expr, fn func(*sql.ColumnRef)) {
	switch x := e.(type) {
	case *sql.ColumnRef:
		fn(x)
	case *sql.BinaryExpr:
		walkRefs(x.Left, fn)
		walkRefs(x.Right, fn)
	case *sql.UnaryExpr:
		walkRefs(x.Expr, fn)
	case *sql.IsNullExpr:
		walkRefs(x.Expr, fn)
	case *sql.BetweenExpr:
		walkRefs(x.Expr, fn)
		walkRefs(x.Lo, fn)
		walkRefs(x.Hi, fn)
	case *sql.InExpr:
		walkRefs(x.Expr, fn)
		for _, it := range x.List {
			walkRefs(it, fn)
		}
	case *sql.FuncCall:
		for _, a := range x.Args {
			walkRefs(a, fn)
		}
	}
}

// infallibleExpr reports whether exec.Eval can never return an error
// for e against rows of schema: literals, parameters, resolvable
// column references (including the _label/_ilabel pseudo-columns),
// comparisons, AND/OR, IS NULL, BETWEEN, and IN over a literal list.
// Arithmetic (division by zero), NOT (type errors), LIKE, string
// concatenation, function calls, and subqueries are all fallible.
func infallibleExpr(e sql.Expr, schema exec.Schema) bool {
	switch x := e.(type) {
	case *sql.Literal, *sql.Param:
		return true
	case *sql.ColumnRef:
		if x.Column == "_label" || x.Column == "_ilabel" {
			return true
		}
		_, err := schema.Resolve(x.Table, x.Column)
		return err == nil
	case *sql.BinaryExpr:
		switch x.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=":
			return infallibleExpr(x.Left, schema) && infallibleExpr(x.Right, schema)
		}
		return false
	case *sql.IsNullExpr:
		return infallibleExpr(x.Expr, schema)
	case *sql.BetweenExpr:
		return infallibleExpr(x.Expr, schema) && infallibleExpr(x.Lo, schema) && infallibleExpr(x.Hi, schema)
	case *sql.InExpr:
		if x.Sub != nil {
			return false
		}
		if !infallibleExpr(x.Expr, schema) {
			return false
		}
		for _, it := range x.List {
			if !infallibleExpr(it, schema) {
				return false
			}
		}
		return true
	}
	return false
}

// pushableConjunct reports whether c may run inside the FROM scan:
// every plain column reference resolves in the scan's schema, and
// label pseudo-columns appear only when no join will change the row
// label above the scan.
func pushableConjunct(c sql.Expr, scanSchema exec.Schema, hasJoins bool) bool {
	ok := true
	walkRefs(c, func(cr *sql.ColumnRef) {
		if cr.Column == "_label" || cr.Column == "_ilabel" {
			if hasJoins {
				ok = false
			}
			return
		}
		if _, err := scanSchema.Resolve(cr.Table, cr.Column); err != nil {
			ok = false
		}
	})
	return ok
}

func splitConjuncts(e sql.Expr) []sql.Expr {
	if b, ok := e.(*sql.BinaryExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.Left), splitConjuncts(b.Right)...)
	}
	return []sql.Expr{e}
}

func joinConjuncts(cs []sql.Expr) sql.Expr {
	if len(cs) == 0 {
		return nil
	}
	e := cs[0]
	for _, c := range cs[1:] {
		e = &sql.BinaryExpr{Op: "AND", Left: e, Right: c}
	}
	return e
}
