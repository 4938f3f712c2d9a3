package sql

// WalkExprs calls fn on every expression node reachable from st, in
// pre-order: Inspect, plus the descent into subqueries (IN/EXISTS/
// scalar) and FROM-clause subselects. Clients use it for statement
// analysis — parameter counting, shard-key derivation, side-effect
// detection — without each duplicating the traversal.
func WalkExprs(st Statement, fn func(Expr)) {
	switch x := st.(type) {
	case *SelectStmt:
		walkSelect(x, fn)
	case *InsertStmt:
		for _, row := range x.Rows {
			for _, e := range row {
				walkExpr(e, fn)
			}
		}
		if x.Select != nil {
			walkSelect(x.Select, fn)
		}
	case *UpdateStmt:
		for _, sc := range x.Set {
			walkExpr(sc.Value, fn)
		}
		walkExpr(x.Where, fn)
	case *DeleteStmt:
		walkExpr(x.Where, fn)
	case *CreateTableStmt:
		for _, c := range x.Columns {
			walkExpr(c.Default, fn)
		}
		for _, con := range x.Constraints {
			for _, e := range con.LabelExprs {
				walkExpr(e, fn)
			}
			walkExpr(con.Check, fn)
		}
	case *CreateViewStmt:
		if x.Select != nil {
			walkSelect(x.Select, fn)
		}
	case *ExplainStmt:
		WalkExprs(x.Stmt, fn)
	}
}

func walkSelect(sel *SelectStmt, fn func(Expr)) {
	if sel == nil {
		return
	}
	for _, it := range sel.Items {
		walkExpr(it.Expr, fn)
	}
	if sel.From != nil && sel.From.Sub != nil {
		walkSelect(sel.From.Sub, fn)
	}
	for _, j := range sel.Joins {
		if j.Table.Sub != nil {
			walkSelect(j.Table.Sub, fn)
		}
		walkExpr(j.On, fn)
	}
	walkExpr(sel.Where, fn)
	for _, e := range sel.GroupBy {
		walkExpr(e, fn)
	}
	walkExpr(sel.Having, fn)
	for _, ob := range sel.OrderBy {
		walkExpr(ob.Expr, fn)
	}
	walkExpr(sel.Limit, fn)
	walkExpr(sel.Offset, fn)
}

// walkExpr is Inspect that also descends into e's subqueries.
func walkExpr(e Expr, fn func(Expr)) {
	Inspect(e, func(e Expr) bool {
		fn(e)
		switch x := e.(type) {
		case *InExpr:
			walkSelect(x.Sub, fn)
		case *ExistsExpr:
			walkSelect(x.Sub, fn)
		case *SubqueryExpr:
			walkSelect(x.Sub, fn)
		}
		return true
	})
}

// Inspect calls fn on e and, in pre-order, on every operand beneath
// it, skipping a node's operands when fn returns false for it. It does
// not enter a subquery's SELECT: that is a scope of its own, which
// WalkExprs descends into. Every analysis of an expression outside
// this package descends through Inspect or Rewrite, so a new
// expression kind is taught to these two alone.
func Inspect(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *BinaryExpr:
		Inspect(x.Left, fn)
		Inspect(x.Right, fn)
	case *UnaryExpr:
		Inspect(x.Expr, fn)
	case *IsNullExpr:
		Inspect(x.Expr, fn)
	case *InExpr:
		Inspect(x.Expr, fn)
		for _, it := range x.List {
			Inspect(it, fn)
		}
	case *BetweenExpr:
		Inspect(x.Expr, fn)
		Inspect(x.Lo, fn)
		Inspect(x.Hi, fn)
	case *FuncCall:
		for _, a := range x.Args {
			Inspect(a, fn)
		}
	}
}

// Rewrite returns a copy of e rebuilt bottom-up, leaving e itself
// untouched. fn sees each node in pre-order: a non-nil result replaces
// the node, and its operands are then not visited; nil keeps the node,
// copied with its operands rewritten. Leaves and subqueries are shared,
// not copied, and a subquery's SELECT is not entered.
func Rewrite(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	if r := fn(e); r != nil {
		return r
	}
	switch x := e.(type) {
	case *BinaryExpr:
		y := *x
		y.Left, y.Right = Rewrite(x.Left, fn), Rewrite(x.Right, fn)
		return &y
	case *UnaryExpr:
		y := *x
		y.Expr = Rewrite(x.Expr, fn)
		return &y
	case *IsNullExpr:
		y := *x
		y.Expr = Rewrite(x.Expr, fn)
		return &y
	case *InExpr:
		y := *x
		y.Expr, y.List = Rewrite(x.Expr, fn), rewriteAll(x.List, fn)
		return &y
	case *BetweenExpr:
		y := *x
		y.Expr, y.Lo, y.Hi = Rewrite(x.Expr, fn), Rewrite(x.Lo, fn), Rewrite(x.Hi, fn)
		return &y
	case *FuncCall:
		y := *x
		y.Args = rewriteAll(x.Args, fn)
		return &y
	}
	return e
}

func rewriteAll(es []Expr, fn func(Expr) Expr) []Expr {
	if es == nil {
		return nil
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = Rewrite(e, fn)
	}
	return out
}

// MaxParam returns the largest positional-parameter index ($n)
// referenced anywhere in stmts — the number of parameters an
// execution must bind.
func MaxParam(stmts []Statement) int {
	max := 0
	for _, st := range stmts {
		WalkExprs(st, func(e Expr) {
			if p, ok := e.(*Param); ok && p.Index > max {
				max = p.Index
			}
		})
	}
	return max
}
