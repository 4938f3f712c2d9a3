// Parser-based shard-key derivation: given a statement's AST, decide
// which table it addresses and which key values confine it to one
// shard. Computed once per statement text (and pinned in prepared
// handles), then evaluated per execution against the parameters and
// the Router's current map.
//
// Beyond a plain `key = v` it derives:
//
//   - `key IN (a, b, c)` lists, routable when every member hashes to
//     the same shard under the current map;
//   - quoted identifiers ("k" = 5);
//   - key equalities buried under other AND conjuncts that contain
//     ORs or NOTs of their own (`k = 5 AND (a OR b)`) — a top-level
//     conjunct `k = v` confines the statement no matter what its
//     siblings do;
//
// and it refuses UPDATEs that reassign the shard-key column (the row
// would migrate shards). When in doubt it reports "not derivable" and
// the safe path
// (fan-out read, refused write) is taken; the server's shard-
// ownership guard backstops any residual misrouting.

package client

import (
	"strings"

	"ifdb/internal/sql"
)

// keyExpr extracts one shard-key value at execution time: either a
// literal rendered canonically at analysis time, or a positional
// parameter rendered from the execution's arguments.
type keyExpr struct {
	valid bool   // false: the expression was not a plain literal/param
	lit   string // canonical literal, when param == 0
	param int    // 1-based parameter index, when > 0
}

// eval renders the canonical key string the servers hash.
func (k keyExpr) eval(params []Value) (string, bool) {
	if !k.valid {
		return "", false
	}
	if k.param > 0 {
		if k.param > len(params) {
			return "", false
		}
		return params[k.param-1].String(), true
	}
	return k.lit, true
}

// eqPair is one top-level WHERE conjunct of the form `col = v` or
// `col IN (v1, ..., vn)`.
type eqPair struct {
	col  string
	vals []keyExpr
}

// keyExprOf converts a constant AST expression; ok=false for anything
// with evaluation semantics (arithmetic, functions, subqueries).
func keyExprOf(e sql.Expr) (keyExpr, bool) {
	switch x := e.(type) {
	case *sql.Literal:
		return keyExpr{valid: true, lit: x.Value.String()}, true
	case *sql.Param:
		return keyExpr{valid: true, param: x.Index}, true
	}
	return keyExpr{}, false
}

// deriveShardShape fills p's single-table routing shape from one
// parsed statement. derivable=false marks shapes that can never
// confine to one shard (joins, subqueries, multi-row inserts, ...).
func (p *stmtPlan) deriveShardShape(st sql.Statement) {
	switch x := st.(type) {
	case *sql.InsertStmt:
		p.table = strings.ToLower(x.Table)
		if x.Select != nil || len(x.Rows) != 1 {
			return // INSERT..SELECT / multi-row: not confined to one key
		}
		vals := make([]keyExpr, len(x.Rows[0]))
		for i, e := range x.Rows[0] {
			vals[i], _ = keyExprOf(e) // non-consts stay invalid; checked at eval
		}
		p.insertCols = x.Columns
		p.insertVals = vals
		p.derivable = true
	case *sql.UpdateStmt:
		p.table = strings.ToLower(x.Table)
		if hasSubquery(st) {
			return
		}
		// An UPDATE that reassigns the shard-key column would migrate
		// the row across shards; whether it does depends on the map at
		// execution time, so record the assigned columns and let
		// shardKeys refuse then.
		for _, sc := range x.Set {
			p.setCols = append(p.setCols, strings.ToLower(sc.Column))
		}
		p.eqPairs = conjunctPairs(x.Where)
		p.derivable = true
	case *sql.DeleteStmt:
		p.table = strings.ToLower(x.Table)
		if hasSubquery(st) {
			return
		}
		p.eqPairs = conjunctPairs(x.Where)
		p.derivable = true
	case *sql.SelectStmt:
		if x.From == nil || x.From.Sub != nil || len(x.Joins) != 0 {
			return // no table / subselect / join: fan out
		}
		p.table = strings.ToLower(x.From.Name)
		if hasSubquery(st) {
			return // a subquery evaluates against shard-local data
		}
		p.eqPairs = conjunctPairs(x.Where)
		p.derivable = true
	case *sql.ExplainStmt:
		// EXPLAIN routes like the statement it explains: a keyed inner
		// SELECT's plan comes from the owning shard.
		if sel, ok := x.Stmt.(*sql.SelectStmt); ok {
			p.deriveShardShape(sel)
		}
	}
}

// hasSubquery reports any subquery anywhere in the statement: its
// result depends on which shard evaluates it, so the statement is
// never treated as confined.
func hasSubquery(st sql.Statement) bool {
	found := false
	sql.WalkExprs(st, func(e sql.Expr) {
		switch x := e.(type) {
		case *sql.InExpr:
			if x.Sub != nil {
				found = true
			}
		case *sql.ExistsExpr, *sql.SubqueryExpr:
			found = true
		}
	})
	return found
}

// conjunctPairs decomposes a WHERE clause's top-level AND chain into
// `col = const` and `col IN (consts)` pairs. Anything else — ORs,
// NOTs, ranges, function calls — is simply not a confining conjunct:
// it narrows the result further, so ignoring it is safe (the
// equality alone already pins the shard). A top-level OR yields no
// pairs at all, correctly marking the statement unconfined.
func conjunctPairs(where sql.Expr) []eqPair {
	var pairs []eqPair
	var walk func(e sql.Expr)
	walk = func(e sql.Expr) {
		switch x := e.(type) {
		case *sql.BinaryExpr:
			switch x.Op {
			case "AND":
				walk(x.Left)
				walk(x.Right)
			case "=":
				col, val := x.Left, x.Right
				if _, isConst := keyExprOf(val); !isConst {
					col, val = x.Right, x.Left
				}
				cr, ok := col.(*sql.ColumnRef)
				if !ok {
					return
				}
				ke, ok := keyExprOf(val)
				if !ok {
					return
				}
				pairs = append(pairs, eqPair{col: strings.ToLower(cr.Column), vals: []keyExpr{ke}})
			}
		case *sql.InExpr:
			if x.Not || x.Sub != nil || len(x.List) == 0 {
				return
			}
			cr, ok := x.Expr.(*sql.ColumnRef)
			if !ok {
				return
			}
			vals := make([]keyExpr, 0, len(x.List))
			for _, le := range x.List {
				ke, ok := keyExprOf(le)
				if !ok {
					return // a non-const member: the list is not derivable
				}
				vals = append(vals, ke)
			}
			pairs = append(pairs, eqPair{col: strings.ToLower(cr.Column), vals: vals})
		}
	}
	if where != nil {
		walk(where)
	}
	return pairs
}

// shardKeys derives the canonical key strings confining the statement
// under map m with the given parameters. ok=false means the statement
// is not confined to one derivable key set: reads fan out, writes are
// refused. table is reported even when ok=false (it distinguishes
// "unroutable table statement" from "no table at all").
func (p *stmtPlan) shardKeys(m *ShardMap, params []Value) (table string, keys []string, ok bool) {
	if p.table == "" || !p.derivable {
		return p.table, nil, false
	}
	keyCol := m.KeyColumn(p.table)
	if keyCol == "" {
		return p.table, nil, false
	}
	// UPDATE reassigning the key column: the row would change shards.
	for _, c := range p.setCols {
		if strings.EqualFold(c, keyCol) {
			return p.table, nil, false
		}
	}
	if p.insertVals != nil {
		pos := 0
		if p.insertCols != nil {
			pos = -1
			for i, c := range p.insertCols {
				if strings.EqualFold(c, keyCol) {
					pos = i
					break
				}
			}
		}
		if pos < 0 || pos >= len(p.insertVals) {
			return p.table, nil, false
		}
		key, kok := p.insertVals[pos].eval(params)
		if !kok {
			return p.table, nil, false
		}
		return p.table, []string{key}, true
	}
	for _, pr := range p.eqPairs {
		if !strings.EqualFold(pr.col, keyCol) {
			continue
		}
		out := make([]string, 0, len(pr.vals))
		for _, ke := range pr.vals {
			key, kok := ke.eval(params)
			if !kok {
				return p.table, nil, false
			}
			out = append(out, key)
		}
		return p.table, out, true
	}
	return p.table, nil, false
}

// singleShardOf maps keys under m, reporting the owning shard when
// every key agrees — the rule that makes IN (...) lists routable.
func singleShardOf(m *ShardMap, keys []string) (uint32, bool) {
	if len(keys) == 0 {
		return 0, false
	}
	sid := m.ShardOf(keys[0])
	for _, k := range keys[1:] {
		if m.ShardOf(k) != sid {
			return 0, false
		}
	}
	return sid, true
}
