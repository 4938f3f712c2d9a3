// Package distplan splits a keyless SELECT at the shard boundary into
// a per-shard fragment (scan + pushed predicates + projection +
// partial aggregation, rendered back to wire-executable SQL) and a
// gateway merge that finalizes the fragments' streams into the
// single-node answer. The gateway is a tree of internal/plan's own
// operators — ordered merge, aggregate, sort, DISTINCT, OFFSET, LIMIT
// — over leaves fed by the shards. What lives here is what is
// distributed: the split rule, fragment rendering, the algebra that
// composes partial aggregates (SUM of COUNTs, AVG = SUM ÷ COUNT), and
// the bounded fan-out feeds.
//
// The split never weakens the paper's label semantics (Query by Label,
// §7.1): each fragment executes on its shard under the session's full
// IFC machinery, so every row or partial aggregate a shard ships is
// already confined to the session label, and its reported secrecy
// label is the union of its inputs. The gateway only ever unions
// shard-reported labels — exactly what the single-node engine computes
// for the same group, because the shards partition the rows. A
// statement the gateway glue cannot reproduce exactly — declassify or
// any other engine-resident function, a subquery, a join, rep-row
// column references — is never split. Concatenating the shards'
// answers is still right when the statement has nothing to merge;
// when it has (ORDER BY, LIMIT, OFFSET, DISTINCT or aggregation),
// Analyze refuses it with an *ErrUnmergeable.
package distplan

import (
	"fmt"

	"ifdb/internal/exec"
	"ifdb/internal/plan"
	"ifdb/internal/sql"
	"ifdb/internal/types"
)

// Mode is the gateway merge strategy for a split statement.
type Mode int

const (
	// ModeOrdered streams the per-shard sorted fragments through
	// plan.MergeNode (also used, with zero sort keys, for plain
	// LIMIT/OFFSET/DISTINCT shipping).
	ModeOrdered Mode = iota + 1
	// ModePartialAgg ships per-shard partial aggregates and finalizes
	// at the gateway (SUM of COUNTs, AVG = SUM/COUNT recomposition).
	ModePartialAgg
	// ModeGatherAgg ships the matching rows (group keys + aggregate
	// arguments) and aggregates fully at the gateway. It is the
	// fallback for DISTINCT aggregates, where partials cannot compose,
	// and every aggregate's mode when pushdown is disabled, which is how
	// internal/suite's router-gather backend checks this path against
	// the single node's answers.
	ModeGatherAgg
)

func (m Mode) String() string {
	switch m {
	case ModeOrdered:
		return "ordered-merge"
	case ModePartialAgg:
		return "partial-agg"
	case ModeGatherAgg:
		return "gather-agg"
	}
	return "?"
}

// Options tunes the split.
type Options struct {
	// NoPartial disables partial-aggregate pushdown: aggregated
	// statements ship raw rows and aggregate at the gateway
	// (ModeGatherAgg). It exists for internal/suite's router-gather
	// backend, which runs every aggregate case through that mode.
	NoPartial bool
}

// ErrUnmergeable refuses a keyless read whose answer needs a merge at
// the gateway — a top-level ORDER BY, LIMIT, OFFSET, DISTINCT or
// aggregation — that the gateway cannot do exactly. Concatenating the
// shards' answers instead would be a wrong answer: a LIMIT n returns up
// to n rows a shard, in shard order, and a count(*) one count a shard.
type ErrUnmergeable struct {
	Reason string // the clause that needs the merge, and what blocks it
}

func (e *ErrUnmergeable) Error() string {
	return "distplan: the shards' answers need a merge the gateway cannot do: " + e.Reason
}

// aggSpec describes one aggregate call and its fragment column layout.
type aggSpec struct {
	call     *sql.FuncCall // original node; identity key for glue rewrite
	fn       string
	star     bool
	distinct bool
	// at is the aggregate's first fragment column. It occupies two
	// when a partial AVG ships sum+count, none for a gathered COUNT(*),
	// one otherwise.
	at int
}

// Spec is a split statement: the fragment text to run on every shard
// and the recipe for merging the fragment streams at the gateway.
type Spec struct {
	Table    string // lower-cased base table the fragment scans
	Fragment string // rendered per-shard SQL
	Mode     Mode

	// Ordered mode. Sort keys are either user output ordinals or
	// hidden trailing columns appended to the fragment projection.
	keyItems    []int // >=0: output ordinal; -1-h: hidden column h
	hidden      int   // number of hidden trailing sort columns
	desc        []bool
	distinct    bool
	pushedLimit bool // fragment carries LIMIT limit+offset

	// Aggregate modes: the inputs of the gateway's plan.AggregateNode
	// over the fragment's columns. Glue expressions reference group
	// values as __ifdb_g<k> columns and keep aggregate calls in place
	// (by identity, which is how newAcc finds a call's aggSpec).
	fragCols  exec.Schema // the fragment's projection
	groupBy   []sql.Expr  // __ifdb_g<k> references, one per GROUP BY key
	aggs      []aggSpec
	items     []sql.SelectItem // glue, aliased to the engine's output names
	having    sql.Expr
	orderGlue []sql.Expr
	orderDesc []bool

	// Applied at the gateway with the user's parameters.
	limit, offset sql.Expr
}

// gatewayFns are the scalar functions exec.Eval computes without an
// engine (callBuiltin): the only calls allowed in gateway glue.
var gatewayFns = map[string]bool{
	"lower": true, "upper": true, "length": true, "abs": true,
	"coalesce": true, "label_contains": true, "label_size": true,
}

// Split is Analyze without the refusal: the decomposition, or nil —
// all that benchmark/ and the tests that check a split's shape ask.
func Split(sqlText string, opts Options) *Spec {
	sp, _ := Analyze(sqlText, opts)
	return sp
}

// Analyze parses one statement and, when it is a splittable
// single-table SELECT, returns its shard/gateway decomposition. It
// returns nil and no error when concatenating the shards' answers is
// right: the statement is not one SELECT, has nothing to merge, or is
// one the engine rejects (its error to word). A SELECT that needs a
// merge the gateway cannot do is refused with an *ErrUnmergeable.
// Analyze re-parses the text so the returned Spec shares no AST nodes
// with any statement cache.
func Analyze(sqlText string, opts Options) (*Spec, error) {
	stmts, err := sql.ParseAll(sqlText)
	if err != nil || len(stmts) != 1 {
		return nil, nil
	}
	sel, ok := stmts[0].(*sql.SelectStmt)
	if !ok {
		return nil, nil
	}
	agg := aggregated(sel)
	var clause string
	switch {
	case agg:
		clause = "aggregation"
	case len(sel.OrderBy) > 0:
		clause = "ORDER BY"
	case sel.Limit != nil:
		clause = "LIMIT"
	case sel.Offset != nil:
		clause = "OFFSET"
	case sel.Distinct:
		clause = "DISTINCT"
	default:
		return nil, nil // plain fan-out concatenation is already correct
	}
	sp, why := splitSelect(sel, agg, opts)
	if sp == nil && why != "" {
		return nil, &ErrUnmergeable{Reason: clause + " with " + why}
	}
	return sp, nil
}

func aggregated(sel *sql.SelectStmt) bool {
	if len(sel.GroupBy) > 0 || exec.HasAggregate(sel.Having) {
		return true
	}
	for _, it := range sel.Items {
		if !it.Star && exec.HasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

// splitSelect, splitOrdered and splitAggregate return the split, or
// nil and what keeps the gateway from merging; nil and "" leave the
// statement to the shards, whose engine words its error.
func splitSelect(sel *sql.SelectStmt, agg bool, opts Options) (*Spec, string) {
	switch {
	case sel.ForUpdate:
		return nil, "FOR UPDATE"
	case sel.From == nil:
		return nil, "no FROM table"
	case sel.From.Sub != nil:
		return nil, "a FROM subquery"
	case len(sel.Joins) > 0:
		return nil, "a join"
	case unsafeToSplit(sel):
		return nil, "a subquery or an engine-resident function"
	case !gatewayConst(sel.Limit) || !gatewayConst(sel.Offset):
		return nil, "a LIMIT or OFFSET the gateway cannot evaluate"
	}
	for _, it := range sel.Items {
		if !it.Star && it.Expr == nil {
			return nil, ""
		}
	}
	if agg {
		return splitAggregate(sel, opts)
	}
	return splitOrdered(sel)
}

// splitOrdered handles non-aggregated SELECTs. The fragment is the
// statement itself (each shard sorts and, when safe, pre-truncates its
// own rows), possibly with hidden trailing sort-key columns so the
// gateway can run the ordered merge; the gateway re-applies DISTINCT,
// OFFSET, and LIMIT exactly.
func splitOrdered(sel *sql.SelectStmt) (*Spec, string) {
	// Map ORDER BY keys onto output ordinals where the engine's alias
	// rules guarantee the item carries the key's value: an explicit
	// alias match (last declaration wins, like the engine's alias
	// map), else a textual expression match. Star items shift the
	// fragment's ordinals unpredictably, so any star disables ordinal
	// mapping entirely.
	aliasOrd := map[string]int{}
	exprOrd := map[string]int{}
	hasStar := false
	for i, it := range sel.Items {
		if it.Star {
			hasStar = true
			continue
		}
		if it.Alias != "" {
			aliasOrd[it.Alias] = i
		}
		if txt, err := sql.FormatExpr(it.Expr); err == nil {
			if _, dup := exprOrd[txt]; !dup {
				exprOrd[txt] = i
			}
		}
	}

	sp := &Spec{
		Table:    sel.From.Name,
		Mode:     ModeOrdered,
		distinct: sel.Distinct,
		limit:    sel.Limit,
		offset:   sel.Offset,
	}
	frag := *sel // shallow copy; only Items/Limit/Offset/Distinct change
	var hiddenItems []sql.SelectItem
	for _, ob := range sel.OrderBy {
		if exec.HasAggregate(ob.Expr) {
			return nil, "" // ORDER BY count(*) without aggregation: let the engine reject it
		}
		sp.desc = append(sp.desc, ob.Desc)
		ord, err := plan.Position(ob.Expr, len(sel.Items), "ORDER BY")
		switch {
		case hasStar && (ord >= 0 || err != nil):
			return nil, "a positional key under * (only a shard can count to it)"
		case err != nil:
			return nil, "" // out of range is the engine's error to word
		}
		if ord < 0 && !hasStar {
			if cr, ok := ob.Expr.(*sql.ColumnRef); ok && cr.Table == "" {
				if i, ok := aliasOrd[cr.Column]; ok {
					ord = i
				}
			}
			if ord < 0 {
				if txt, err := sql.FormatExpr(ob.Expr); err == nil {
					if i, ok := exprOrd[txt]; ok {
						ord = i
					}
				}
			}
		}
		if ord >= 0 {
			sp.keyItems = append(sp.keyItems, ord)
			continue
		}
		if _, err := sql.FormatExpr(ob.Expr); err != nil {
			return nil, unrenderable
		}
		h := len(hiddenItems)
		hiddenItems = append(hiddenItems, sql.SelectItem{
			Expr:  ob.Expr,
			Alias: fmt.Sprintf("__ifdb_s%d", h),
		})
		sp.keyItems = append(sp.keyItems, -1-h)
	}
	sp.hidden = len(hiddenItems)
	if sp.hidden > 0 {
		frag.Items = append(append([]sql.SelectItem{}, sel.Items...), hiddenItems...)
		// With extra columns in the projection, a per-shard DISTINCT
		// would de-duplicate on the wrong tuple; the gateway dedupes
		// on the visible columns instead.
		frag.Distinct = false
	}

	// A shard only needs its own top limit+offset rows: every row of
	// the global top-K lies in some shard's local top-K. Requires
	// literal bounds (known at split time) and no DISTINCT (a local
	// pre-dedup cut could drop rows the global dedup needed).
	frag.Limit, frag.Offset = nil, nil
	if !frag.Distinct && sel.Limit != nil {
		if l, ok := intLiteral(sel.Limit); ok {
			o := int64(0)
			oOK := sel.Offset == nil
			if !oOK {
				o, oOK = intLiteral(sel.Offset)
			}
			if oOK && l >= 0 && o >= 0 {
				frag.Limit = &sql.Literal{Value: intValue(l + o)}
				sp.pushedLimit = true
			}
		}
	}

	text, err := sql.FormatSelect(&frag)
	if err != nil {
		return nil, unrenderable
	}
	sp.Fragment = text
	return sp, ""
}

const unrenderable = "an expression the fragment cannot render"

// splitAggregate handles aggregated SELECTs. The output items, HAVING,
// and ORDER BY must decompose into aggregate calls, GROUP BY
// expressions, and gateway-computable scalar glue; otherwise (rep-row
// column references, engine-resident functions such as declassify,
// stars) the statement is not split.
func splitAggregate(sel *sql.SelectStmt, opts Options) (*Spec, string) {
	for _, it := range sel.Items {
		if it.Star {
			return nil, "* (the engine's rep-row expansion)"
		}
	}

	// The engine resolves positions in GROUP BY and ORDER BY, and
	// substitutes output aliases into ORDER BY (last alias wins), before
	// collecting aggregates; mirror that.
	groupExprs := make([]sql.Expr, len(sel.GroupBy))
	for k, ge := range sel.GroupBy {
		ord, err := plan.Position(ge, len(sel.Items), "GROUP BY")
		if err != nil {
			return nil, "" // the engine's error to word
		}
		if ord >= 0 {
			ge = sel.Items[ord].Expr
		}
		groupExprs[k] = ge
	}
	aliasMap := map[string]sql.Expr{}
	for _, it := range sel.Items {
		if it.Alias != "" {
			aliasMap[it.Alias] = it.Expr
		}
	}
	orderExprs := make([]sql.Expr, len(sel.OrderBy))
	orderDesc := make([]bool, len(sel.OrderBy))
	for i, ob := range sel.OrderBy {
		e := ob.Expr
		if ord, err := plan.Position(e, len(sel.Items), "ORDER BY"); err != nil {
			return nil, ""
		} else if ord >= 0 {
			e = sel.Items[ord].Expr
		} else if cr, ok := e.(*sql.ColumnRef); ok && cr.Table == "" {
			if repl, ok := aliasMap[cr.Column]; ok {
				e = repl
			}
		}
		orderExprs[i] = e
		orderDesc[i] = ob.Desc
	}

	// Aggregate calls, by pointer identity, in engine collection order.
	var aggs []*sql.FuncCall
	seen := make(map[*sql.FuncCall]bool)
	for _, it := range sel.Items {
		exec.CollectAggs(it.Expr, &aggs, seen)
	}
	exec.CollectAggs(sel.Having, &aggs, seen)
	for _, oe := range orderExprs {
		exec.CollectAggs(oe, &aggs, seen)
	}

	mode := ModePartialAgg
	if opts.NoPartial {
		mode = ModeGatherAgg
	}
	specAggs := make([]aggSpec, len(aggs))
	for i, fc := range aggs {
		if !fc.Star {
			if len(fc.Args) != 1 {
				return nil, "" // engine rejects; keep its error text intact
			}
			if _, err := sql.FormatExpr(fc.Args[0]); err != nil {
				return nil, unrenderable
			}
		}
		if fc.Distinct {
			// DISTINCT partials cannot compose across shards: a value
			// may appear on several shards. Ship the argument values
			// and run the real accumulator at the gateway.
			mode = ModeGatherAgg
		}
		specAggs[i] = aggSpec{call: fc, fn: fc.Name, star: fc.Star, distinct: fc.Distinct}
	}

	// Group expressions by rendered text, for glue substitution.
	groupTxt := map[string]int{}
	for k, ge := range groupExprs {
		txt, err := sql.FormatExpr(ge)
		if err != nil {
			return nil, unrenderable
		}
		if _, dup := groupTxt[txt]; !dup {
			groupTxt[txt] = k
		}
	}

	ok := true
	items := make([]sql.SelectItem, len(sel.Items))
	for i, name := range plan.OutputSchema(sel.Items) {
		items[i] = sql.SelectItem{Expr: rewriteGlue(sel.Items[i].Expr, groupTxt, &ok), Alias: name.Name}
	}
	having := rewriteGlue(sel.Having, groupTxt, &ok)
	orderGlue := make([]sql.Expr, len(orderExprs))
	for i, oe := range orderExprs {
		orderGlue[i] = rewriteGlue(oe, groupTxt, &ok)
	}
	if !ok {
		return nil, "an output, HAVING or ORDER BY term the gateway cannot compute (a column outside GROUP BY, say)"
	}

	// Fragment projection: group columns first, then the aggregate
	// block. Partial mode pushes the aggregation (with AVG decomposed
	// into SUM + COUNT); gather mode ships the raw argument values and
	// leaves all folding to the gateway.
	var fragItems []sql.SelectItem
	groupBy := make([]sql.Expr, len(groupExprs))
	for k, ge := range groupExprs {
		name := fmt.Sprintf("__ifdb_g%d", k)
		fragItems = append(fragItems, sql.SelectItem{Expr: ge, Alias: name})
		groupBy[k] = &sql.ColumnRef{Column: name}
	}
	for i := range specAggs {
		a := &specAggs[i]
		a.at = len(fragItems)
		switch {
		case mode == ModePartialAgg && a.fn == "avg":
			fragItems = append(fragItems,
				sql.SelectItem{Expr: &sql.FuncCall{Name: "sum", Args: a.call.Args}, Alias: fmt.Sprintf("__ifdb_a%ds", i)},
				sql.SelectItem{Expr: &sql.FuncCall{Name: "count", Args: a.call.Args}, Alias: fmt.Sprintf("__ifdb_a%dc", i)})
		case mode == ModePartialAgg && a.fn == "count":
			fragItems = append(fragItems, sql.SelectItem{
				Expr:  &sql.FuncCall{Name: "count", Star: a.star, Args: a.call.Args},
				Alias: fmt.Sprintf("__ifdb_a%d", i)})
		case mode == ModePartialAgg:
			fragItems = append(fragItems, sql.SelectItem{
				Expr:  &sql.FuncCall{Name: a.fn, Args: a.call.Args},
				Alias: fmt.Sprintf("__ifdb_a%d", i)})
		case a.star:
			// gathered COUNT(*) just counts shipped rows
		default:
			fragItems = append(fragItems, sql.SelectItem{Expr: a.call.Args[0], Alias: fmt.Sprintf("__ifdb_a%d", i)})
		}
	}
	if len(fragItems) == 0 {
		// Pure COUNT(*) gather: ship one constant column per matching
		// row; each row still carries its shard-reported label.
		fragItems = append(fragItems, sql.SelectItem{Expr: &sql.Literal{Value: intValue(1)}, Alias: "__ifdb_one"})
	}

	frag := &sql.SelectStmt{Items: fragItems, From: sel.From, Where: sel.Where}
	if mode == ModePartialAgg {
		frag.GroupBy = groupExprs
	}
	text, err := sql.FormatSelect(frag)
	if err != nil {
		return nil, unrenderable
	}

	return &Spec{
		Table:     sel.From.Name,
		Fragment:  text,
		Mode:      mode,
		distinct:  sel.Distinct,
		fragCols:  plan.OutputSchema(fragItems),
		groupBy:   groupBy,
		aggs:      specAggs,
		items:     items,
		having:    having,
		orderGlue: orderGlue,
		orderDesc: orderDesc,
		limit:     sel.Limit,
		offset:    sel.Offset,
	}, ""
}

// rewriteGlue rebuilds a glue expression for gateway evaluation:
// aggregate calls stay in place (by identity), subtrees that render
// identically to a GROUP BY expression become __ifdb_g<k> column
// references, and everything else must be a literal, parameter, the
// _label system column, an operator, or a gateway-computable builtin.
// Any other leaf — in particular a bare column (rep-row semantics) or
// an engine-resident function such as declassify — clears *ok.
func rewriteGlue(e sql.Expr, groupTxt map[string]int, ok *bool) sql.Expr {
	if e == nil {
		return nil
	}
	if fc, isCall := e.(*sql.FuncCall); isCall && exec.IsAggregateName(fc.Name) {
		return e // finalized value substituted at merge time
	}
	if txt, err := sql.FormatExpr(e); err == nil {
		if k, isGroup := groupTxt[txt]; isGroup {
			return &sql.ColumnRef{Column: fmt.Sprintf("__ifdb_g%d", k)}
		}
	}
	switch x := e.(type) {
	case *sql.Literal, *sql.Param:
		return e
	case *sql.ColumnRef:
		if x.Table == "" && x.Column == "_label" {
			return e // evaluates against the merged group label
		}
		*ok = false
		return e
	case *sql.BinaryExpr:
		return &sql.BinaryExpr{Op: x.Op, Left: rewriteGlue(x.Left, groupTxt, ok), Right: rewriteGlue(x.Right, groupTxt, ok)}
	case *sql.UnaryExpr:
		return &sql.UnaryExpr{Op: x.Op, Expr: rewriteGlue(x.Expr, groupTxt, ok)}
	case *sql.IsNullExpr:
		return &sql.IsNullExpr{Expr: rewriteGlue(x.Expr, groupTxt, ok), Not: x.Not}
	case *sql.BetweenExpr:
		return &sql.BetweenExpr{Expr: rewriteGlue(x.Expr, groupTxt, ok), Lo: rewriteGlue(x.Lo, groupTxt, ok), Hi: rewriteGlue(x.Hi, groupTxt, ok), Not: x.Not}
	case *sql.InExpr:
		if x.Sub != nil {
			*ok = false
			return e
		}
		list := make([]sql.Expr, len(x.List))
		for i, it := range x.List {
			list[i] = rewriteGlue(it, groupTxt, ok)
		}
		return &sql.InExpr{Expr: rewriteGlue(x.Expr, groupTxt, ok), List: list, Not: x.Not}
	case *sql.FuncCall:
		if !gatewayFns[x.Name] {
			*ok = false
			return e
		}
		args := make([]sql.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = rewriteGlue(a, groupTxt, ok)
		}
		return &sql.FuncCall{Name: x.Name, Args: args}
	default:
		*ok = false
		return e
	}
}

// gatewayConst reports whether a LIMIT/OFFSET expression is
// evaluable at the gateway: parameters, literals, and pure operators
// over them. nil is fine (clause absent).
func gatewayConst(e sql.Expr) bool {
	if e == nil {
		return true
	}
	if exec.HasAggregate(e) {
		return false
	}
	ok := true
	constGlue(e, &ok)
	return ok
}

func constGlue(e sql.Expr, ok *bool) {
	switch x := e.(type) {
	case *sql.Literal, *sql.Param:
	case *sql.BinaryExpr:
		constGlue(x.Left, ok)
		constGlue(x.Right, ok)
	case *sql.UnaryExpr:
		constGlue(x.Expr, ok)
	default:
		*ok = false
	}
}

// unsafeToSplit walks every expression in the statement looking for
// constructs a split must not push into a fragment or reproduce at the
// gateway: subqueries, and any function that is neither an aggregate
// nor a gateway builtin — in particular declassify (whose authority
// checks and label stripping must run exactly once, in the session's
// engine) and now() (which would evaluate at a different instant on
// every shard).
func unsafeToSplit(sel *sql.SelectStmt) bool {
	found := false
	var walk func(e sql.Expr)
	walk = func(e sql.Expr) {
		switch x := e.(type) {
		case *sql.BinaryExpr:
			walk(x.Left)
			walk(x.Right)
		case *sql.UnaryExpr:
			walk(x.Expr)
		case *sql.IsNullExpr:
			walk(x.Expr)
		case *sql.BetweenExpr:
			walk(x.Expr)
			walk(x.Lo)
			walk(x.Hi)
		case *sql.InExpr:
			if x.Sub != nil {
				found = true
			}
			walk(x.Expr)
			for _, it := range x.List {
				walk(it)
			}
		case *sql.FuncCall:
			if !exec.IsAggregateName(x.Name) && !gatewayFns[x.Name] {
				found = true
			}
			for _, a := range x.Args {
				walk(a)
			}
		case *sql.ExistsExpr, *sql.SubqueryExpr:
			found = true
		}
	}
	for _, it := range sel.Items {
		walk(it.Expr)
	}
	walk(sel.Where)
	for _, ge := range sel.GroupBy {
		walk(ge)
	}
	walk(sel.Having)
	for _, ob := range sel.OrderBy {
		walk(ob.Expr)
	}
	walk(sel.Limit)
	walk(sel.Offset)
	return found
}

func intLiteral(e sql.Expr) (int64, bool) {
	if lit, ok := e.(*sql.Literal); ok && lit.Value.Kind() == types.KindInt {
		return lit.Value.Int(), true
	}
	return 0, false
}

func intValue(n int64) types.Value { return types.NewInt(n) }
