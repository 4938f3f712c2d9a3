package plan

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"ifdb/internal/catalog"
	"ifdb/internal/exec"
	"ifdb/internal/label"
	"ifdb/internal/sql"
)

// Build compiles sel into an analyzed, executable Plan against cat.
// strip is the declassification context in effect (non-empty only when
// building the body of a declassifying view). The AST is treated as
// read-only, so a plan may be cached and shared across sessions.
//
// Errors in the statement's shape (no such table, view column
// mismatch, star matching nothing, a position outside the select list)
// surface here, before any row is read.
func Build(cat *catalog.Catalog, sel *sql.SelectStmt, strip label.Label) (*Plan, error) {
	root, err := buildSelect(cat, sel, strip)
	if err != nil {
		return nil, err
	}
	schema := root.Schema()
	cols := make([]string, len(schema))
	for i, c := range schema {
		cols[i] = c.Name
	}
	return &Plan{Root: root, cols: cols, blocking: hasBlocking(root), stored: sendsStored(root)}, nil
}

// buildSelect compiles one SELECT level: sources and joins first, then
// the ordered analysis rules, then the projection pipeline on top.
func buildSelect(cat *catalog.Catalog, sel *sql.SelectStmt, strip label.Label) (Node, error) {
	lv := &level{cat: cat, sel: sel, strip: strip}
	if sel.From != nil {
		if err := lv.addSource(sel.From, sel.Where, nil); err != nil {
			return nil, err
		}
		for i := range sel.Joins {
			if err := lv.addJoinSource(&sel.Joins[i]); err != nil {
				return nil, err
			}
		}
	}
	if err := lv.prepareExprs(); err != nil {
		return nil, err
	}
	for _, r := range rules {
		if err := r.apply(lv); err != nil {
			return nil, err
		}
	}
	return lv.assemble()
}

// level is the per-SELECT working state shared by the builder and the
// analysis rules.
type level struct {
	cat   *catalog.Catalog
	sel   *sql.SelectStmt
	strip label.Label

	// sources[0] is the FROM item; sources[1+i] belongs to Joins[i].
	sources []*source
	// full is the concatenated schema of all sources — the scope column
	// references resolve in, and the schema of the joined rows.
	full exec.Schema

	items      []sql.SelectItem // star-expanded select items
	aggregated bool
	groupBy    []sql.Expr // GROUP BY with positions resolved
	orderExprs []sql.Expr // ORDER BY with positions resolved and output aliases substituted

	residual sql.Expr // WHERE conjuncts not pushed into the FROM scan
}

// source is one FROM/JOIN input in level order.
type source struct {
	jc *sql.JoinClause // nil for the FROM source

	scan *ScanNode // base-table source
	node Node      // view or derived-table subtree (already wrapped)

	// How a joined source is joined to the sources before it: the
	// strategy and JoinNode's key ordinals.
	strategy            string
	leftKeys, rightKeys []int

	schema exec.Schema // contribution to level.full
}

func (lv *level) addSource(tr *sql.TableRef, filter sql.Expr, jc *sql.JoinClause) error {
	src, err := lv.buildTableRef(tr, filter)
	if err != nil {
		return err
	}
	src.jc = jc
	lv.sources = append(lv.sources, src)
	lv.full = append(lv.full, src.schema...)
	return nil
}

// addJoinSource adds one joined source and picks its join strategy
// against the level schema accumulated so far — the join's left side —
// the cheapest that fits: index probe, then hash for pure equi-joins,
// then nested loop. The decision needs nothing a row could tell it, so
// it is made once.
func (lv *level) addJoinSource(jc *sql.JoinClause) error {
	left := lv.full
	if err := lv.addSource(&jc.Table, nil, jc); err != nil {
		return err
	}
	src := lv.sources[len(lv.sources)-1]
	lk, rk, pure := equiJoinKeys(jc.On, left, src.schema)
	if !pure || len(lk) == 0 {
		src.strategy = JoinLoop
	} else if probe := indexJoinProbe(src.scan, lk, rk); probe != nil {
		src.strategy, src.leftKeys = JoinIndex, probe
	} else {
		src.strategy, src.leftKeys, src.rightKeys = JoinHash, lk, rk
	}
	return nil
}

// buildTableRef compiles one table reference: derived table, NodeTable,
// base table, or view, in that order — a table shadows a view.
func (lv *level) buildTableRef(tr *sql.TableRef, filter sql.Expr) (*source, error) {
	if tr.Sub != nil {
		child, err := buildSelect(lv.cat, tr.Sub, lv.strip)
		if err != nil {
			return nil, err
		}
		rn := &RenameNode{Child: child, Alias: tr.Alias}
		rn.schema = aliasSchema(child.Schema(), tr.Alias)
		return &source{node: rn, schema: rn.schema}, nil
	}
	if tr.Name == NodeTable {
		n := &NodeTableNode{}
		for _, c := range []string{"role", "epoch", "applied_lsn", "wal_end", "stream_err"} {
			n.schema = append(n.schema, exec.ColMeta{Table: cmp.Or(tr.Alias, NodeTable), Name: c})
		}
		return &source{node: n, schema: n.schema}, nil
	}
	if t, ok := lv.cat.Table(tr.Name); ok {
		alias := tr.Alias
		if alias == "" {
			alias = tr.Name
		}
		scan := &ScanNode{Table: t, Alias: alias, Strip: lv.strip, Filter: filter, schema: tableSchema(t, alias)}
		return &source{scan: scan, schema: scan.schema}, nil
	}
	if v, ok := lv.cat.View(tr.Name); ok {
		return lv.buildView(v, tr)
	}
	return nil, fmt.Errorf("engine: no table or view %q", tr.Name)
}

// buildView compiles a view body. Declassifying views extend the strip
// set with their bound tags, so base scans inside see (and return)
// tuples with those tags removed (§4.3). Build errors inside the body
// carry the same "engine: view ..." envelope runtime errors do.
func (lv *level) buildView(v *catalog.View, tr *sql.TableRef) (*source, error) {
	sub := lv.strip
	if v.IsDeclassifying() {
		sub = lv.strip.Union(v.Declassify)
	}
	child, err := buildSelect(lv.cat, v.Select, sub)
	if err != nil {
		return nil, fmt.Errorf("engine: view %q: %w", v.Name, err)
	}
	cs := child.Schema()
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name
	}
	if len(v.Columns) > 0 {
		if len(v.Columns) != len(cs) {
			return nil, fmt.Errorf("engine: view %q declares %d columns but query yields %d", v.Name, len(v.Columns), len(cs))
		}
		for i, n := range v.Columns {
			names[i] = strings.ToLower(n)
		}
	}
	alias := tr.Alias
	if alias == "" {
		alias = v.Name
	}
	rn := &RenameNode{Child: child, Alias: alias, ViewName: v.Name, Strip: v.Declassify}
	rn.schema = make(exec.Schema, len(cs))
	for i, n := range names {
		rn.schema[i] = exec.ColMeta{Table: alias, Name: n}
	}
	return &source{node: rn, schema: rn.schema}, nil
}

func aliasSchema(s exec.Schema, alias string) exec.Schema {
	out := make(exec.Schema, len(s))
	for i, c := range s {
		out[i] = exec.ColMeta{Table: alias, Name: c.Name}
	}
	return out
}

// prepareExprs expands stars, detects aggregation, resolves positions
// in GROUP BY and ORDER BY, and substitutes output aliases into ORDER
// BY, all against the full level schema.
func (lv *level) prepareExprs() error {
	items, err := expandStars(lv.sel.Items, lv.full)
	if err != nil {
		return err
	}
	lv.items = items

	lv.aggregated = len(lv.sel.GroupBy) > 0 || exec.HasAggregate(lv.sel.Having)
	for _, it := range items {
		if exec.HasAggregate(it.Expr) {
			lv.aggregated = true
		}
	}

	aliasMap := map[string]sql.Expr{}
	for _, it := range items {
		if it.Alias != "" {
			aliasMap[it.Alias] = it.Expr
		}
	}
	lv.groupBy = make([]sql.Expr, len(lv.sel.GroupBy))
	for i, ge := range lv.sel.GroupBy {
		ord, err := Position(ge, len(items), "GROUP BY")
		if err != nil {
			return err
		}
		if ord >= 0 {
			ge = items[ord].Expr
		}
		lv.groupBy[i] = ge
	}
	lv.orderExprs = make([]sql.Expr, len(lv.sel.OrderBy))
	for i, ob := range lv.sel.OrderBy {
		ord, err := Position(ob.Expr, len(items), "ORDER BY")
		if err != nil {
			return err
		}
		if ord >= 0 {
			lv.orderExprs[i] = items[ord].Expr
		} else {
			lv.orderExprs[i] = substituteAliases(ob.Expr, aliasMap)
		}
	}
	return nil
}

// assemble wires the analyzed level into its operator pipeline, in
// SQL's stage order: sources+joins → residual filter →
// aggregate/project → Tail (sort → distinct → offset → limit). A sort
// by plain columns under a projection of plain columns runs first.
func (lv *level) assemble() (Node, error) {
	var input Node
	if lv.sel.From == nil {
		input = &ValuesNode{}
	} else {
		input = lv.sources[0].finalNode()
		for _, src := range lv.sources[1:] {
			input = lv.buildJoinNode(input, src)
		}
	}
	if lv.residual != nil {
		input = &FilterNode{Child: input, Cond: lv.residual, Strip: lv.strip}
	}

	tail := Tail{
		OrderExprs: lv.orderExprs, Desc: make([]bool, len(lv.sel.OrderBy)),
		Distinct: lv.sel.Distinct, Offset: lv.sel.Offset, Limit: lv.sel.Limit,
		Strip: lv.strip,
	}
	for i, ob := range lv.sel.OrderBy {
		tail.Desc[i] = ob.Desc
	}
	if tail.Limit != nil {
		tail.Pure = selectPure(lv.cat, lv.sel, nil)
	}

	var out Node
	if lv.aggregated {
		out = &AggregateNode{
			Child: input, Items: lv.items,
			GroupBy: lv.groupBy, Having: lv.sel.Having,
			OrderExprs: lv.orderExprs, NewAcc: EvalAcc, Strip: lv.strip,
		}
	} else {
		p := &ProjectNode{Child: input, Items: lv.items, OrderExprs: lv.orderExprs, Strip: lv.strip}
		p.schema = OutputSchema(lv.items)
		if keys := sortColumns(lv.items, lv.orderExprs, input.Schema()); keys != nil {
			// A projection of plain columns can neither fail nor change
			// state, so the sort may run before it, on the child's rows by
			// ordinal: the projection then copies only the rows the sort
			// emits — under a bound, no more than limit + offset.
			p.Child, p.OrderExprs = tail.sort(input, keys), nil
			tail.OrderExprs, tail.Desc = nil, nil
		}
		p.compile()
		out = p
	}
	return tail.Over(out), nil
}

// sortColumns returns the ordinals in in of the ORDER BY keys when
// there are some and they and every item are plain column references,
// else nil.
func sortColumns(items []sql.SelectItem, keys []sql.Expr, in exec.Schema) []int {
	if len(keys) == 0 {
		return nil
	}
	if cols, _ := itemColumns(items, in); cols == nil {
		return nil
	}
	ords := make([]int, len(keys))
	for i, k := range keys {
		if ords[i] = columnOrdinal(k, in); ords[i] < 0 {
			return nil
		}
	}
	return ords
}

// finalNode is a source's operator.
func (src *source) finalNode() Node {
	if src.scan != nil {
		return src.scan
	}
	return src.node
}

// buildJoinNode attaches one joined source to the pipeline built so
// far, by the strategy addJoinSource chose.
func (lv *level) buildJoinNode(left Node, src *source) Node {
	right := src.finalNode()
	return &JoinNode{
		Left: left, Right: right, Kind: src.jc.Kind, On: src.jc.On,
		Strategy: src.strategy, LeftKeys: src.leftKeys, RightKeys: src.rightKeys,
		Strip:  lv.strip,
		schema: append(append(exec.Schema{}, left.Schema()...), right.Schema()...),
	}
}

// indexJoinProbe makes scan, a joined base table (nil for any other
// source), an index probe when some index's leading columns are all
// among the right equi-join keys rk. It sets the scan's index and bound
// prefix and returns, for each prefix column, the left ordinal of lk
// that binds it; nil when no index fits.
func indexJoinProbe(scan *ScanNode, lk, rk []int) []int {
	if scan == nil {
		return nil
	}
	cols := make(map[int]bool, len(rk))
	for _, c := range rk {
		cols[c] = true
	}
	ix, prefix := scan.Table.BestIndexForCols(cols)
	if ix == nil {
		return nil
	}
	probe := make([]int, prefix)
	for i, c := range ix.Cols[:prefix] {
		probe[i] = lk[slices.Index(rk, c)]
	}
	scan.Index, scan.Prefix = ix, prefix
	return probe
}

// equiJoinKeys decomposes an ON clause into column-ordinal pairs when
// it is a pure conjunction of cross-side column equalities.
func equiJoinKeys(on sql.Expr, left, right exec.Schema) (lk, rk []int, pure bool) {
	var walk func(e sql.Expr) bool
	walk = func(e sql.Expr) bool {
		b, ok := e.(*sql.BinaryExpr)
		if !ok {
			return false
		}
		switch b.Op {
		case "AND":
			return walk(b.Left) && walk(b.Right)
		case "=":
			lc, lok := b.Left.(*sql.ColumnRef)
			rc, rok := b.Right.(*sql.ColumnRef)
			if !lok || !rok || lc.Column == "_label" || rc.Column == "_label" {
				return false
			}
			li, lerr := left.Resolve(lc.Table, lc.Column)
			ri, rerr := right.Resolve(rc.Table, rc.Column)
			if lerr == nil && rerr == nil {
				lk = append(lk, li)
				rk = append(rk, ri)
				return true
			}
			// Maybe written the other way around.
			li2, lerr2 := left.Resolve(rc.Table, rc.Column)
			ri2, rerr2 := right.Resolve(lc.Table, lc.Column)
			if lerr2 == nil && rerr2 == nil {
				lk = append(lk, li2)
				rk = append(rk, ri2)
				return true
			}
			return false
		default:
			return false
		}
	}
	if on == nil {
		return nil, nil, false
	}
	ok := walk(on)
	return lk, rk, ok
}

// selectPure reports whether executing sel calls only functions that
// change nothing — exec.Aggregate, exec.Builtin and exec.EnginePure
// kinds — looking through subqueries, derived tables, and view bodies.
// LIMIT may stop pulling early only then: it slices a result, it does
// not decide how much of the statement runs, so state-changing calls
// (nextval, addsecrecy, a stored procedure, ...) keep running for every
// row even past the limit. seen guards against view cycles.
func selectPure(cat *catalog.Catalog, sel *sql.SelectStmt, seen map[string]bool) bool {
	pure := true
	var checkSel func(s *sql.SelectStmt)
	checkExpr := func(e sql.Expr) {
		sql.Inspect(e, func(e sql.Expr) bool {
			switch x := e.(type) {
			case *sql.FuncCall:
				switch exec.FuncKindOf(x.Name) {
				case exec.Aggregate, exec.Builtin, exec.EnginePure:
				default:
					pure = false
				}
			case *sql.InExpr:
				checkSel(x.Sub)
			case *sql.ExistsExpr:
				checkSel(x.Sub)
			case *sql.SubqueryExpr:
				checkSel(x.Sub)
			}
			return pure
		})
	}
	checkRef := func(tr *sql.TableRef) {
		if tr.Sub != nil {
			checkSel(tr.Sub)
			return
		}
		if _, ok := cat.Table(tr.Name); ok {
			return
		}
		if v, ok := cat.View(tr.Name); ok {
			if seen == nil {
				seen = map[string]bool{}
			}
			if !seen[v.Name] {
				seen[v.Name] = true
				checkSel(v.Select)
			}
		}
	}
	checkSel = func(s *sql.SelectStmt) {
		if s == nil || !pure {
			return
		}
		for _, it := range s.Items {
			checkExpr(it.Expr)
		}
		if s.From != nil {
			checkRef(s.From)
		}
		for i := range s.Joins {
			checkRef(&s.Joins[i].Table)
			checkExpr(s.Joins[i].On)
		}
		checkExpr(s.Where)
		for _, e := range s.GroupBy {
			checkExpr(e)
		}
		checkExpr(s.Having)
		for _, ob := range s.OrderBy {
			checkExpr(ob.Expr)
		}
		checkExpr(s.Limit)
		checkExpr(s.Offset)
	}
	checkSel(sel)
	return pure
}

// hasBlocking reports whether any operator under n materializes its
// input.
func hasBlocking(n Node) bool {
	switch x := n.(type) {
	case *ScanNode, *ValuesNode, *NodeTableNode:
		return false
	case *RenameNode:
		return hasBlocking(x.Child)
	case *FilterNode:
		return hasBlocking(x.Child)
	case *ProjectNode:
		return hasBlocking(x.Child)
	case *OffsetNode:
		return hasBlocking(x.Child)
	case *LimitNode:
		return hasBlocking(x.Child)
	default:
		// joins, aggregate, sort, distinct
		return true
	}
}

// sendsStored reports whether n's rows are a heap scan's of a table on
// disk, passed up unchanged: under identity projections and renames
// (whose iterators are the scan's own or a viewIter over it) and
// nothing else, so that the table's stored row bytes are exactly the
// result's rows.
func sendsStored(n Node) bool {
	switch x := n.(type) {
	case *ProjectNode:
		return x.identity && sendsStored(x.Child)
	case *RenameNode:
		return sendsStored(x.Child)
	case *ScanNode:
		return x.Index == nil && x.Table.OnDisk
	default:
		return false
	}
}
