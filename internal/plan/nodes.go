package plan

import (
	"fmt"
	"strings"
	"sync"

	"ifdb/internal/catalog"
	"ifdb/internal/exec"
	"ifdb/internal/label"
	"ifdb/internal/sql"
	"ifdb/internal/types"
)

// EqConst is one "col = const" conjunct harvested from the WHERE
// clause for index selection, in AND-walk order. The constant side is
// a Literal or Param, evaluated once when the scan opens (the last
// conjunct on a column wins).
type EqConst struct {
	Col  int // ordinal in the table's full column list
	Expr sql.Expr
}

// ScanNode reads one base table: either a full heap scan resumable in
// batches, or an index prefix scan when analysis bound the leading
// columns of an index to constants (Eq) or an index join binds them to
// each left row's values (JoinNode.LeftKeys). Its rows are the heap's
// own, every column: an operator above copies what it keeps.
type ScanNode struct {
	Table *catalog.Table
	Alias string
	Strip label.Label // declassify strip in effect at this level

	// Filter is the WHERE expression index selection mines for
	// equality constants; it is not evaluated as a whole here.
	Filter sql.Expr

	// Analysis results.
	Eq     []EqConst      // "col = const" conjuncts from Filter
	Index  *catalog.Index // chosen index, nil for a heap scan
	Prefix int            // leading Index columns bound by Eq or the join
	Pushed []sql.Expr     // infallible conjuncts evaluated per tuple

	schema exec.Schema // the table's columns under Alias
}

func (n *ScanNode) Schema() exec.Schema { return n.schema }

// ValuesNode is the FROM-less source: exactly one empty row.
type ValuesNode struct{}

func (n *ValuesNode) Schema() exec.Schema { return nil }

// NodeTable is the read-only system table of the node serving the
// session: one unlabelled row (role, WAL epoch, the primary LSN a
// replica has applied through, its own WAL end, a replica's fatal
// stream error), which Runtime.Node supplies when the plan opens. It
// is resolved before any table or view of its name.
const NodeTable = "ifdb_node"

// NodeTableNode is the leaf that reads NodeTable.
type NodeTableNode struct{ schema exec.Schema }

func (n *NodeTableNode) Schema() exec.Schema { return n.schema }

// SourceNode is a leaf whose rows are produced outside the package:
// the Router's gateway (internal/distplan) feeds shard streams through
// it. It holds a live iterator, so a tree over it runs once. Cols is
// for operators above that resolve names; under those that resolve
// none (the ordered merge, whose header only shard 0 knows) it is nil.
// Name says where the rows come from, for EXPLAIN.
type SourceNode struct {
	Cols exec.Schema
	Rows Iter
	Name string
}

func (n *SourceNode) Schema() exec.Schema { return n.Cols }

// MergeNode merges children that each arrive ordered by their rows'
// Sort keys into one ordered stream. Equal keys go to the lower child,
// which also keeps every child's own order; with no keys the children
// are simply concatenated.
type MergeNode struct {
	Children []Node
	Desc     []bool
}

func (n *MergeNode) Schema() exec.Schema {
	if len(n.Children) == 0 {
		return nil
	}
	return n.Children[0].Schema()
}

// RenameNode re-tables its child's output under an alias. It covers
// both derived tables (FROM (SELECT ...) AS a) and views; for views it
// also applies the view's declared column names and wraps runtime
// errors in an "engine: view %q: %w" envelope, so the text names the
// view a failing body belongs to.
type RenameNode struct {
	Child    Node
	Alias    string
	ViewName string      // "" for a plain derived table
	Strip    label.Label // view strip (shown by EXPLAIN)

	schema exec.Schema
}

func (n *RenameNode) Schema() exec.Schema { return n.schema }

// FilterNode applies the residual WHERE conjuncts (those analysis did
// not push below the scan).
type FilterNode struct {
	Child Node
	Cond  sql.Expr
	Strip label.Label
}

func (n *FilterNode) Schema() exec.Schema { return n.Child.Schema() }

// Join strategies: how a join finds the right rows that may match a
// left row. The choice is static — it depends on the ON clause and the
// catalog, not on rows — so it is made once and recorded for EXPLAIN.
const (
	JoinLoop  = "loop"  // every right row, buffered
	JoinHash  = "hash"  // the left row's bucket of the buffered right rows, by equi-join key
	JoinIndex = "index" // the right table's scan, re-seeked to the left row's key
)

// JoinNode is the one join. It is a blocking operator: the left input is
// materialized first, then the right side is read — buffered (loop,
// hash) or, for an index join, its ScanNode re-seeked once per left row
// — and output follows left order then right order; a joined row's
// secrecy label is the union of its sides', its integrity label their
// intersection. (Streaming joins are future work.)
type JoinNode struct {
	Left  Node
	Right Node   // for JoinIndex, the right table's ScanNode in index mode
	Kind  string // "INNER" or "LEFT"
	On    sql.Expr
	// Strategy is JoinLoop, JoinHash or JoinIndex. LeftKeys are the
	// left ordinals of the equi-join keys (hash), or of the values that
	// bind the right scan's index prefix, in index-column order (index);
	// RightKeys are the right ordinals of the hash keys.
	Strategy  string
	LeftKeys  []int
	RightKeys []int
	Strip     label.Label

	schema exec.Schema
}

func (n *JoinNode) Schema() exec.Schema { return n.schema }

// ProjectNode evaluates the (star-expanded) select items and the
// alias-substituted ORDER BY keys for each input row.
type ProjectNode struct {
	Child      Node
	Items      []sql.SelectItem
	OrderExprs []sql.Expr
	Strip      label.Label

	schema exec.Schema

	// Set by compile when every item is a plain reference to a child
	// column and there is no ORDER BY key to compute: the projection is
	// then a copy by ordinal, and when it copies every child column in
	// order the child's rows pass through untouched.
	cols     []int
	identity bool
}

func (n *ProjectNode) Schema() exec.Schema { return n.schema }

// columnOrdinal resolves e to an ordinal of in when it is a plain
// reference to one of in's columns, and returns -1 for anything else: a
// pseudo-column, an expression, or a reference that does not resolve,
// which exec.Eval then reports on the first row, and never on an empty
// input.
func columnOrdinal(e sql.Expr, in exec.Schema) int {
	cr, ok := e.(*sql.ColumnRef)
	if !ok || cr.Column == "_label" || cr.Column == "_ilabel" {
		return -1
	}
	i, err := in.Resolve(cr.Table, cr.Column)
	if err != nil {
		return -1
	}
	return i
}

// compile resolves a projection of plain column references once, at
// plan time, instead of by name for every row. ORDER BY keys the
// projection computes leave it to exec.Eval: plain-column keys never
// reach it, since the sort then runs below it (level.assemble).
func (n *ProjectNode) compile() {
	if len(n.OrderExprs) > 0 {
		return
	}
	cols, identity := itemColumns(n.Items, n.Child.Schema())
	n.cols, n.identity = cols, identity
}

// itemColumns resolves items to ordinals of in when every one is a
// plain reference to one of in's columns, else returns nil; identity
// reports that they are in's columns, each once, in order.
func itemColumns(items []sql.SelectItem, in exec.Schema) (cols []int, identity bool) {
	cols = make([]int, len(items))
	identity = len(cols) == len(in)
	for i, item := range items {
		if cols[i] = columnOrdinal(item.Expr, in); cols[i] < 0 {
			return nil, false
		}
		identity = identity && cols[i] == i
	}
	return cols, identity
}

// Accumulator folds one aggregate call over the rows of one group.
// Add sees each input row as env.Row with its labels.
type Accumulator interface {
	Add(env *exec.Env) error
	Result() types.Value
}

// AggregateNode groups and folds its input. Blocking by nature. NewAcc
// says what folding a call means over this input: the engine reads the
// call's argument from each row (EvalAcc), the Router's gateway
// composes per-shard partial results. col is the child ordinal of the
// call's one argument when that is a plain column reference, else -1.
type AggregateNode struct {
	Child      Node
	Items      []sql.SelectItem
	GroupBy    []sql.Expr
	Having     sql.Expr
	OrderExprs []sql.Expr
	NewAcc     func(fc *sql.FuncCall, col int) Accumulator
	Strip      label.Label

	// Set by compile, once, when the node first opens: the aggregate
	// calls of Items, Having and OrderExprs in that order, and the child
	// ordinal of each plain-column GROUP BY key and aggregate argument
	// (-1 for the rest, which exec.Eval evaluates per row).
	compiled  sync.Once
	aggs      []*sql.FuncCall
	aggCols   []int
	groupCols []int
}

func (n *AggregateNode) Schema() exec.Schema { return OutputSchema(n.Items) }

// compile resolves the GROUP BY keys and aggregate arguments that are
// plain column references, following ProjectNode.compile: a key or
// argument is then read by ordinal instead of by name for every row.
func (n *AggregateNode) compile() {
	seen := make(map[*sql.FuncCall]bool)
	for _, item := range n.Items {
		exec.CollectAggs(item.Expr, &n.aggs, seen)
	}
	exec.CollectAggs(n.Having, &n.aggs, seen)
	for _, oe := range n.OrderExprs {
		exec.CollectAggs(oe, &n.aggs, seen)
	}
	in := n.Child.Schema()
	n.aggCols = make([]int, len(n.aggs))
	for i, fc := range n.aggs {
		n.aggCols[i] = -1
		if !fc.Star && len(fc.Args) == 1 {
			n.aggCols[i] = columnOrdinal(fc.Args[0], in)
		}
	}
	n.groupCols = make([]int, len(n.GroupBy))
	for i, ge := range n.GroupBy {
		n.groupCols[i] = columnOrdinal(ge, in)
	}
}

// SortNode orders its input: by the columns Keys names when it runs
// below a projection of plain columns, else by the Sort keys the
// projection or aggregate attached.
type SortNode struct {
	Child Node
	// Exprs are the alias-substituted ORDER BY expressions (for
	// EXPLAIN); Desc holds each key's direction.
	Exprs []sql.Expr
	Desc  []bool
	// Keys, when set, are the child ordinals of the ORDER BY columns.
	Keys []int
	// Limit, when set, bounds the sort: the operators above consume at
	// most Limit + Offset rows (Offset may be nil), so the sort keeps
	// only that many. Both are evaluated when the sort opens, the way
	// LimitNode and OffsetNode evaluate theirs. Set by Tail.Over.
	Limit  sql.Expr
	Offset sql.Expr
}

func (n *SortNode) Schema() exec.Schema { return n.Child.Schema() }

// DistinctNode drops rows whose full value tuple was already seen,
// keeping the first occurrence. It sits above the sort, so the first
// occurrence is the first in the statement's order.
type DistinctNode struct {
	Child Node
}

func (n *DistinctNode) Schema() exec.Schema { return n.Child.Schema() }

// OffsetNode skips the first N output rows.
type OffsetNode struct {
	Child Node
	Expr  sql.Expr
	Strip label.Label
}

func (n *OffsetNode) Schema() exec.Schema { return n.Child.Schema() }

// LimitNode truncates the output to N rows. When the subtree below is
// provably free of state-changing function calls, the iterator stops
// pulling as soon as the limit is reached; otherwise it drains its
// child completely: LIMIT slices the result, it does not cut short the
// side effects of producing it.
type LimitNode struct {
	Child Node
	Expr  sql.Expr
	Pure  bool
	Strip label.Label
}

func (n *LimitNode) Schema() exec.Schema { return n.Child.Schema() }

// Tail is what a SELECT level does with the rows its projection or
// aggregate produced: ORDER BY, DISTINCT, OFFSET and LIMIT, in that
// order. The engine's levels and the Router's gateway both end in one.
type Tail struct {
	// OrderExprs and Desc describe the sort; the rows below carry the
	// key values as Row.Sort. Empty when the rows need no sorting.
	OrderExprs []sql.Expr
	Desc       []bool
	Distinct   bool
	Offset     sql.Expr
	Limit      sql.Expr
	Pure       bool // LimitNode.Pure
	Strip      label.Label
}

// Over stacks sort ← distinct ← offset ← limit over child, leaving out
// what the level does not ask for.
func (t Tail) Over(child Node) Node {
	out := child
	if len(t.Desc) > 0 {
		out = t.sort(out, nil)
	}
	if t.Distinct {
		out = &DistinctNode{Child: out}
	}
	if t.Offset != nil {
		out = &OffsetNode{Child: out, Expr: t.Offset, Strip: t.Strip}
	}
	if t.Limit != nil {
		out = &LimitNode{Child: out, Expr: t.Limit, Pure: t.Pure, Strip: t.Strip}
	}
	return out
}

// sort is the tail's ORDER BY over child, by the columns keys names or,
// with keys nil, by the rows' Sort keys.
func (t Tail) sort(child Node, keys []int) *SortNode {
	s := &SortNode{Child: child, Exprs: t.OrderExprs, Desc: t.Desc, Keys: keys}
	// Under a LIMIT only the first limit + offset rows of the order reach
	// the output, so the sort need keep no more — unless a DISTINCT
	// stands between, which may drop any number of them. The sort
	// evaluates the bound a second time, so it takes only what evaluates
	// alike every time and changes nothing.
	if t.Limit != nil && !t.Distinct && isConst(t.Limit) && (t.Offset == nil || isConst(t.Offset)) {
		s.Limit, s.Offset = t.Limit, t.Offset
	}
	return s
}

// tableSchema builds the exec schema of a table under an alias.
func tableSchema(t *catalog.Table, alias string) exec.Schema {
	schema := make(exec.Schema, len(t.Columns))
	for i, c := range t.Columns {
		schema[i] = exec.ColMeta{Table: alias, Name: c.Name}
	}
	return schema
}

// OutputSchema names the columns a projection produces: explicit
// alias, else the bare column name, else a positional "columnN".
func OutputSchema(items []sql.SelectItem) exec.Schema {
	schema := make(exec.Schema, len(items))
	for i, it := range items {
		name := it.Alias
		if name == "" {
			if cr, ok := it.Expr.(*sql.ColumnRef); ok {
				name = cr.Column
			}
		}
		if name == "" {
			name = fmt.Sprintf("column%d", i+1)
		}
		schema[i] = exec.ColMeta{Name: name}
	}
	return schema
}

// expandStars replaces * and table.* items with explicit column
// references against schema.
func expandStars(items []sql.SelectItem, schema exec.Schema) ([]sql.SelectItem, error) {
	out := make([]sql.SelectItem, 0, len(items))
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		matched := false
		for _, c := range schema {
			if it.Table != "" && !strings.EqualFold(c.Table, it.Table) {
				continue
			}
			matched = true
			out = append(out, sql.SelectItem{
				Expr:  &sql.ColumnRef{Table: c.Table, Column: c.Name},
				Alias: c.Name,
			})
		}
		if !matched {
			return nil, fmt.Errorf("engine: %s.* matches no columns", it.Table)
		}
	}
	return out, nil
}

// substituteAliases rewrites bare column references that name a select
// item alias into that item's expression, so ORDER BY aliases work.
func substituteAliases(e sql.Expr, aliases map[string]sql.Expr) sql.Expr {
	if cr, ok := e.(*sql.ColumnRef); ok && cr.Table == "" {
		if repl, ok := aliases[cr.Column]; ok {
			return repl
		}
	}
	return e
}

// Position reads an ORDER BY or GROUP BY key that is a bare integer
// literal as SQL does — the select item at that position, 1-based,
// stars expanded — and returns the item's index, or -1 for any other
// key. Out of range is an error naming the clause and the position.
func Position(key sql.Expr, items int, clause string) (int, error) {
	lit, ok := key.(*sql.Literal)
	if !ok || lit.Value.Kind() != types.KindInt {
		return -1, nil
	}
	n := lit.Value.Int()
	if n < 1 || n > int64(items) {
		return -1, fmt.Errorf("engine: %s position %d is not in the select list", clause, n)
	}
	return int(n - 1), nil
}
