package engine

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"time"

	"ifdb/internal/catalog"
	"ifdb/internal/exec"
	"ifdb/internal/index"
	"ifdb/internal/label"
	"ifdb/internal/sql"
	"ifdb/internal/storage"
	"ifdb/internal/types"
)

// Result is the outcome of one statement.
type Result struct {
	Cols      []string
	Rows      [][]types.Value
	RowLabels []label.Label // per-row labels (nil when IFC is off)
	Affected  int           // rows affected by DML
}

// qrow is an internal row with its label.
type qrow struct {
	vals []types.Value
	lbl  label.Label
	ilbl label.Label
	sort []types.Value // ORDER BY keys, attached during projection
}

// relation is an intermediate result.
type relation struct {
	schema exec.Schema
	rows   []qrow
}

// qctx carries per-query execution state.
type qctx struct {
	params []types.Value
	// strip is the set of tags declassified by enclosing declassifying
	// views (§4.3); tags covered by it are removed from tuple labels
	// before the confinement check.
	strip label.Label
}

// sessionFuncs adapts the session to exec.FuncResolver, providing the
// IFDB SQL-callable functions (§7.1) and stored procedures.
type sessionFuncs struct{ s *Session }

// CallFunc dispatches scalar function calls.
func (f sessionFuncs) CallFunc(name string, args []types.Value) (types.Value, error) {
	s := f.s
	eng := s.eng
	tagArg := func(i int) (label.Tag, error) {
		if i >= len(args) {
			return label.InvalidTag, fmt.Errorf("engine: %s: missing tag argument", name)
		}
		switch args[i].Kind() {
		case types.KindInt:
			return label.Tag(uint64(args[i].Int())), nil
		case types.KindText:
			t, ok := eng.LookupTag(args[i].Text())
			if !ok {
				return label.InvalidTag, fmt.Errorf("engine: unknown tag %q", args[i].Text())
			}
			return t, nil
		default:
			return label.InvalidTag, fmt.Errorf("engine: %s: tag argument must be id or name", name)
		}
	}
	switch name {
	case "addsecrecy":
		t, err := tagArg(0)
		if err != nil {
			return types.Null, err
		}
		if err := s.AddSecrecy(t); err != nil {
			return types.Null, err
		}
		return types.NewBool(true), nil
	case "declassify":
		t, err := tagArg(0)
		if err != nil {
			return types.Null, err
		}
		if err := s.Declassify(t); err != nil {
			return types.Null, err
		}
		return types.NewBool(true), nil
	case "getlabel":
		return types.NewLabel(s.Label()), nil
	case "getintegrity":
		return types.NewLabel(s.Integrity()), nil
	case "endorse":
		t, err := tagArg(0)
		if err != nil {
			return types.Null, err
		}
		if err := s.Endorse(t); err != nil {
			return types.Null, err
		}
		return types.NewBool(true), nil
	case "dropintegrity":
		t, err := tagArg(0)
		if err != nil {
			return types.Null, err
		}
		if err := s.DropIntegrity(t); err != nil {
			return types.Null, err
		}
		return types.NewBool(true), nil
	case "tag":
		t, err := tagArg(0)
		if err != nil {
			return types.Null, err
		}
		return types.NewInt(int64(uint64(t))), nil
	case "has_authority":
		t, err := tagArg(0)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool(s.HasAuthority(t)), nil
	case "current_principal":
		return types.NewInt(int64(uint64(s.principal))), nil
	case "now":
		return types.NewTime(nowFunc()), nil
	case "sleep":
		// sleep(ms) — pauses the statement, checking for cancellation.
		// Exists so context cancellation (client API v2) is testable
		// deterministically; read-only, so replicas may serve it.
		if len(args) != 1 || args[0].Kind() != types.KindInt || args[0].Int() < 0 {
			return types.Null, fmt.Errorf("engine: sleep(milliseconds)")
		}
		if err := s.cancelableSleep(time.Duration(args[0].Int()) * time.Millisecond); err != nil {
			return types.Null, err
		}
		return types.NewBool(true), nil
	case "nextval":
		if len(args) != 1 || args[0].Kind() != types.KindText {
			return types.Null, fmt.Errorf("engine: nextval('sequence_name')")
		}
		return s.nextval(args[0].Text())
	case "create_sequence":
		if len(args) != 1 || args[0].Kind() != types.KindText {
			return types.Null, fmt.Errorf("engine: create_sequence('name')")
		}
		if err := s.requireWritable(); err != nil {
			// A replica's sequences arrive through the stream; a local
			// registration would fork from the primary's.
			return types.Null, err
		}
		if err := eng.CreateSequence(args[0].Text()); err != nil {
			return types.Null, err
		}
		return types.NewBool(true), nil
	}
	if _, ok := eng.LookupProc(name); ok {
		return s.CallProc(name, args...)
	}
	return types.Null, fmt.Errorf("engine: unknown function %q", name)
}

// subqRunner adapts the session to exec.SubqueryRunner.
type subqRunner struct {
	s  *Session
	qc *qctx
}

// ScalarSubquery runs sub and returns its single value.
func (r subqRunner) ScalarSubquery(sub *sql.SelectStmt) (types.Value, error) {
	rel, err := r.s.executeSelect(sub, r.qc)
	if err != nil {
		return types.Null, err
	}
	if len(rel.rows) == 0 {
		return types.Null, nil
	}
	if len(rel.rows) > 1 {
		return types.Null, fmt.Errorf("engine: scalar subquery returned %d rows", len(rel.rows))
	}
	if len(rel.rows[0].vals) != 1 {
		return types.Null, fmt.Errorf("engine: scalar subquery must return one column")
	}
	return rel.rows[0].vals[0], nil
}

// InSubquery reports membership of v in sub's single-column result.
func (r subqRunner) InSubquery(sub *sql.SelectStmt, v types.Value) (bool, error) {
	rel, err := r.s.executeSelect(sub, r.qc)
	if err != nil {
		return false, err
	}
	for _, row := range rel.rows {
		if len(row.vals) != 1 {
			return false, fmt.Errorf("engine: IN subquery must return one column")
		}
		if v.Equal(row.vals[0]) {
			return true, nil
		}
	}
	return false, nil
}

// ExistsSubquery reports whether sub returns any rows.
func (r subqRunner) ExistsSubquery(sub *sql.SelectStmt) (bool, error) {
	rel, err := r.s.executeSelect(sub, r.qc)
	if err != nil {
		return false, err
	}
	return len(rel.rows) > 0, nil
}

func (s *Session) newEnv(schema exec.Schema, qc *qctx) *exec.Env {
	return &exec.Env{
		Schema: schema,
		Params: qc.params,
		Funcs:  sessionFuncs{s},
		Subq:   subqRunner{s, qc},
	}
}

// ---------------------------------------------------------------------------
// FROM sources

// sourceRelation materializes one FROM item (base table, view, or
// subquery), applying Query by Label at the base-table scans.
func (s *Session) sourceRelation(tr *sql.TableRef, filter sql.Expr, qc *qctx) (*relation, error) {
	if tr.Sub != nil {
		rel, err := s.executeSelect(tr.Sub, qc)
		if err != nil {
			return nil, err
		}
		return aliasRelation(rel, tr.Alias), nil
	}
	if t, ok := s.eng.cat.Table(tr.Name); ok {
		alias := tr.Alias
		if alias == "" {
			alias = tr.Name
		}
		return s.scanTable(t, alias, filter, qc)
	}
	if v, ok := s.eng.cat.View(tr.Name); ok {
		return s.viewRelation(v, tr, qc)
	}
	return nil, fmt.Errorf("engine: no table or view %q", tr.Name)
}

// viewRelation expands a view. Declassifying views extend the strip
// set with their bound tags, so base scans inside see (and return)
// tuples with those tags removed (§4.3).
func (s *Session) viewRelation(v *catalog.View, tr *sql.TableRef, qc *qctx) (*relation, error) {
	sub := *qc
	if v.IsDeclassifying() {
		sub.strip = qc.strip.Union(v.Declassify)
	}
	rel, err := s.executeSelect(v.Select, &sub)
	if err != nil {
		return nil, fmt.Errorf("engine: view %q: %w", v.Name, err)
	}
	if len(v.Columns) > 0 {
		if len(v.Columns) != len(rel.schema) {
			return nil, fmt.Errorf("engine: view %q declares %d columns but query yields %d", v.Name, len(v.Columns), len(rel.schema))
		}
		for i, n := range v.Columns {
			rel.schema[i].Name = strings.ToLower(n)
		}
	}
	alias := tr.Alias
	if alias == "" {
		alias = v.Name
	}
	return aliasRelation(rel, alias), nil
}

func aliasRelation(rel *relation, alias string) *relation {
	out := &relation{rows: rel.rows}
	out.schema = make(exec.Schema, len(rel.schema))
	for i, c := range rel.schema {
		out.schema[i] = exec.ColMeta{Table: alias, Name: c.Name}
	}
	return out
}

// scanTable reads the visible tuples of t, optionally narrowing with
// an index when the filter has equality predicates on an index prefix.
// This is where the Label Confinement Rule is applied: only tuples
// whose (strip-adjusted) label flows to the process label are
// surfaced (§4.2, §7.1).
func (s *Session) scanTable(t *catalog.Table, alias string, filter sql.Expr, qc *qctx) (*relation, error) {
	schema := make(exec.Schema, len(t.Columns))
	for i, c := range t.Columns {
		schema[i] = exec.ColMeta{Table: alias, Name: c.Name}
	}
	rel := &relation{schema: schema}

	eq, err := s.extractEqConsts(filter, schema, qc)
	if err != nil {
		return nil, err
	}
	tx := s.stmtTx

	// Visited tuples accumulate locally; one atomic add per scan keeps
	// the counter off the per-tuple hot path.
	var scanned int64
	accept := func(tid storage.TID, tv *storage.TupleVersion) {
		scanned++
		if !tx.Visible(tv.Xmin, tv.Xmax) {
			return
		}
		if !s.tupleVisible(tv, qc.strip) {
			return
		}
		rel.rows = append(rel.rows, qrow{
			vals: tv.Row,
			lbl:  s.effectiveTupleLabel(tv.Label, qc.strip),
			ilbl: tv.ILabel,
		})
	}

	// Cancellation check point: a scan is where a long statement
	// spends its time, so the cancel flag is polled per tuple (an
	// atomic load, noise next to visibility + label checks).
	var scanErr error
	if ix, n := t.BestIndexForCols(eqColSet(eq)); ix != nil && n > 0 {
		key := make([]types.Value, n)
		for i := 0; i < n; i++ {
			key[i] = eq[ix.Cols[i]]
		}
		ix.Tree.AscendPrefix(key, func(_ index.Key, tid storage.TID) bool {
			if scanErr = s.checkCanceled(); scanErr != nil {
				return false
			}
			if tv, ok := t.Heap.Get(tid); ok {
				accept(tid, &tv)
			}
			return true
		})
		mRowsScanned.Add(scanned)
		return rel, scanErr
	}

	err = t.Heap.Scan(func(tid storage.TID, tv *storage.TupleVersion) bool {
		if scanErr = s.checkCanceled(); scanErr != nil {
			return false
		}
		accept(tid, tv)
		return true
	})
	mRowsScanned.Add(scanned)
	if scanErr == nil {
		scanErr = err
	}
	return rel, scanErr
}

// extractEqConsts walks the AND-tree of filter collecting
// column-ordinal → constant bindings usable for index scans. Only
// literals and parameters count as constants (no side effects).
func (s *Session) extractEqConsts(filter sql.Expr, schema exec.Schema, qc *qctx) (map[int]types.Value, error) {
	out := make(map[int]types.Value)
	var walk func(e sql.Expr) error
	walk = func(e sql.Expr) error {
		b, ok := e.(*sql.BinaryExpr)
		if !ok {
			return nil
		}
		switch b.Op {
		case "AND":
			if err := walk(b.Left); err != nil {
				return err
			}
			return walk(b.Right)
		case "=":
			col, cexpr := b.Left, b.Right
			if !isConst(cexpr) {
				col, cexpr = b.Right, b.Left
			}
			cr, ok := col.(*sql.ColumnRef)
			if !ok || !isConst(cexpr) || cr.Column == "_label" {
				return nil
			}
			i, err := schema.Resolve(cr.Table, cr.Column)
			if err != nil {
				return nil // column from another table in a join filter
			}
			v, err := exec.Eval(cexpr, &exec.Env{Params: qc.params})
			if err != nil {
				return err
			}
			out[i] = v
		}
		return nil
	}
	if filter != nil {
		if err := walk(filter); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func isConst(e sql.Expr) bool {
	switch e.(type) {
	case *sql.Literal, *sql.Param:
		return true
	}
	return false
}

func eqColSet(eq map[int]types.Value) map[int]bool {
	out := make(map[int]bool, len(eq))
	for c := range eq {
		out[c] = true
	}
	return out
}

// ---------------------------------------------------------------------------
// Joins

// joinRelations combines left with one joined source. When the right
// side is a base table with an index covering the equi-join columns,
// an index nested-loop join probes it per left row; otherwise pure
// equi-joins use a hash join and anything else a nested loop.
func (s *Session) joinRelations(left *relation, jc *sql.JoinClause, qc *qctx) (*relation, error) {
	if rel, ok, err := s.indexJoin(left, jc, qc); err != nil {
		return nil, err
	} else if ok {
		return rel, nil
	}
	right, err := s.sourceRelation(&jc.Table, nil, qc)
	if err != nil {
		return nil, err
	}
	schema := append(append(exec.Schema{}, left.schema...), right.schema...)
	out := &relation{schema: schema}
	env := s.newEnv(schema, qc)

	nullsRight := make([]types.Value, len(right.schema))

	// Try hash join: collect conjuncts of the form <leftcol> = <rightcol>.
	leftKeys, rightKeys, pure := equiJoinKeys(jc.On, left.schema, right.schema)
	if pure && len(leftKeys) > 0 {
		ht := make(map[string][]int, len(right.rows))
		for ri, rr := range right.rows {
			k := hashKey(rr.vals, rightKeys, len(left.schema), false)
			ht[k] = append(ht[k], ri)
		}
		for _, lr := range left.rows {
			k := hashKey(lr.vals, leftKeys, 0, true)
			matched := false
			for _, ri := range ht[k] {
				rr := right.rows[ri]
				combined := append(append([]types.Value{}, lr.vals...), rr.vals...)
				env.Row = combined
				env.RowLabel = lr.lbl.Union(rr.lbl)
				env.RowILabel = lr.ilbl.Intersect(rr.ilbl)
				v, err := exec.Eval(jc.On, env)
				if err != nil {
					return nil, err
				}
				if v.Truthy() {
					matched = true
					out.rows = append(out.rows, qrow{vals: combined, lbl: env.RowLabel, ilbl: env.RowILabel})
				}
			}
			if !matched && jc.Kind == "LEFT" {
				combined := append(append([]types.Value{}, lr.vals...), nullsRight...)
				out.rows = append(out.rows, qrow{vals: combined, lbl: lr.lbl, ilbl: lr.ilbl})
			}
		}
		return out, nil
	}

	// Nested loop.
	for _, lr := range left.rows {
		matched := false
		for _, rr := range right.rows {
			combined := append(append([]types.Value{}, lr.vals...), rr.vals...)
			env.Row = combined
			env.RowLabel = lr.lbl.Union(rr.lbl)
			env.RowILabel = lr.ilbl.Intersect(rr.ilbl)
			v, err := exec.Eval(jc.On, env)
			if err != nil {
				return nil, err
			}
			if v.Truthy() {
				matched = true
				out.rows = append(out.rows, qrow{vals: combined, lbl: env.RowLabel, ilbl: env.RowILabel})
			}
		}
		if !matched && jc.Kind == "LEFT" {
			combined := append(append([]types.Value{}, lr.vals...), nullsRight...)
			out.rows = append(out.rows, qrow{vals: combined, lbl: lr.lbl, ilbl: lr.ilbl})
		}
	}
	return out, nil
}

// indexJoin attempts an index nested-loop join: the right side must be
// a base table whose index prefix covers the equi-join columns. Each
// left row probes the index; MVCC and label visibility apply at the
// probe exactly as in scans. Returns ok=false when the shape does not
// fit (view, subquery, no usable index, non-equi ON).
func (s *Session) indexJoin(left *relation, jc *sql.JoinClause, qc *qctx) (*relation, bool, error) {
	if jc.Table.Sub != nil {
		return nil, false, nil
	}
	t, isTable := s.eng.cat.Table(jc.Table.Name)
	if !isTable {
		return nil, false, nil
	}
	alias := jc.Table.Alias
	if alias == "" {
		alias = jc.Table.Name
	}
	rightSchema := make(exec.Schema, len(t.Columns))
	for i, c := range t.Columns {
		rightSchema[i] = exec.ColMeta{Table: alias, Name: c.Name}
	}
	lk, rk, pure := equiJoinKeys(jc.On, left.schema, rightSchema)
	if !pure || len(lk) == 0 {
		return nil, false, nil
	}
	// Find the index whose leading columns are all equi-join columns.
	rkPos := make(map[int]int, len(rk)) // right col ordinal -> position in rk/lk
	for i, c := range rk {
		rkPos[c] = i
	}
	var ix *catalog.Index
	prefix := 0
	for _, cand := range t.Indexes {
		n := 0
		for _, c := range cand.Cols {
			if _, ok := rkPos[c]; ok {
				n++
			} else {
				break
			}
		}
		if n > prefix {
			ix, prefix = cand, n
		}
	}
	if ix == nil {
		return nil, false, nil
	}

	schema := append(append(exec.Schema{}, left.schema...), rightSchema...)
	out := &relation{schema: schema}
	env := s.newEnv(schema, qc)
	nullsRight := make([]types.Value, len(rightSchema))
	tx := s.stmtTx

	for _, lr := range left.rows {
		key := make([]types.Value, prefix)
		for i := 0; i < prefix; i++ {
			key[i] = lr.vals[lk[rkPos[ix.Cols[i]]]]
		}
		matched := false
		var probeErr error
		ix.Tree.AscendPrefix(key, func(_ index.Key, tid storage.TID) bool {
			tv, ok := t.Heap.Get(tid)
			if !ok {
				return true
			}
			if !tx.Visible(tv.Xmin, tv.Xmax) || !s.tupleVisible(&tv, qc.strip) {
				return true
			}
			combined := append(append([]types.Value{}, lr.vals...), tv.Row...)
			env.Row = combined
			env.RowLabel = lr.lbl.Union(s.effectiveTupleLabel(tv.Label, qc.strip))
			env.RowILabel = lr.ilbl.Intersect(tv.ILabel)
			v, err := exec.Eval(jc.On, env)
			if err != nil {
				probeErr = err
				return false
			}
			if v.Truthy() {
				matched = true
				out.rows = append(out.rows, qrow{vals: combined, lbl: env.RowLabel, ilbl: env.RowILabel})
			}
			return true
		})
		if probeErr != nil {
			return nil, false, probeErr
		}
		if !matched && jc.Kind == "LEFT" {
			combined := append(append([]types.Value{}, lr.vals...), nullsRight...)
			out.rows = append(out.rows, qrow{vals: combined, lbl: lr.lbl, ilbl: lr.ilbl})
		}
	}
	return out, true, nil
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

func hashKey(vals []types.Value, cols []int, _ int, _ bool) string {
	var b strings.Builder
	for _, c := range cols {
		writeKey(&b, vals[c])
	}
	return b.String()
}

// writeKey appends one value to a tuple key: kind, length, string
// form. Length-prefixed, because a text value may contain any byte a
// terminator could be. Kept byte for byte the same as plan's.
func writeKey(b *strings.Builder, v types.Value) {
	s := v.String()
	var n [binary.MaxVarintLen64]byte
	b.WriteByte(byte(v.Kind()))
	b.Write(n[:binary.PutUvarint(n[:], uint64(len(s)))])
	b.WriteString(s)
}

// ---------------------------------------------------------------------------
// SELECT

// executeSelectLegacy runs a SELECT to a materialized relation with
// the original tree-walking executor. It is kept (behind
// Config.LegacyExec) as the oracle of the differential executor
// harness; see internal/plan for the streaming replacement.
func (s *Session) executeSelectLegacy(sel *sql.SelectStmt, qc *qctx) (*relation, error) {
	var input *relation
	if sel.From == nil {
		input = &relation{rows: []qrow{{}}}
	} else {
		var err error
		input, err = s.sourceRelation(sel.From, sel.Where, qc)
		if err != nil {
			return nil, err
		}
		for i := range sel.Joins {
			input, err = s.joinRelations(input, &sel.Joins[i], qc)
			if err != nil {
				return nil, err
			}
		}
	}

	env := s.newEnv(input.schema, qc)

	// WHERE
	if sel.Where != nil {
		kept := input.rows[:0:0]
		for _, r := range input.rows {
			env.Row, env.RowLabel, env.RowILabel = r.vals, r.lbl, r.ilbl
			v, err := exec.Eval(sel.Where, env)
			if err != nil {
				return nil, err
			}
			if v.Truthy() {
				kept = append(kept, r)
			}
		}
		input.rows = kept
	}

	// Expand stars and build output item list.
	items, err := expandStars(sel.Items, input.schema)
	if err != nil {
		return nil, err
	}

	aggregated := len(sel.GroupBy) > 0 || exec.HasAggregate(sel.Having)
	for _, it := range items {
		if exec.HasAggregate(it.Expr) {
			aggregated = true
		}
	}

	// Build ORDER BY expressions with alias substitution.
	orderExprs := make([]sql.Expr, len(sel.OrderBy))
	aliasMap := map[string]sql.Expr{}
	for _, it := range items {
		if it.Alias != "" {
			aliasMap[it.Alias] = it.Expr
		}
	}
	for i, ob := range sel.OrderBy {
		orderExprs[i] = substituteAliases(ob.Expr, aliasMap)
	}

	var out *relation
	if aggregated {
		out, err = s.aggregate(sel, items, orderExprs, input, env)
	} else {
		out, err = s.project(items, orderExprs, input, env)
	}
	if err != nil {
		return nil, err
	}

	// ORDER BY
	if len(sel.OrderBy) > 0 {
		descs := make([]bool, len(sel.OrderBy))
		for i, ob := range sel.OrderBy {
			descs[i] = ob.Desc
		}
		sort.SliceStable(out.rows, func(i, j int) bool {
			a, b := out.rows[i].sort, out.rows[j].sort
			for k := range a {
				c := a[k].Compare(b[k])
				if c != 0 {
					if descs[k] {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
	}

	// DISTINCT
	if sel.Distinct {
		seen := make(map[string]bool, len(out.rows))
		kept := out.rows[:0:0]
		for _, r := range out.rows {
			k := rowKey(r.vals)
			if !seen[k] {
				seen[k] = true
				kept = append(kept, r)
			}
		}
		out.rows = kept
	}

	// OFFSET / LIMIT
	if sel.Offset != nil {
		n, err := evalIntConst(sel.Offset, env)
		if err != nil {
			return nil, err
		}
		if n > int64(len(out.rows)) {
			n = int64(len(out.rows))
		}
		out.rows = out.rows[n:]
	}
	if sel.Limit != nil {
		n, err := evalIntConst(sel.Limit, env)
		if err != nil {
			return nil, err
		}
		if n < int64(len(out.rows)) {
			out.rows = out.rows[:n]
		}
	}
	return out, nil
}

func evalIntConst(e sql.Expr, env *exec.Env) (int64, error) {
	v, err := exec.Eval(e, env)
	if err != nil {
		return 0, err
	}
	if v.Kind() != types.KindInt || v.Int() < 0 {
		return 0, fmt.Errorf("engine: LIMIT/OFFSET must be a non-negative integer")
	}
	return v.Int(), nil
}

func rowKey(vals []types.Value) string {
	var b strings.Builder
	for _, v := range vals {
		writeKey(&b, v)
	}
	return b.String()
}

// expandStars turns * and t.* into explicit column items.
func expandStars(items []sql.SelectItem, schema exec.Schema) ([]sql.SelectItem, error) {
	var out []sql.SelectItem
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

// substituteAliases rewrites bare column references that name select
// aliases (for ORDER BY).
func substituteAliases(e sql.Expr, aliases map[string]sql.Expr) sql.Expr {
	cr, ok := e.(*sql.ColumnRef)
	if ok && cr.Table == "" {
		if sub, hit := aliases[cr.Column]; hit {
			return sub
		}
	}
	return e
}

// project evaluates non-aggregate select items per input row.
func (s *Session) project(items []sql.SelectItem, orderExprs []sql.Expr, input *relation, env *exec.Env) (*relation, error) {
	out := &relation{schema: outputSchema(items)}
	out.rows = make([]qrow, 0, len(input.rows))
	for _, r := range input.rows {
		env.Row, env.RowLabel, env.RowILabel = r.vals, r.lbl, r.ilbl
		vals := make([]types.Value, len(items))
		for i, it := range items {
			v, err := exec.Eval(it.Expr, env)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		var keys []types.Value
		if len(orderExprs) > 0 {
			keys = make([]types.Value, len(orderExprs))
			for i, oe := range orderExprs {
				v, err := exec.Eval(oe, env)
				if err != nil {
					return nil, err
				}
				keys[i] = v
			}
		}
		out.rows = append(out.rows, qrow{vals: vals, lbl: r.lbl, ilbl: r.ilbl, sort: keys})
	}
	return out, nil
}

func outputSchema(items []sql.SelectItem) exec.Schema {
	schema := make(exec.Schema, len(items))
	for i, it := range items {
		name := it.Alias
		if name == "" {
			if cr, ok := it.Expr.(*sql.ColumnRef); ok {
				name = cr.Column
			} else {
				name = fmt.Sprintf("column%d", i+1)
			}
		}
		schema[i] = exec.ColMeta{Name: name}
	}
	return schema
}
