package plan

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"ifdb/internal/exec"
	"ifdb/internal/index"
	"ifdb/internal/sql"
	"ifdb/internal/storage"
	"ifdb/internal/types"
)

// scanBatch is how many tuples a scan visits per refill. The heap (or
// index) position is released between batches, so a million-row scan
// never pins a lock or buffers more than one batch.
const scanBatch = 1024

// drainIter pulls it to exhaustion. Row structs are copied out of the
// iterator's internal buffer, so the result is stable.
func drainIter(it Iter) ([]Row, error) {
	var out []Row
	for {
		r, err := it.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			return out, nil
		}
		out = append(out, *r)
	}
}

// ---------------------------------------------------------------------------
// Values (FROM-less SELECT)

type valuesIter struct{ done bool }

func (n *ValuesNode) open(rt *Runtime) (Iter, error) { return &valuesIter{}, nil }

func (it *valuesIter) Next() (*Row, error) {
	if it.done {
		return nil, nil
	}
	it.done = true
	return &Row{}, nil
}

func (it *valuesIter) Close() {}

func (n *SourceNode) open(rt *Runtime) (Iter, error) { return n.Rows, nil }

// ---------------------------------------------------------------------------
// Scan

type scanIter struct {
	n   *ScanNode
	rt  *Runtime
	env *exec.Env // pushed-predicate env over the full table schema

	key []types.Value // index probe prefix (index mode)

	// vis is handed to the heap, which applies it before decoding a
	// row; st is what the scan keeps between refills and reports.
	vis storage.Visibility
	st  storage.ScanState
	out types.Arena // pruned rows

	buf []Row
	pos int

	next storage.TID // heap mode resume position

	lastKey index.Key // index mode resume position
	lastTID storage.TID

	done     bool
	err      error
	reported bool
}

func (n *ScanNode) open(rt *Runtime) (Iter, error) {
	it := &scanIter{n: n, rt: rt, env: rt.env(n.fullSchema, n.Strip)}
	it.vis = rt.visibility(n.Strip, &it.st)
	if len(n.Eq) > 0 {
		// Bind the filter's constants. Evaluation (and its errors —
		// e.g. a missing parameter) happens here, before any tuple is
		// visited, exactly where the legacy scan evaluated them.
		eq := make(map[int]types.Value, len(n.Eq))
		for _, e := range n.Eq {
			v, err := exec.Eval(e.Expr, &exec.Env{Params: rt.Params})
			if err != nil {
				return nil, err
			}
			eq[e.Col] = v
		}
		if n.Index != nil {
			it.key = make([]types.Value, n.Prefix)
			for i := 0; i < n.Prefix; i++ {
				it.key[i] = eq[n.Index.Cols[i]]
			}
		}
	}
	return it, nil
}

// accept buffers a tuple the heap's visibility filter admitted: by
// then MVCC visibility and the Label Confinement Rule have passed, in
// that order, and only now do pushed predicates run — a pushed
// predicate can never touch a tuple the process label does not cover.
// Accepted rows are pruned to the scan's output columns.
func (it *scanIter) accept(tv *storage.TupleVersion) error {
	lbl := it.rt.EffLabel(tv.Label, it.n.Strip)
	if len(it.n.Pushed) > 0 {
		it.env.Row = tv.Row
		it.env.RowLabel = lbl
		it.env.RowILabel = tv.ILabel
		for _, p := range it.n.Pushed {
			v, err := exec.Eval(p, it.env)
			if err != nil {
				return err
			}
			if !v.Truthy() {
				return nil
			}
		}
	}
	vals := tv.Row
	if it.n.Out != nil {
		vals = it.out.Take(len(it.n.Out))
		for i, c := range it.n.Out {
			vals[i] = tv.Row[c]
		}
	}
	it.buf = append(it.buf, Row{Vals: vals, Lbl: lbl, ILbl: tv.ILabel})
	return nil
}

// refillHeap pulls one batch through the heap's filtered scan.
// Cancellation is polled per batch and per admitted tuple: a scan the
// label hides entirely still stops within one batch.
func (it *scanIter) refillHeap() error {
	cbErr := it.rt.check()
	if cbErr != nil {
		return cbErr
	}
	next, more, err := it.n.Table.Heap.ScanFrom(it.next, scanBatch, it.vis, func(tid storage.TID, tv *storage.TupleVersion) bool {
		if cbErr = it.rt.check(); cbErr == nil {
			cbErr = it.accept(tv)
		}
		return cbErr == nil
	})
	it.next = next
	if cbErr != nil {
		return cbErr
	}
	it.done = !more
	return err
}

func (it *scanIter) refillIndex() error {
	var cbErr error
	lastKey, lastTID, more := it.n.Index.Tree.AscendPrefixAfter(it.key, it.lastKey, it.lastTID, scanBatch,
		func(k index.Key, tid storage.TID) bool {
			if cbErr = it.rt.check(); cbErr != nil {
				return false
			}
			if tv, ok := it.n.Table.Heap.Get(tid); ok && it.vis.Sees(&tv) {
				cbErr = it.accept(&tv)
			}
			return cbErr == nil
		})
	if cbErr != nil {
		return cbErr
	}
	if more {
		it.lastKey, it.lastTID = lastKey, lastTID
	} else {
		it.done = true
	}
	return nil
}

func (it *scanIter) Next() (*Row, error) {
	if it.err != nil {
		return nil, it.err
	}
	for it.pos >= len(it.buf) {
		if it.done {
			it.finish()
			return nil, nil
		}
		it.buf = it.buf[:0]
		it.pos = 0
		var err error
		if it.n.Index != nil {
			err = it.refillIndex()
		} else {
			err = it.refillHeap()
		}
		if err != nil {
			it.err = err
			it.finish()
			return nil, err
		}
	}
	r := &it.buf[it.pos]
	it.pos++
	return r, nil
}

func (it *scanIter) finish() {
	if !it.reported {
		it.reported = true
		it.rt.report(&it.st)
	}
}

func (it *scanIter) Close() { it.finish() }

// ---------------------------------------------------------------------------
// Rename (views and derived tables)

func (n *RenameNode) open(rt *Runtime) (Iter, error) {
	child, err := n.Child.open(rt)
	if err != nil {
		if n.ViewName != "" {
			return nil, fmt.Errorf("engine: view %q: %w", n.ViewName, err)
		}
		return nil, err
	}
	if n.ViewName == "" {
		return child, nil // pure schema rename, rows pass through
	}
	return &viewIter{name: n.ViewName, child: child}, nil
}

// viewIter wraps body errors in the legacy view envelope.
type viewIter struct {
	name  string
	child Iter
}

func (it *viewIter) Next() (*Row, error) {
	r, err := it.child.Next()
	if err != nil {
		return nil, fmt.Errorf("engine: view %q: %w", it.name, err)
	}
	return r, nil
}

func (it *viewIter) Close() { it.child.Close() }

// ---------------------------------------------------------------------------
// Filter

type filterIter struct {
	n     *FilterNode
	child Iter
	env   *exec.Env
}

func (n *FilterNode) open(rt *Runtime) (Iter, error) {
	child, err := n.Child.open(rt)
	if err != nil {
		return nil, err
	}
	return &filterIter{n: n, child: child, env: rt.env(n.Child.Schema(), n.Strip)}, nil
}

func (it *filterIter) Next() (*Row, error) {
	for {
		r, err := it.child.Next()
		if err != nil || r == nil {
			return nil, err
		}
		it.env.Row, it.env.RowLabel, it.env.RowILabel = r.Vals, r.Lbl, r.ILbl
		v, err := exec.Eval(it.n.Cond, it.env)
		if err != nil {
			return nil, err
		}
		if v.Truthy() {
			return r, nil
		}
	}
}

func (it *filterIter) Close() { it.child.Close() }

// ---------------------------------------------------------------------------
// Joins (blocking: the legacy join algorithms run verbatim over the
// materialized inputs, preserving row order, label math, and errors)

type joinIter struct {
	n       *JoinNode
	rt      *Runtime
	left    Iter
	started bool
	out     []Row
	pos     int
}

func (n *JoinNode) open(rt *Runtime) (Iter, error) {
	left, err := n.Left.open(rt)
	if err != nil {
		return nil, err
	}
	return &joinIter{n: n, rt: rt, left: left}, nil
}

func (it *joinIter) Next() (*Row, error) {
	if !it.started {
		it.started = true
		if err := it.drain(); err != nil {
			return nil, err
		}
	}
	if it.pos >= len(it.out) {
		return nil, nil
	}
	r := &it.out[it.pos]
	it.pos++
	return r, nil
}

func (it *joinIter) drain() error {
	n, rt := it.n, it.rt
	leftRows, err := drainIter(it.left)
	it.left.Close()
	if err != nil {
		return err
	}
	// The right side opens only after the left finished, keeping the
	// legacy error order: left-input errors surface before any
	// right-side error.
	right, err := n.Right.open(rt)
	if err != nil {
		return err
	}
	rightRows, err := drainIter(right)
	right.Close()
	if err != nil {
		return err
	}

	env := rt.env(n.schema, n.Strip)
	nullsRight := make([]types.Value, len(n.Right.Schema()))

	emit := func(lr Row, rr *Row) error {
		var combined []types.Value
		if rr != nil {
			combined = append(append([]types.Value{}, lr.Vals...), rr.Vals...)
			env.Row = combined
			env.RowLabel = lr.Lbl.Union(rr.Lbl)
			env.RowILabel = lr.ILbl.Intersect(rr.ILbl)
			v, err := exec.Eval(n.On, env)
			if err != nil {
				return err
			}
			if !v.Truthy() {
				return errNoMatch
			}
			it.out = append(it.out, Row{Vals: combined, Lbl: env.RowLabel, ILbl: env.RowILabel})
			return nil
		}
		combined = append(append([]types.Value{}, lr.Vals...), nullsRight...)
		it.out = append(it.out, Row{Vals: combined, Lbl: lr.Lbl, ILbl: lr.ILbl})
		return nil
	}

	if n.Strategy == JoinHash {
		ht := make(map[string][]int, len(rightRows))
		for ri := range rightRows {
			k := hashKey(rightRows[ri].Vals, n.RightKeys)
			ht[k] = append(ht[k], ri)
		}
		for _, lr := range leftRows {
			k := hashKey(lr.Vals, n.LeftKeys)
			matched := false
			for _, ri := range ht[k] {
				switch err := emit(lr, &rightRows[ri]); err {
				case nil:
					matched = true
				case errNoMatch:
				default:
					return err
				}
			}
			if !matched && n.Kind == "LEFT" {
				if err := emit(lr, nil); err != nil {
					return err
				}
			}
		}
		return nil
	}

	for _, lr := range leftRows {
		matched := false
		for ri := range rightRows {
			switch err := emit(lr, &rightRows[ri]); err {
			case nil:
				matched = true
			case errNoMatch:
			default:
				return err
			}
		}
		if !matched && n.Kind == "LEFT" {
			if err := emit(lr, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// errNoMatch is an internal signal of emit: the ON clause evaluated
// non-true. Never escapes the join.
var errNoMatch = fmt.Errorf("plan: no match")

func (it *joinIter) Close() { it.left.Close() }

type indexJoinIter struct {
	n       *IndexJoinNode
	rt      *Runtime
	left    Iter
	started bool
	out     []Row
	pos     int
}

func (n *IndexJoinNode) open(rt *Runtime) (Iter, error) {
	left, err := n.Left.open(rt)
	if err != nil {
		return nil, err
	}
	return &indexJoinIter{n: n, rt: rt, left: left}, nil
}

func (it *indexJoinIter) Next() (*Row, error) {
	if !it.started {
		it.started = true
		if err := it.drain(); err != nil {
			return nil, err
		}
	}
	if it.pos >= len(it.out) {
		return nil, nil
	}
	r := &it.out[it.pos]
	it.pos++
	return r, nil
}

func (it *indexJoinIter) drain() error {
	n, rt := it.n, it.rt
	leftRows, err := drainIter(it.left)
	it.left.Close()
	if err != nil {
		return err
	}
	env := rt.env(n.schema, n.Strip)
	nullsRight := make([]types.Value, len(n.rightSchema))
	var st storage.ScanState
	vis := rt.visibility(n.Strip, &st)
	defer rt.report(&st)

	for _, lr := range leftRows {
		key := make([]types.Value, n.Prefix)
		for i := 0; i < n.Prefix; i++ {
			key[i] = lr.Vals[n.ProbeCols[i]]
		}
		matched := false
		var probeErr error
		n.Index.Tree.AscendPrefix(key, func(_ index.Key, tid storage.TID) bool {
			tv, ok := n.Table.Heap.Get(tid)
			if !ok {
				return true
			}
			if !vis.Sees(&tv) {
				return true
			}
			combined := append(append([]types.Value{}, lr.Vals...), tv.Row...)
			env.Row = combined
			env.RowLabel = lr.Lbl.Union(rt.EffLabel(tv.Label, n.Strip))
			env.RowILabel = lr.ILbl.Intersect(tv.ILabel)
			v, err := exec.Eval(n.On, env)
			if err != nil {
				probeErr = err
				return false
			}
			if v.Truthy() {
				matched = true
				it.out = append(it.out, Row{Vals: combined, Lbl: env.RowLabel, ILbl: env.RowILabel})
			}
			return true
		})
		if probeErr != nil {
			return probeErr
		}
		if !matched && n.Kind == "LEFT" {
			combined := append(append([]types.Value{}, lr.Vals...), nullsRight...)
			it.out = append(it.out, Row{Vals: combined, Lbl: lr.Lbl, ILbl: lr.ILbl})
		}
	}
	return nil
}

func (it *indexJoinIter) Close() { it.left.Close() }

// ---------------------------------------------------------------------------
// Project

type projectIter struct {
	n     *ProjectNode
	child Iter
	env   *exec.Env
	vals  types.Arena
	row   Row // the row Next returns
}

func (n *ProjectNode) open(rt *Runtime) (Iter, error) {
	child, err := n.Child.open(rt)
	if err != nil || n.identity {
		return child, err // the child's rows are already the output
	}
	return &projectIter{n: n, child: child, env: rt.env(n.Child.Schema(), n.Strip)}, nil
}

func (it *projectIter) Next() (*Row, error) {
	r, err := it.child.Next()
	if err != nil || r == nil {
		return nil, err
	}
	n := it.n
	vals := it.vals.Take(len(n.Items))
	var keys []types.Value
	if n.cols != nil {
		for i, c := range n.cols {
			vals[i] = r.Vals[c]
		}
		if len(n.sortCols) > 0 {
			keys = it.vals.Take(len(n.sortCols))
			for i, c := range n.sortCols {
				keys[i] = r.Vals[c]
			}
		}
	} else {
		it.env.Row, it.env.RowLabel, it.env.RowILabel = r.Vals, r.Lbl, r.ILbl
		for i, item := range n.Items {
			if vals[i], err = exec.Eval(item.Expr, it.env); err != nil {
				return nil, err
			}
		}
		if len(n.OrderExprs) > 0 {
			keys = it.vals.Take(len(n.OrderExprs))
			for i, oe := range n.OrderExprs {
				if keys[i], err = exec.Eval(oe, it.env); err != nil {
					return nil, err
				}
			}
		}
	}
	it.row = Row{Vals: vals, Lbl: r.Lbl, ILbl: r.ILbl, Sort: keys}
	return &it.row, nil
}

func (it *projectIter) Close() { it.child.Close() }

// ---------------------------------------------------------------------------
// Sort

type sortIter struct {
	n       *SortNode
	child   Iter
	started bool
	rows    []Row
	pos     int
}

func (n *SortNode) open(rt *Runtime) (Iter, error) {
	child, err := n.Child.open(rt)
	if err != nil {
		return nil, err
	}
	return &sortIter{n: n, child: child}, nil
}

func (it *sortIter) Next() (*Row, error) {
	if !it.started {
		it.started = true
		rows, err := drainIter(it.child)
		it.child.Close()
		if err != nil {
			return nil, err
		}
		sort.SliceStable(rows, func(i, j int) bool { return sortLess(&rows[i], &rows[j], it.n.Desc) })
		it.rows = rows
	}
	if it.pos >= len(it.rows) {
		return nil, nil
	}
	r := &it.rows[it.pos]
	it.pos++
	return r, nil
}

func (it *sortIter) Close() { it.child.Close() }

// sortLess orders two rows by their Sort keys (types.Value.Compare),
// each key ascending unless its desc flag is set.
func sortLess(a, b *Row, desc []bool) bool {
	for k := range desc {
		if c := a.Sort[k].Compare(b.Sort[k]); c != 0 {
			return (c < 0) != desc[k]
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Ordered merge

// mergeIter holds the next row of every live child and emits the
// smallest by a linear scan in child order: children are few (one per
// shard), and scanning in order is what sends ties to the lower child.
type mergeIter struct {
	desc     []bool
	children []Iter
	heads    []Row
	live     []bool
	primed   bool
	out      Row
	err      error
}

func (n *MergeNode) open(rt *Runtime) (Iter, error) {
	it := &mergeIter{desc: n.Desc}
	for _, c := range n.Children {
		ci, err := c.open(rt)
		if err != nil {
			it.Close()
			return nil, err
		}
		it.children = append(it.children, ci)
	}
	it.heads = make([]Row, len(it.children))
	it.live = make([]bool, len(it.children))
	return it, nil
}

// advance pulls child c's next row into its head slot. The row is
// copied, so the head outlives the child's next Next.
func (it *mergeIter) advance(c int) error {
	r, err := it.children[c].Next()
	it.live[c] = r != nil
	if r != nil {
		it.heads[c] = *r
	}
	return err
}

func (it *mergeIter) Next() (*Row, error) {
	if it.err != nil {
		return nil, it.err
	}
	if !it.primed {
		it.primed = true
		for c := range it.children {
			if err := it.advance(c); err != nil {
				return nil, it.fail(err)
			}
		}
	}
	min := -1
	for c := range it.heads {
		if it.live[c] && (min < 0 || sortLess(&it.heads[c], &it.heads[min], it.desc)) {
			min = c
		}
	}
	if min < 0 {
		return nil, nil
	}
	it.out = it.heads[min]
	if err := it.advance(min); err != nil {
		return nil, it.fail(err)
	}
	return &it.out, nil
}

// fail makes err sticky and closes every child: the others are still
// mid-stream and nobody will pull them again.
func (it *mergeIter) fail(err error) error {
	it.err = err
	it.Close()
	return err
}

func (it *mergeIter) Close() {
	for _, c := range it.children {
		c.Close()
	}
}

// ---------------------------------------------------------------------------
// Distinct

type distinctIter struct {
	child Iter
	seen  map[string]bool
}

func (n *DistinctNode) open(rt *Runtime) (Iter, error) {
	child, err := n.Child.open(rt)
	if err != nil {
		return nil, err
	}
	return &distinctIter{child: child, seen: map[string]bool{}}, nil
}

func (it *distinctIter) Next() (*Row, error) {
	for {
		r, err := it.child.Next()
		if err != nil || r == nil {
			return nil, err
		}
		k := rowKey(r.Vals)
		if !it.seen[k] {
			it.seen[k] = true
			return r, nil
		}
	}
}

func (it *distinctIter) Close() { it.child.Close() }

// ---------------------------------------------------------------------------
// Offset / Limit

type offsetIter struct {
	child Iter
	skip  int64
}

func (n *OffsetNode) open(rt *Runtime) (Iter, error) {
	nv, err := evalIntConst(n.Expr, rt.env(nil, n.Strip))
	if err != nil {
		return nil, err
	}
	child, err := n.Child.open(rt)
	if err != nil {
		return nil, err
	}
	return &offsetIter{child: child, skip: nv}, nil
}

func (it *offsetIter) Next() (*Row, error) {
	for it.skip > 0 {
		r, err := it.child.Next()
		if err != nil || r == nil {
			return nil, err
		}
		it.skip--
	}
	return it.child.Next()
}

func (it *offsetIter) Close() { it.child.Close() }

type limitIter struct {
	child Iter
	left  int64
	pure  bool
	done  bool
}

func (n *LimitNode) open(rt *Runtime) (Iter, error) {
	nv, err := evalIntConst(n.Expr, rt.env(nil, n.Strip))
	if err != nil {
		return nil, err
	}
	child, err := n.Child.open(rt)
	if err != nil {
		return nil, err
	}
	return &limitIter{child: child, left: nv, pure: n.Pure}, nil
}

func (it *limitIter) Next() (*Row, error) {
	if it.done {
		return nil, nil
	}
	if it.left <= 0 {
		it.done = true
		if !it.pure {
			// The subtree may call state-changing functions (nextval,
			// addsecrecy, ...); the legacy executor evaluated them for
			// every row before slicing, so keep pulling — discarding
			// rows — until the input runs dry.
			for {
				r, err := it.child.Next()
				if err != nil {
					return nil, err
				}
				if r == nil {
					return nil, nil
				}
			}
		}
		return nil, nil
	}
	r, err := it.child.Next()
	if err != nil || r == nil {
		it.done = true
		return nil, err
	}
	it.left--
	return r, nil
}

func (it *limitIter) Close() { it.child.Close() }

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

// ---------------------------------------------------------------------------
// Group, DISTINCT and hash-join keys (byte-compatible with the legacy
// executor)

// writeKey appends one value to a tuple key: kind, length, string
// form. The length prefix is what keeps column boundaries apart — a
// terminator would not, since a text value may contain any byte.
func writeKey(b *strings.Builder, v types.Value) {
	s := v.String()
	var n [binary.MaxVarintLen64]byte
	b.WriteByte(byte(v.Kind()))
	b.Write(n[:binary.PutUvarint(n[:], uint64(len(s)))])
	b.WriteString(s)
}

func hashKey(vals []types.Value, cols []int) string {
	var b strings.Builder
	for _, c := range cols {
		writeKey(&b, vals[c])
	}
	return b.String()
}

func rowKey(vals []types.Value) string {
	var b strings.Builder
	for _, v := range vals {
		writeKey(&b, v)
	}
	return b.String()
}
