package plan

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"ifdb/internal/exec"
	"ifdb/internal/sql"
	"ifdb/internal/types"
)

// drainIter pulls it to exhaustion. Row structs are copied out of the
// iterator's internal buffer, so the result is stable. Only the join
// buffers its left input this way.
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

type valuesIter struct {
	done bool
	row  Row // always empty
}

func (n *ValuesNode) open(rt *Runtime, old Iter) (Iter, error) {
	it := recycle[valuesIter](old)
	it.done = false
	return it, nil
}

func (it *valuesIter) Next() (*Row, error) {
	if it.done {
		return nil, nil
	}
	it.done = true
	return &it.row, nil
}

func (it *valuesIter) Close() {}

// open hands out the source's live iterator: a tree over a SourceNode
// runs once.
func (n *SourceNode) open(rt *Runtime, old Iter) (Iter, error) { return n.Rows, nil }

// ---------------------------------------------------------------------------
// Rename (views and derived tables)

func (n *RenameNode) open(rt *Runtime, old Iter) (Iter, error) {
	if n.ViewName == "" {
		return n.Child.open(rt, old) // pure schema rename, rows pass through
	}
	it := recycle[viewIter](old)
	child, err := n.Child.open(rt, it.child)
	if err != nil {
		return nil, fmt.Errorf("engine: view %q: %w", n.ViewName, err)
	}
	it.name, it.child = n.ViewName, child
	return it, nil
}

// viewIter wraps body errors in the view envelope.
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
	env   exec.Env
}

func (n *FilterNode) open(rt *Runtime, old Iter) (Iter, error) {
	it := recycle[filterIter](old)
	child, err := n.Child.open(rt, it.child)
	if err != nil {
		return nil, err
	}
	it.n, it.child, it.env = n, child, rt.env(n.Child.Schema(), n.Strip)
	return it, nil
}

func (it *filterIter) Next() (*Row, error) {
	for {
		r, err := it.child.Next()
		if err != nil || r == nil {
			return nil, err
		}
		it.env.Row, it.env.RowLabel, it.env.RowILabel = r.Vals, r.Lbl, r.ILbl
		v, err := exec.Eval(it.n.Cond, &it.env)
		if err != nil {
			return nil, err
		}
		if v.Truthy() {
			return r, nil
		}
	}
}

func (it *filterIter) Close() {
	it.child.Close()
	it.env.Row = nil
}

// ---------------------------------------------------------------------------
// Join (blocking: the whole output is built before the first row
// leaves)

// joinIter keeps its two inputs' iterators from opening to opening;
// joinRun is the rest.
type joinIter struct {
	joinRun
	left  Iter
	right Iter // opened once the left side drained
}

type joinRun struct {
	n       *JoinNode
	rt      *Runtime
	started bool
	out     []Row
	pos     int

	// The right side as candidates reads it: every row (loop), the rows
	// under each key (hash), or the right table's scan (index), whose
	// probe for the current left row cand holds.
	rows    []Row
	buckets map[string][]Row
	probe   *scanIter
	cand    []Row
	key     []byte
}

func (n *JoinNode) open(rt *Runtime, old Iter) (Iter, error) {
	it := recycle[joinIter](old)
	left, err := n.Left.open(rt, it.left)
	if err != nil {
		return nil, err
	}
	it.joinRun = joinRun{n: n, rt: rt}
	it.left = left
	return it, nil
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

// drain builds the output: each left row, in order, joined to those of
// its candidates the ON clause accepts, in right order, or for a LEFT
// join padded with NULLs when it accepts none.
func (it *joinIter) drain() error {
	n, rt := it.n, it.rt
	leftRows, err := drainIter(it.left)
	it.left.Close()
	if err != nil {
		return err
	}
	// The right side opens only after the left finished: left-input
	// errors surface before any right-side error.
	right, err := n.Right.open(rt, it.right)
	if err != nil {
		return err
	}
	it.right = right
	defer right.Close()
	if n.Strategy == JoinIndex {
		it.probe = right.(*scanIter)
	} else if err := it.buffer(right); err != nil {
		return err
	}

	env := rt.env(n.schema, n.Strip)
	nullsRight := make([]types.Value, len(n.Right.Schema()))
	for i := range leftRows {
		lr := &leftRows[i]
		cands, err := it.candidates(lr)
		if err != nil {
			return err
		}
		matched := false
		for j := range cands {
			rr := &cands[j]
			env.Row = slices.Concat(lr.Vals, rr.Vals)
			env.RowLabel, env.RowILabel = lr.Lbl.Union(rr.Lbl), lr.ILbl.Intersect(rr.ILbl)
			v, err := exec.Eval(n.On, &env)
			if err != nil {
				return err
			}
			if v.Truthy() {
				matched = true
				it.out = append(it.out, Row{Vals: env.Row, Lbl: env.RowLabel, ILbl: env.RowILabel})
			}
		}
		if !matched && n.Kind == "LEFT" {
			it.out = append(it.out, Row{Vals: slices.Concat(lr.Vals, nullsRight), Lbl: lr.Lbl, ILbl: lr.ILbl})
		}
	}
	return nil
}

// buffer drains the right side of a loop or hash join: into rows, or
// for a hash join into buckets by its key columns.
func (it *joinIter) buffer(right Iter) error {
	for {
		r, err := right.Next()
		if err != nil || r == nil {
			return err
		}
		if it.n.Strategy == JoinLoop {
			it.rows = append(it.rows, *r)
			continue
		}
		if it.buckets == nil {
			it.buckets = map[string][]Row{}
		}
		it.key = appendColsKey(it.key[:0], r.Vals, it.n.RightKeys)
		it.buckets[string(it.key)] = append(it.buckets[string(it.key)], *r)
	}
}

// candidates returns the right rows that may join lr, in right order:
// every row (loop), lr's bucket (hash), or what the right table's scan
// finds when re-seeked to lr's key (index).
func (it *joinIter) candidates(lr *Row) ([]Row, error) {
	switch it.n.Strategy {
	case JoinLoop:
		return it.rows, nil
	case JoinHash:
		it.key = appendColsKey(it.key[:0], lr.Vals, it.n.LeftKeys)
		return it.buckets[string(it.key)], nil
	}
	it.probe.seek(lr.Vals, it.n.LeftKeys)
	it.cand = it.cand[:0]
	for {
		r, err := it.probe.Next()
		if err != nil || r == nil {
			return it.cand, err
		}
		it.cand = append(it.cand, *r)
	}
}

func (it *joinIter) Close() {
	it.left.Close()
	it.out, it.rows, it.buckets, it.cand = nil, nil, nil, nil
}

// ---------------------------------------------------------------------------
// Project

type projectIter struct {
	n     *ProjectNode
	child Iter
	env   exec.Env // unused when every item is a column of the child (n.cols)
	vals  types.Arena
	row   Row // the row Next returns
}

func (n *ProjectNode) open(rt *Runtime, old Iter) (Iter, error) {
	if n.identity {
		return n.Child.open(rt, old) // the child's rows are already the output
	}
	it := recycle[projectIter](old)
	child, err := n.Child.open(rt, it.child)
	if err != nil {
		return nil, err
	}
	// A fresh arena: the rows the last opening carved stay the holders'.
	it.n, it.child, it.vals, it.row = n, child, types.Arena{}, Row{}
	if n.cols == nil {
		it.env = rt.env(n.Child.Schema(), n.Strip)
	}
	return it, nil
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
	} else {
		it.env.Row, it.env.RowLabel, it.env.RowILabel = r.Vals, r.Lbl, r.ILbl
		for i, item := range n.Items {
			if vals[i], err = exec.Eval(item.Expr, &it.env); err != nil {
				return nil, err
			}
		}
		if len(n.OrderExprs) > 0 {
			keys = it.vals.Take(len(n.OrderExprs))
			for i, oe := range n.OrderExprs {
				if keys[i], err = exec.Eval(oe, &it.env); err != nil {
					return nil, err
				}
			}
		}
	}
	it.row = Row{Vals: vals, Lbl: r.Lbl, ILbl: r.ILbl, Sort: keys}
	return &it.row, nil
}

func (it *projectIter) Close() {
	it.child.Close()
	it.vals, it.row, it.env.Row = types.Arena{}, Row{}, nil
}

// ---------------------------------------------------------------------------
// Sort

// sortRow is a buffered row and its arrival number, which decides
// between equal keys.
type sortRow struct {
	Row
	seq int
}

// sortIter is the one sort. Without a bound it buffers its input and
// sorts it stably. With one it keeps the bound's worth of rows in a
// max-heap whose root is the last of them in the stable order — equal
// keys ordered by arrival — so what comes out is, row for row, the
// first rows the stable sort of the whole input would have produced.
type sortIter struct {
	n       *SortNode
	child   Iter
	drained bool  // child pulled to its end, or closed
	bound   int64 // rows to keep; negative keeps all
	rows    []sortRow
	pos     int
}

// keyOrder is what a sort or merge compares rows by: the columns keys
// names, or with keys nil the rows' Sort values, each ascending unless
// its desc flag is set.
type keyOrder struct {
	keys []int
	desc []bool
}

// cmp orders two rows by their keys (types.Compare).
func (o keyOrder) cmp(a, b *Row) int {
	for k, desc := range o.desc {
		i, x, y := k, a.Sort, b.Sort
		if o.keys != nil {
			i, x, y = o.keys[k], a.Vals, b.Vals
		}
		if c := types.Compare(&x[i], &y[i]); c != 0 {
			if desc {
				return -c
			}
			return c
		}
	}
	return 0
}

func (n *SortNode) open(rt *Runtime, old Iter) (Iter, error) {
	bound := int64(-1)
	if n.Limit != nil {
		env := exec.Env{Params: rt.Params}
		limit, err := evalIntConst(n.Limit, &env)
		if err != nil {
			return nil, err
		}
		var offset int64
		if n.Offset != nil {
			if offset, err = evalIntConst(n.Offset, &env); err != nil {
				return nil, err
			}
		}
		if offset <= math.MaxInt64-limit {
			bound = limit + offset
		}
	}
	it := recycle[sortIter](old)
	child, err := n.Child.open(rt, it.child)
	if err != nil {
		return nil, err
	}
	it.n, it.child, it.drained, it.bound, it.rows, it.pos = n, child, false, bound, nil, 0
	return it, nil
}

func (it *sortIter) Next() (*Row, error) {
	if !it.drained {
		if err := it.fill(); err != nil {
			return nil, err
		}
	}
	if it.pos >= len(it.rows) {
		return nil, nil
	}
	r := &it.rows[it.pos].Row
	it.pos++
	return r, nil
}

// fill pulls the child to the end — also under a bound, so a select
// list with side effects still runs once per input row — and leaves
// the rows to emit in order. The child is closed on every way out.
func (it *sortIter) fill() error {
	defer it.closeChild()
	o, k := keyOrder{it.n.Keys, it.n.Desc}, it.bound
	heaped := false
	for seq := 0; ; seq++ {
		r, err := it.child.Next()
		if err != nil {
			it.rows = nil
			return err
		}
		if r == nil {
			break
		}
		switch {
		case k < 0 || int64(len(it.rows)) < k:
			it.rows = append(it.rows, sortRow{*r, seq})
			if int64(len(it.rows)) == k {
				for i := len(it.rows)/2 - 1; i >= 0; i-- {
					siftDown(it.rows, i, o)
				}
				heaped = true
			}
		case k > 0 && o.cmp(r, &it.rows[0].Row) < 0:
			// r arrived after the root, so it displaces it only when its
			// keys sort strictly before.
			it.rows[0] = sortRow{*r, seq}
			siftDown(it.rows, 0, o)
		}
	}
	if !heaped {
		slices.SortStableFunc(it.rows, func(a, b sortRow) int { return o.cmp(&a.Row, &b.Row) })
		return nil
	}
	for end := len(it.rows) - 1; end > 0; end-- {
		it.rows[0], it.rows[end] = it.rows[end], it.rows[0]
		siftDown(it.rows[:end], 0, o)
	}
	return nil
}

func (it *sortIter) Close() {
	it.closeChild()
	it.rows = nil
}

func (it *sortIter) closeChild() {
	if !it.drained {
		it.drained = true
		it.child.Close()
	}
}

// siftDown restores the heap order below h[i]: every parent sorts
// after its children.
func siftDown(h []sortRow, i int, o keyOrder) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && sortsAfter(&h[c+1], &h[c], o) {
			c++
		}
		if !sortsAfter(&h[c], &h[i], o) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// sortsAfter is the stable order: by keys, and between equal keys by
// arrival.
func sortsAfter(a, b *sortRow, o keyOrder) bool {
	c := o.cmp(&a.Row, &b.Row)
	return c > 0 || c == 0 && a.seq > b.seq
}

// ---------------------------------------------------------------------------
// Ordered merge

// mergeIter holds the next row of every live child and emits the
// smallest by a linear scan in child order: children are few (one per
// shard), and scanning in order is what sends ties to the lower child.
type mergeIter struct {
	order    keyOrder
	children []Iter
	heads    []Row
	live     []bool
	primed   bool
	out      Row
	err      error
}

func (n *MergeNode) open(rt *Runtime, old Iter) (Iter, error) {
	it := recycle[mergeIter](old)
	kept := it.children
	it.order, it.children, it.primed, it.out, it.err = keyOrder{desc: n.Desc}, kept[:0], false, Row{}, nil
	for i, c := range n.Children {
		var prev Iter
		if i < len(kept) {
			prev = kept[i] // read before the append below overwrites it
		}
		ci, err := c.open(rt, prev)
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
		if it.live[c] && (min < 0 || it.order.cmp(&it.heads[c], &it.heads[min]) < 0) {
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
	clear(it.heads)
	it.out = Row{}
}

// ---------------------------------------------------------------------------
// Distinct

type distinctIter struct {
	child Iter
	seen  map[string]bool
	key   []byte
}

func (n *DistinctNode) open(rt *Runtime, old Iter) (Iter, error) {
	it := recycle[distinctIter](old)
	child, err := n.Child.open(rt, it.child)
	if err != nil {
		return nil, err
	}
	it.child, it.seen = child, map[string]bool{}
	return it, nil
}

func (it *distinctIter) Next() (*Row, error) {
	for {
		r, err := it.child.Next()
		if err != nil || r == nil {
			return nil, err
		}
		it.key = appendRowKey(it.key[:0], r.Vals)
		if !it.seen[string(it.key)] {
			it.seen[string(it.key)] = true
			return r, nil
		}
	}
}

func (it *distinctIter) Close() {
	it.child.Close()
	it.seen = nil
}

// ---------------------------------------------------------------------------
// Offset / Limit

type offsetIter struct {
	child Iter
	skip  int64
}

func (n *OffsetNode) open(rt *Runtime, old Iter) (Iter, error) {
	env := rt.env(nil, n.Strip)
	nv, err := evalIntConst(n.Expr, &env)
	if err != nil {
		return nil, err
	}
	it := recycle[offsetIter](old)
	child, err := n.Child.open(rt, it.child)
	if err != nil {
		return nil, err
	}
	it.child, it.skip = child, nv
	return it, nil
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

func (n *LimitNode) open(rt *Runtime, old Iter) (Iter, error) {
	env := rt.env(nil, n.Strip)
	nv, err := evalIntConst(n.Expr, &env)
	if err != nil {
		return nil, err
	}
	it := recycle[limitIter](old)
	child, err := n.Child.open(rt, it.child)
	if err != nil {
		return nil, err
	}
	it.child, it.left, it.pure, it.done = child, nv, n.Pure, false
	return it, nil
}

func (it *limitIter) Next() (*Row, error) {
	if it.done {
		return nil, nil
	}
	if it.left <= 0 {
		it.done = true
		if !it.pure {
			// The subtree may call state-changing functions (nextval,
			// addsecrecy, ...), which run for every row whatever the
			// limit: keep pulling — discarding rows — until the input
			// runs dry.
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
// Group, DISTINCT and hash-join keys

// appendKey appends one value to a tuple key: its kind, then the
// payload at the kind's fixed width, or length-prefixed where it has
// none. The prefix is what keeps column boundaries apart — a
// terminator would not, since a text value may contain any byte. Two
// values append the same bytes exactly when they are of one kind and
// print alike (TestKeyMatchesLegacyKey holds it to the key it replaced:
// kind, length, string form), so 1 and 1.0 stay two groups. Callers append into a buffer they
// reuse and look a map up by string(key), which does not allocate.
func appendKey(b []byte, v types.Value) []byte {
	b = append(b, byte(v.Kind()))
	var n uint64
	switch v.Kind() {
	case types.KindNull:
		return b
	case types.KindText:
		b = binary.AppendUvarint(b, uint64(len(v.Text())))
		return append(b, v.Text()...)
	case types.KindLabel:
		b = binary.AppendUvarint(b, uint64(len(v.Label())))
		for _, t := range v.Label() {
			b = binary.LittleEndian.AppendUint64(b, uint64(t))
		}
		return b
	case types.KindInt:
		n = uint64(v.Int())
	case types.KindBool:
		if v.Bool() {
			n = 1
		}
	case types.KindTime:
		n = uint64(v.Time().UnixMicro())
	case types.KindFloat:
		f := v.Float()
		if f != f {
			f = math.NaN() // every NaN prints alike
		}
		n = math.Float64bits(f)
	}
	return binary.LittleEndian.AppendUint64(b, n)
}

func appendColsKey(b []byte, vals []types.Value, cols []int) []byte {
	for _, c := range cols {
		b = appendKey(b, vals[c])
	}
	return b
}

func appendRowKey(b []byte, vals []types.Value) []byte {
	for _, v := range vals {
		b = appendKey(b, v)
	}
	return b
}
