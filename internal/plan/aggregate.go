package plan

import (
	"fmt"

	"ifdb/internal/exec"
	"ifdb/internal/label"
	"ifdb/internal/sql"
	"ifdb/internal/types"
)

// Aggregation is inherently blocking — no group is final before the
// last input row — but what it holds is its groups, not its input: the
// iterator folds each row as its child produces it. Aggregate calls
// are rewritten to placeholder
// parameters allocated after the user's parameters, groups accumulate
// in first-seen order, and each output row's secrecy label is the
// union (integrity label the intersection) of its inputs — derived
// data carries the contamination of everything that fed it
// (Information Flow Rule).
//
// aggIter is the only aggregate iterator: the engine runs it over
// scans with EvalAcc, the Router's gateway over shard streams with the
// partial-aggregate algebra of internal/distplan.

// EvalAcc is the engine's accumulator: the call's argument read from
// each input row — by ordinal when it is the column col, else evaluated
// — folded by exec.AggState.
func EvalAcc(fc *sql.FuncCall, col int) Accumulator {
	return &evalAcc{fc: fc, col: col, st: exec.NewAggState(fc)}
}

type evalAcc struct {
	fc  *sql.FuncCall
	col int
	st  *exec.AggState
}

func (a *evalAcc) Add(env *exec.Env) error {
	switch {
	case a.fc.Star:
		return a.st.Add(types.Null)
	case a.col >= 0:
		return a.st.Add(env.Row[a.col])
	case len(a.fc.Args) != 1:
		return fmt.Errorf("engine: aggregate %s takes one argument", a.fc.Name)
	}
	v, err := exec.Eval(a.fc.Args[0], env)
	if err != nil {
		return err
	}
	return a.st.Add(v)
}

func (a *evalAcc) Result() types.Value { return a.st.Result() }

type aggIter struct {
	n      *AggregateNode
	rt     *Runtime
	child  Iter
	folded bool // child folded to its end, or closed
	out    []Row
	pos    int
}

func (n *AggregateNode) open(rt *Runtime, old Iter) (Iter, error) {
	n.compiled.Do(n.compile)
	it := recycle[aggIter](old)
	child, err := n.Child.open(rt, it.child)
	if err != nil {
		return nil, err
	}
	it.n, it.rt, it.child, it.folded, it.out, it.pos = n, rt, child, false, nil, 0
	return it, nil
}

func (it *aggIter) Next() (*Row, error) {
	if !it.folded {
		if err := it.fold(); err != nil {
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

// fold consumes the child row by row and leaves the groups' output
// rows in it.out. The child is closed on every way out.
func (it *aggIter) fold() error {
	defer it.closeChild()
	n, rt := it.n, it.rt
	inSchema := n.Child.Schema()
	env := rt.env(inSchema, n.Strip)

	// Allocate placeholder parameter indexes after the user's params.
	aggs := n.aggs
	base := len(env.Params)
	mapping := make(map[*sql.FuncCall]int, len(aggs))
	for i, fc := range aggs {
		mapping[fc] = base + i + 1
	}
	subItems := make([]sql.Expr, len(n.Items))
	for i, item := range n.Items {
		subItems[i] = exec.ReplaceAggs(item.Expr, mapping)
	}
	subHaving := exec.ReplaceAggs(n.Having, mapping)
	subOrder := make([]sql.Expr, len(n.OrderExprs))
	for i, oe := range n.OrderExprs {
		subOrder[i] = exec.ReplaceAggs(oe, mapping)
	}

	type group struct {
		rep    Row // representative row (first of group)
		states []Accumulator
		lbl    label.Label
		ilbl   label.Label
	}
	groups := make(map[string]*group)
	var order []*group
	newGroup := func(key string, rep Row) *group {
		g := &group{rep: rep, states: make([]Accumulator, len(aggs)), lbl: rep.Lbl, ilbl: rep.ILbl}
		for i, fc := range aggs {
			g.states[i] = n.NewAcc(fc, n.aggCols[i])
		}
		groups[key] = g
		order = append(order, g)
		return g
	}

	var key []byte // reused: only a group's first row allocates its key
	for {
		r, err := it.child.Next()
		if err != nil {
			return err
		}
		if r == nil {
			break
		}
		env.Row, env.RowLabel, env.RowILabel = r.Vals, r.Lbl, r.ILbl
		key = key[:0]
		for i, ge := range n.GroupBy {
			if c := n.groupCols[i]; c >= 0 {
				key = appendKey(key, r.Vals[c])
				continue
			}
			v, err := exec.Eval(ge, &env)
			if err != nil {
				return err
			}
			key = appendKey(key, v)
		}
		g, ok := groups[string(key)]
		if !ok {
			g = newGroup(string(key), *r)
		} else {
			// Most rows of a group carry a label it has seen: the union
			// (intersection) is then the group's own, and is not rebuilt.
			if !r.Lbl.SubsetOf(g.lbl) {
				g.lbl = g.lbl.Union(r.Lbl)
			}
			if !g.ilbl.SubsetOf(r.ILbl) {
				g.ilbl = g.ilbl.Intersect(r.ILbl)
			}
		}
		for _, st := range g.states {
			if err := st.Add(&env); err != nil {
				return err
			}
		}
	}

	// With no GROUP BY, an empty input still yields one group.
	if len(n.GroupBy) == 0 && len(order) == 0 {
		newGroup("", Row{Vals: make([]types.Value, len(inSchema))})
	}

	for _, g := range order {
		params := make([]types.Value, base+len(aggs))
		copy(params, env.Params)
		for i, st := range g.states {
			params[base+i] = st.Result()
		}
		// Subqueries still see the statement's parameters, not the
		// aggregates': Subqs is bound to the former.
		genv := &exec.Env{
			Schema:    inSchema,
			Row:       g.rep.Vals,
			RowLabel:  g.lbl,
			RowILabel: g.ilbl,
			Params:    params,
			Funcs:     env.Funcs,
			Subqs:     env.Subqs,
			Strip:     env.Strip,
		}
		if subHaving != nil {
			hv, err := exec.Eval(subHaving, genv)
			if err != nil {
				return err
			}
			if !hv.Truthy() {
				continue
			}
		}
		vals := make([]types.Value, len(subItems))
		for i, ie := range subItems {
			v, err := exec.Eval(ie, genv)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		var keys []types.Value
		if len(subOrder) > 0 {
			keys = make([]types.Value, len(subOrder))
			for i, oe := range subOrder {
				v, err := exec.Eval(oe, genv)
				if err != nil {
					return err
				}
				keys[i] = v
			}
		}
		it.out = append(it.out, Row{Vals: vals, Lbl: g.lbl, ILbl: g.ilbl, Sort: keys})
	}
	return nil
}

func (it *aggIter) Close() {
	it.closeChild()
	it.out = nil
}

func (it *aggIter) closeChild() {
	if !it.folded {
		it.folded = true
		it.child.Close()
	}
}
