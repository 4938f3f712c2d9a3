package plan

import (
	"fmt"

	"ifdb/internal/exec"
	"ifdb/internal/label"
	"ifdb/internal/sql"
	"ifdb/internal/types"
)

// Aggregation is inherently blocking, so the iterator drains its child
// and then runs the legacy engine's algorithm: aggregate calls are
// rewritten to placeholder parameters allocated after the user's
// parameters, groups accumulate in first-seen order, and each output
// row's secrecy label is the union (integrity label the intersection)
// of its inputs — derived data carries the contamination of everything
// that fed it (Information Flow Rule).
//
// aggIter is the only aggregate iterator: the engine runs it over
// scans with EvalAcc, the Router's gateway over shard streams with the
// partial-aggregate algebra of internal/distplan. The fold itself
// (exec.AggState) is shared with the legacy executor.

// EvalAcc is the engine's accumulator: the call's argument evaluated
// against each input row, folded by exec.AggState.
func EvalAcc(fc *sql.FuncCall) Accumulator {
	return &evalAcc{fc: fc, st: exec.NewAggState(fc)}
}

type evalAcc struct {
	fc *sql.FuncCall
	st *exec.AggState
}

func (a *evalAcc) Add(env *exec.Env) error {
	if a.fc.Star {
		return a.st.Add(types.Null)
	}
	if len(a.fc.Args) != 1 {
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
	n       *AggregateNode
	rt      *Runtime
	child   Iter
	started bool
	out     []Row
	pos     int
}

func (n *AggregateNode) open(rt *Runtime) (Iter, error) {
	child, err := n.Child.open(rt)
	if err != nil {
		return nil, err
	}
	return &aggIter{n: n, rt: rt, child: child}, nil
}

func (it *aggIter) Next() (*Row, error) {
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

func (it *aggIter) drain() error {
	n, rt := it.n, it.rt
	input, err := drainIter(it.child)
	it.child.Close()
	if err != nil {
		return err
	}
	inSchema := n.Child.Schema()
	env := rt.env(inSchema, n.Strip)

	// Gather aggregate nodes across items, HAVING, and ORDER BY.
	var aggs []*sql.FuncCall
	seen := make(map[*sql.FuncCall]bool)
	for _, item := range n.Items {
		exec.CollectAggs(item.Expr, &aggs, seen)
	}
	exec.CollectAggs(n.Having, &aggs, seen)
	for _, oe := range n.OrderExprs {
		exec.CollectAggs(oe, &aggs, seen)
	}

	// Allocate placeholder parameter indexes after the user's params.
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
		first  bool
	}
	groups := make(map[string]*group)
	var order []string

	for _, r := range input {
		env.Row, env.RowLabel, env.RowILabel = r.Vals, r.Lbl, r.ILbl
		var key string
		if len(n.GroupBy) > 0 {
			kv := make([]types.Value, len(n.GroupBy))
			for i, ge := range n.GroupBy {
				v, err := exec.Eval(ge, env)
				if err != nil {
					return err
				}
				kv[i] = v
			}
			key = rowKey(kv)
		}
		g, ok := groups[key]
		if !ok {
			g = &group{rep: r, states: make([]Accumulator, len(aggs)), first: true, ilbl: r.ILbl}
			for i, fc := range aggs {
				g.states[i] = n.NewAcc(fc)
			}
			groups[key] = g
			order = append(order, key)
		}
		g.lbl = g.lbl.Union(r.Lbl)
		if g.first {
			g.first = false
		} else {
			g.ilbl = g.ilbl.Intersect(r.ILbl)
		}
		for _, st := range g.states {
			if err := st.Add(env); err != nil {
				return err
			}
		}
	}

	// With no GROUP BY, an empty input still yields one group.
	if len(n.GroupBy) == 0 && len(groups) == 0 {
		g := &group{rep: Row{Vals: make([]types.Value, len(inSchema))}, states: make([]Accumulator, len(aggs))}
		for i, fc := range aggs {
			g.states[i] = n.NewAcc(fc)
		}
		groups[""] = g
		order = append(order, "")
	}

	for _, key := range order {
		g := groups[key]
		params := make([]types.Value, base+len(aggs))
		copy(params, env.Params)
		for i, st := range g.states {
			params[base+i] = st.Result()
		}
		genv := &exec.Env{
			Schema:    inSchema,
			Row:       g.rep.Vals,
			RowLabel:  g.lbl,
			RowILabel: g.ilbl,
			Params:    params,
			Funcs:     env.Funcs,
			Subq:      env.Subq,
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

func (it *aggIter) Close() { it.child.Close() }
