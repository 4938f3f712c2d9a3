package distplan

import (
	"fmt"
	"strings"

	"ifdb/internal/exec"
	"ifdb/internal/label"
	"ifdb/internal/plan"
	"ifdb/internal/sql"
	"ifdb/internal/types"
)

// Gateway opens the merged output stream of a keyless read: a plan
// tree of the engine's own operators over leaves whose rows are the
// shards' fragment streams.
//
//	union:     one Source over the shard-order gather
//	ordered:   Limit ← Offset ← Distinct ← Merge ← one Source per shard
//	aggregate: Limit ← Offset ← Distinct ← Sort ← Aggregate ← one Source
//	           over the shard-order gather
//
// The tree's Runtime carries the parameters and nothing else — no
// function resolver (Split admits only builtins exec.Eval computes on
// its own) and no label hook: Label Confinement already ran on every
// shard, and all the gateway may do with labels is union them, which
// the aggregate operator does.
//
// The union and ordered merges stream: rows flow as shards produce
// them, and an error surfaces from Next like any rows stream; only
// shard 0's header is awaited here, and its failure to open fails the
// read. Aggregate merges are blocking by nature — exactly like the
// engine's aggregation — so they run to completion here and an error
// (shard failure, glue evaluation) is returned directly, which the
// Router surfaces from Query the same way a single node surfaces an
// aggregation error.
func (sp *Spec) Gateway(cfg Config) (Stream, error) {
	g, tree := sp.tree(cfg)
	// Opening the tree evaluates LIMIT and OFFSET. The shards start
	// only after it, so a refused bound leaves no fragment running to
	// cancel.
	it, err := tree.Open(&plan.Runtime{Params: cfg.Params})
	st := &gatewayStream{g: g, it: it}
	if err == nil {
		g.start()
		st.cols, err = sp.columns(g)
	}
	if err != nil {
		g.shutdown()
		return nil, err
	}
	if sp.aggregate() {
		if st.Next(); st.err != nil {
			return nil, st.err
		}
		st.primed = true
	}
	return st, nil
}

// Explain renders the gateway half of a sharded EXPLAIN: a Scatter
// header, the tree Gateway opens under cfg as plan.Explain renders it,
// and the fragment every shard runs.
func (sp *Spec) Explain(cfg Config) []string {
	g, tree := sp.tree(cfg)
	lines := []string{fmt.Sprintf("Scatter [shards=%d window=%d mode=%s]", cfg.Shards, g.cfg.window(), sp.Mode)}
	for i, ln := range strings.Split(strings.TrimSuffix(tree.Explain(), "\n"), "\n") {
		indent := "│  "
		if i == 0 {
			indent = "├─ "
		}
		lines = append(lines, indent+ln)
	}
	return append(lines, "└─ Fragment (each shard): "+sp.Fragment)
}

// aggregate reports an aggregate merge, which Gateway runs to completion.
func (sp *Spec) aggregate() bool { return sp.Mode == ModePartialAgg || sp.Mode == ModeGatherAgg }

// tree lays out the shard feeds and the gateway's plan over them;
// nothing starts until the gather does.
func (sp *Spec) tree(cfg Config) (*gather, *plan.Plan) {
	if sp.Mode == ModeOrdered {
		// Every shard's head row is needed before the first output row.
		cfg.Window = cfg.Shards
	}
	g := newGather(&cfg)
	// The union is the shard-order gather's leaf alone.
	var root plan.Node = &plan.SourceNode{Cols: sp.fragCols, Rows: &shardRows{sp: sp, next: g.next},
		Name: fmt.Sprintf("shards 0..%d in order", cfg.Shards-1)}
	// Pure: gateway glue calls nothing that changes state, so a
	// satisfied LIMIT stops pulling and the shards are cancelled. The
	// merge arrives ordered; only an aggregate's groups need the sort.
	tail := plan.Tail{Distinct: sp.distinct, Offset: sp.offset, Limit: sp.limit, Pure: true}
	switch sp.Mode {
	case ModeOrdered:
		merge := &plan.MergeNode{Desc: sp.desc}
		for _, f := range g.feeds {
			merge.Children = append(merge.Children, &plan.SourceNode{
				Rows: &shardRows{sp: sp, next: f.next}, Name: fmt.Sprintf("shard %d", f.shard)})
		}
		root = merge
	case ModePartialAgg, ModeGatherAgg:
		root = &plan.AggregateNode{
			Child: root, Items: sp.items, GroupBy: sp.groupBy, Having: sp.having,
			OrderExprs: sp.orderGlue, NewAcc: sp.newAcc,
		}
		tail.OrderExprs, tail.Desc = sp.orderGlue, sp.orderDesc
	}
	return g, &plan.Plan{Root: tail.Over(root)}
}

// columns names the merged stream's columns. An aggregate's are its
// items'; a union's or an ordered merge's are shard 0's header less
// the hidden sort columns (a star in the statement expands on the
// shard), and a shard 0 that fails to open fails the query before a
// stream is handed out.
func (sp *Spec) columns(g *gather) ([]string, error) {
	if sp.aggregate() {
		cols := make([]string, len(sp.items))
		for i, it := range sp.items {
			cols[i] = it.Alias
		}
		return cols, nil
	}
	cols, err := g.head()
	return cols[:max(len(cols)-sp.hidden, 0)], err
}

// shardRows is the plan leaf over shard streams: one shard's feed under
// the ordered merge, the whole shard-order gather under the union and
// the aggregate.
// It hides the fragment's trailing sort columns from Vals and hands
// the sort keys to the merge as Row.Sort.
type shardRows struct {
	sp   *Spec
	next func() (feedRow, bool, error)
	keys types.Arena
	row  plan.Row
}

func (s *shardRows) Next() (*plan.Row, error) {
	r, ok, err := s.next()
	if !ok {
		return nil, err
	}
	visible := len(r.vals) - s.sp.hidden
	s.row = plan.Row{Vals: r.vals[:visible], Lbl: r.lbl}
	if len(s.sp.keyItems) > 0 {
		s.row.Sort = s.keys.Take(len(s.sp.keyItems))
		for i, ki := range s.sp.keyItems {
			if ki < 0 {
				ki = visible - 1 - ki // hidden column -1-ki
			}
			s.row.Sort[i] = r.vals[ki]
		}
	}
	return &s.row, nil
}

// Close does nothing: the feeds belong to the gather, which the
// gateway stream shuts down.
func (s *shardRows) Close() {}

// gatewayStream adapts the gateway's plan tree to Stream and owns the
// gather under it.
type gatewayStream struct {
	g    *gather
	it   plan.Handle
	cols []string
	row  plan.Row
	// primed: Gateway already ran the first Next (aggregate merges), so
	// row or done holds its outcome for the consumer's first call.
	primed bool
	err    error
	done   bool
}

func (s *gatewayStream) Columns() []string     { return s.cols }
func (s *gatewayStream) Row() []types.Value    { return s.row.Vals }
func (s *gatewayStream) RowLabel() label.Label { return s.row.Lbl }
func (s *gatewayStream) Err() error            { return s.err }

func (s *gatewayStream) Next() bool {
	if s.primed {
		s.primed = false
		return !s.done
	}
	if s.done {
		return false
	}
	r, err := s.it.Next()
	if err != nil || r == nil {
		s.err = err
		s.Close()
		return false
	}
	s.row = *r
	return true
}

func (s *gatewayStream) Close() error {
	s.done = true
	s.it.Close()
	s.g.shutdown()
	return nil
}

// mergeAcc folds one aggregate across shards.
//
// Partial mode composes per-shard results: COUNTs add, SUMs fold
// through a SUM accumulator (preserving the int/float promotion the
// engine applies), MIN/MAX fold through the same comparator, and AVG
// recomposes from its pushed SUM and COUNT columns. Gather mode runs
// the engine's own accumulator over the shipped argument values — the
// only composition that is correct for DISTINCT aggregates.
type mergeAcc struct {
	spec   *aggSpec
	gather bool
	cnt    int64          // partial count / avg denominator
	fold   *exec.AggState // gather: the real accumulator; partial: sum, min or max of partials
}

// newAcc is the gateway's plan.AggregateNode.NewAcc. The columns it
// reads are the aggregate's own (aggSpec.at), so it has no use for the
// argument's ordinal.
func (sp *Spec) newAcc(fc *sql.FuncCall, _ int) plan.Accumulator {
	m := &mergeAcc{gather: sp.Mode == ModeGatherAgg}
	for i := range sp.aggs {
		if sp.aggs[i].call == fc {
			m.spec = &sp.aggs[i]
		}
	}
	switch {
	case m.gather:
		m.fold = exec.NewAggState(fc)
	case m.spec.fn == "avg":
		m.fold = exec.NewAggState(&sql.FuncCall{Name: "sum"})
	case m.spec.fn != "count":
		m.fold = exec.NewAggState(&sql.FuncCall{Name: m.spec.fn})
	}
	return m
}

// Add folds this aggregate's columns of one shard row (partial mode)
// or one shipped row (gather mode).
func (m *mergeAcc) Add(env *exec.Env) error {
	vals, at := env.Row, m.spec.at
	switch {
	case m.gather && m.spec.star:
		return m.fold.Add(types.Null)
	case m.gather:
		return m.fold.Add(vals[at])
	case m.spec.fn == "count":
		m.cnt += vals[at].Int()
		return nil
	case m.spec.fn == "avg":
		m.cnt += vals[at+1].Int()
	}
	return m.fold.Add(vals[at])
}

func (m *mergeAcc) Result() types.Value {
	switch {
	case m.gather:
		return m.fold.Result()
	case m.spec.fn == "count":
		return types.NewInt(m.cnt)
	case m.spec.fn == "avg":
		if m.cnt == 0 {
			return types.Null
		}
		s := m.fold.Result()
		num := s.Float()
		if s.Kind() == types.KindInt {
			num = float64(s.Int())
		}
		return types.NewFloat(num / float64(m.cnt))
	}
	return m.fold.Result()
}
