package engine

import (
	"strings"

	"ifdb/internal/exec"
	"ifdb/internal/label"
	"ifdb/internal/plan"
	"ifdb/internal/sql"
	"ifdb/internal/types"
)

// The plan-based SELECT path: build (or fetch) an analyzed plan for
// the statement, open its iterator tree against this session's
// transaction and label state, and pull. Session-free analysis lives
// in internal/plan; everything here binds it to a session.

// planEntry is one cached plan with the epoch it was built under.
type planEntry struct {
	p     *plan.Plan
	epoch uint64
}

// invalidatePlans drops every cached plan by bumping the epoch (the
// cheap, lock-free half; stale sync.Map entries are deleted lazily on
// next lookup). Called on every DDL, DROP, and shard-guard change.
func (e *Engine) invalidatePlans() {
	e.planEpoch.Add(1)
}

// planFor returns the analyzed plan for sel, consulting the plan
// cache. Plans are cached only for an empty strip set: a declassifying
// view's strip is baked into its scan nodes, and the same AST can be
// reached with different strips through different view nestings.
func (s *Session) planFor(sel *sql.SelectStmt, strip label.Label) (*plan.Plan, error) {
	e := s.eng
	epoch := e.planEpoch.Load()
	cacheable := len(strip) == 0
	if cacheable {
		if v, ok := e.planCache.Load(sel); ok {
			ent := v.(*planEntry)
			if ent.epoch == epoch {
				mPlanCacheHits.Inc()
				return ent.p, nil
			}
			e.planCache.Delete(sel)
		}
	}
	p, err := plan.Build(e.cat, sel, strip)
	if err != nil {
		return nil, err
	}
	mPlans.Inc()
	if cacheable {
		e.planCache.Store(sel, &planEntry{p: p, epoch: epoch})
	}
	return p, nil
}

// planRuntime binds a plan to this session's statement transaction,
// label state, parameters, and cancellation flag.
func (s *Session) planRuntime(qc *qctx) *plan.Runtime {
	tx := s.stmtTx
	rt := &plan.Runtime{
		Params: qc.params,
		Funcs:  sessionFuncs{s},
		SubqFor: func(strip label.Label) exec.SubqueryRunner {
			return subqRunner{s, &qctx{params: qc.params, strip: strip}}
		},
		Visible:  tx.Visible,
		EffLabel: s.effectiveTupleLabel,
		Check:    s.checkCanceled,
		OnScanned: func(visited, denied int64) {
			mRowsScanned.Add(visited)
			mLabelDenials.Add(denied)
		},
	}
	if s.eng.cfg.IFC {
		rt.LabelOK = s.labelsOK
	}
	return rt
}

// executeSelect runs a SELECT to a buffered Result. Subqueries and the
// source of INSERT … SELECT come through here too, under the strip of
// the view they sit in.
func (s *Session) executeSelect(sel *sql.SelectStmt, qc *qctx) (*Result, error) {
	p, err := s.planFor(sel, qc.strip)
	if err != nil {
		return nil, err
	}
	it, err := p.Open(s.planRuntime(qc))
	if err != nil {
		return nil, err
	}
	defer it.Close()
	res := &Result{Cols: colNames(p), Rows: [][]types.Value{}}
	ifc := s.eng.cfg.IFC
	if ifc {
		res.RowLabels = []label.Label{}
	}
	for {
		r, err := it.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			return res, nil
		}
		res.Rows = append(res.Rows, r.Vals)
		if ifc {
			res.RowLabels = append(res.RowLabels, r.Lbl)
		}
	}
}

// colNames are the column names of p's result.
func colNames(p *plan.Plan) []string {
	schema := p.Schema()
	names := make([]string, len(schema))
	for i, c := range schema {
		names[i] = c.Name
	}
	return names
}

// openSelect opens a SELECT as a live iterator (the streaming path the
// wire server's cursor rides). The caller owns the iterator and must
// Close it; the statement transaction must stay open meanwhile.
func (s *Session) openSelect(sel *sql.SelectStmt, params []types.Value) (*plan.Plan, plan.Iter, error) {
	qc := &qctx{params: params}
	p, err := s.planFor(sel, nil)
	if err != nil {
		return nil, nil, err
	}
	it, err := p.Open(s.planRuntime(qc))
	if err != nil {
		return nil, nil, err
	}
	return p, it, nil
}

// explainSelect renders the analyzed plan of sel as a one-column
// result, one operator per row.
func (s *Session) explainSelect(sel *sql.SelectStmt) (*Result, error) {
	p, err := s.planFor(sel, nil)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(p.Explain(), "\n"), "\n")
	res := &Result{Cols: []string{"plan"}}
	for _, ln := range lines {
		res.Rows = append(res.Rows, []types.Value{types.NewText(ln)})
	}
	if s.eng.cfg.IFC {
		res.RowLabels = make([]label.Label, len(res.Rows))
	}
	return res, nil
}
