package engine

import (
	"fmt"
	"strings"

	"ifdb/internal/label"
	"ifdb/internal/plan"
	"ifdb/internal/sql"
	"ifdb/internal/types"
)

// The plan-based path of SELECT, and of UPDATE's and DELETE's target
// selection: build (or fetch) an analyzed plan for the statement, open
// its iterator tree against this session's transaction and label
// state, and pull. Session-free analysis lives in internal/plan;
// everything here binds it to a session.

// planEntry is one cached plan with the epoch it was built under, and
// for an UPDATE the table ordinals of its SET columns, in SET order.
type planEntry struct {
	p      *plan.Plan
	epoch  uint64
	setIdx []int
}

// invalidatePlans drops every cached plan by bumping the epoch (the
// cheap, lock-free half; stale sync.Map entries are deleted lazily on
// next lookup). Called on every DDL, DROP, and shard-guard change.
func (e *Engine) invalidatePlans() {
	e.planEpoch.Add(1)
}

// planFor returns the analyzed plan for st — a SELECT, or an UPDATE or
// DELETE, whose plan is that of its targets (selectOf) — consulting the
// plan cache under the statement's AST node. Plans are cached only for
// an empty strip set: a declassifying view's strip is baked into its
// scan nodes, and the same AST can be reached with different strips
// through different view nestings. An UPDATE's SET columns are
// resolved with its plan, before it is built.
func (s *Session) planFor(st sql.Statement, strip label.Label) (*planEntry, error) {
	e := s.eng
	epoch := e.planEpoch.Load()
	cacheable := len(strip) == 0
	if cacheable {
		if v, ok := e.planCache.Load(st); ok {
			ent := v.(*planEntry)
			if ent.epoch == epoch {
				mPlanCacheHits.Inc()
				return ent, nil
			}
			e.planCache.Delete(st)
		}
	}
	ent := &planEntry{epoch: epoch}
	if up, ok := st.(*sql.UpdateStmt); ok {
		var err error
		if ent.setIdx, err = s.setOrdinals(up); err != nil {
			return nil, err
		}
	}
	p, err := plan.Build(e.cat, selectOf(st), strip)
	if err != nil {
		return nil, err
	}
	ent.p = p
	mPlans.Inc()
	if cacheable {
		e.planCache.Store(st, ent)
	}
	return ent, nil
}

// setOrdinals resolves an UPDATE's SET columns to ordinals of its table.
func (s *Session) setOrdinals(up *sql.UpdateStmt) ([]int, error) {
	t, err := s.writableTable(up.Table)
	if err != nil {
		return nil, err
	}
	setIdx := make([]int, len(up.Set))
	for i, sc := range up.Set {
		ci, ok := t.ColIndex(sc.Column)
		if !ok {
			return nil, fmt.Errorf("engine: no column %q in %q", sc.Column, t.Name)
		}
		setIdx[i] = ci
	}
	return setIdx, nil
}

// selectOf is the SELECT whose plan serves st: st itself, or for
// UPDATE t … WHERE p and DELETE FROM t WHERE p the statement that reads
// their targets, SELECT * FROM t WHERE p. The identity projection opens
// as the bare filtered scan, whose rows carry their TID.
func selectOf(st sql.Statement) *sql.SelectStmt {
	var table string
	var where sql.Expr
	switch x := st.(type) {
	case *sql.SelectStmt:
		return x
	case *sql.UpdateStmt:
		table, where = x.Table, x.Where
	case *sql.DeleteStmt:
		table, where = x.Table, x.Where
	}
	return &sql.SelectStmt{
		Items: []sql.SelectItem{{Star: true}},
		From:  &sql.TableRef{Name: table},
		Where: where,
	}
}

// bindRuntime fills s.rt with the plan.Runtime hooks that depend on
// nothing but the session, once, so that opening a plan allocates no
// closure over them.
func (s *Session) bindRuntime() {
	s.rt = plan.Runtime{
		Funcs: sessionFuncs{s},
		Check: s.checkCanceled,
		Node:  s.nodeRow,
		OnScanned: func(visited, denied, stored int64) {
			mRowsScanned.Add(visited)
			mLabelDenials.Add(denied)
			mRowsStored.Add(stored)
		},
	}
	if s.eng.cfg.IFC {
		s.rt.Confinement = confiner{s}
	}
}

// planRuntime binds qc's Runtime to this session's statement
// transaction and returns it. The transaction's snapshot predicate is
// a method value, built once per transaction, not per statement.
func (s *Session) planRuntime(qc *qctx) *plan.Runtime {
	if s.visibleTx != s.stmtTx {
		s.visibleTx, s.rt.Visible = s.stmtTx, s.stmtTx.Visible
	}
	qc.rt.Visible = s.rt.Visible
	return &qc.rt
}

// openSelect plans a SELECT under qc's strip and opens it as a live
// iterator against the statement transaction, which must stay open
// until the caller Closes the handle. A buffered SELECT, a subquery
// and a streaming cursor all open here.
func (s *Session) openSelect(sel *sql.SelectStmt, qc *qctx) (*plan.Plan, plan.Handle, error) {
	ent, err := s.planFor(sel, qc.strip)
	if err != nil {
		return nil, plan.Handle{}, err
	}
	h, err := ent.p.Open(s.planRuntime(qc))
	return ent.p, h, err
}

// executeSelect runs a SELECT to a buffered Result. Subqueries and the
// source of INSERT … SELECT come through here too, under the strip of
// the view they sit in.
func (s *Session) executeSelect(sel *sql.SelectStmt, qc *qctx) (*Result, error) {
	p, it, err := s.openSelect(sel, qc)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	res := &Result{Cols: p.Cols()}
	res.Rows = res.row1[:0]
	ifc := s.eng.cfg.IFC
	if ifc {
		res.RowLabels = res.label1[:0]
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

// explain renders the analyzed plan of st as a one-column result, one
// operator per row; an UPDATE or DELETE shows its target plan under a
// line naming the write. Nothing is executed.
func (s *Session) explain(st sql.Statement) (*Result, error) {
	var write, table string
	switch x := st.(type) {
	case *sql.SelectStmt:
	case *sql.UpdateStmt:
		write, table = "Update ", x.Table
	case *sql.DeleteStmt:
		write, table = "Delete ", x.Table
	default:
		return nil, fmt.Errorf("engine: EXPLAIN supports only SELECT, UPDATE and DELETE")
	}
	var lines []string
	if write != "" {
		if _, err := s.writableTable(table); err != nil {
			return nil, err
		}
		lines = append(lines, write+table)
	}
	ent, err := s.planFor(st, nil)
	if err != nil {
		return nil, err
	}
	lines = append(lines, strings.Split(strings.TrimRight(ent.p.Explain(), "\n"), "\n")...)
	res := &Result{Cols: []string{"plan"}}
	for _, ln := range lines {
		res.Rows = append(res.Rows, []types.Value{types.NewText(ln)})
	}
	if s.eng.cfg.IFC {
		res.RowLabels = make([]label.Label, len(res.Rows))
	}
	return res, nil
}
