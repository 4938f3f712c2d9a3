// Scatter-gather distributed reads: the client half of the distplan
// subsystem (internal/distplan). A keyless read over a sharded
// cluster is split at the shard boundary into a per-shard fragment —
// scan, pushed predicates, projection, and *partial* aggregation —
// and a gateway merge over the fragments' streams: a tree of the
// engine's own operators (internal/plan) — ordered merge, aggregate
// with SUM-of-COUNTs / AVG recomposition, re-applied HAVING, sort,
// DISTINCT, LIMIT. Statements the gateway cannot finalize exactly
// (engine-resident functions, subqueries, joins, views) are never
// split: with nothing to merge they take the bounded-concurrency union
// of the per-shard streams, and with an ORDER BY, LIMIT, OFFSET,
// DISTINCT or aggregate they are refused with ErrUnmergeable.
//
// Every shard stream opens through the Router's one read loop
// (router.go: read, targeted at the shard's group), so a fan-out keeps
// the whole read discipline — pooled connections, per-shard
// read-your-writes waits, the routing counters, and the mid-merge
// stale-map adopt-and-retry — and Exec of a keyless read is this same
// stream drained, window and all. Closing the merged stream cancels
// the fan-out context, which crosses the wire as CANCEL to every shard
// stream still open.

package client

import (
	"context"
	"fmt"
	"sync"

	"ifdb/internal/distplan"
	"ifdb/internal/sql"
	"ifdb/internal/types"
)

// splitKey keys the split cache: the statement text plus the pushdown
// toggle (two Routers over the same cluster may disagree on it).
type splitKey struct {
	text      string
	noPartial bool
}

type splitEntry struct {
	sp  *distplan.Spec // nil = analyzed and not splittable
	err error          // the refusal, when the answer needs a merge
}

// ErrUnmergeable is the error a keyless sharded read gets when its
// answer needs a merge the gateway cannot do (see distplan).
type ErrUnmergeable = distplan.ErrUnmergeable

// splitCache memoizes distplan.Analyze by statement text, negative
// results and refusals included. Bounded like planCache: past the cap
// an arbitrary entry is evicted (re-splitting is a parse + render).
var (
	splitMu    sync.Mutex
	splitCache = make(map[splitKey]*splitEntry)
)

const splitCacheCap = 512

func splitFor(text string, noPartial bool) (*distplan.Spec, error) {
	k := splitKey{text: text, noPartial: noPartial}
	splitMu.Lock()
	if e, ok := splitCache[k]; ok {
		splitMu.Unlock()
		return e.sp, e.err
	}
	splitMu.Unlock()
	sp, err := distplan.Analyze(text, distplan.Options{NoPartial: noPartial})
	splitMu.Lock()
	if len(splitCache) >= splitCacheCap {
		for kk := range splitCache {
			delete(splitCache, kk)
			break
		}
	}
	splitCache[k] = &splitEntry{sp: sp, err: err}
	splitMu.Unlock()
	return sp, err
}

// splitSpec returns the scatter decomposition of a keyless sharded
// read; nil and no error means the union of the shards' streams is the
// answer. Beyond distplan's own refusals the Router only splits scans
// of base tables in the shard map's key table: a view is not in it, so
// a view-backed read — a declassifying view in particular, whose label
// stripping must not be re-derived by gateway arithmetic — that needs
// a merge is refused.
func (r *Router) splitSpec(text string, m *ShardMap) (*distplan.Spec, error) {
	sp, err := splitFor(text, r.cfg.DisableAggPushdown)
	if sp != nil && m.KeyColumn(sp.Table) == "" {
		return nil, &ErrUnmergeable{Reason: sp.Table + " is a view or a table outside the shard map"}
	}
	return sp, err
}

// streamRows adapts a distplan stream to the client Rows interface.
type streamRows struct{ st distplan.Stream }

func (s *streamRows) Columns() []string      { return s.st.Columns() }
func (s *streamRows) Next() bool             { return s.st.Next() }
func (s *streamRows) Row() []Value           { return s.st.Row() }
func (s *streamRows) RowLabel() Label        { return s.st.RowLabel() }
func (s *streamRows) Scan(dest ...any) error { return scanRow(s.st.Row(), dest) }
func (s *streamRows) Err() error             { return s.st.Err() }

func (s *streamRows) Close() error {
	s.st.Close()
	return s.st.Err()
}

// scatterConfig wires a gateway merge (or union) to the cluster. Each
// shard's fragment stream opens through read under a fan-out context;
// the merge's close cancels it, propagating CANCEL to every shard
// stream still open.
func (r *Router) scatterConfig(ctx context.Context, frag routedStmt, m *ShardMap, params []Value) distplan.Config {
	gctx, cancel := context.WithCancel(ctx)
	return distplan.Config{
		Open: func(shard int) (distplan.Stream, error) {
			return r.read(gctx, frag, shardTarget(uint32(shard)), params)
		},
		Shards: len(m.Shards),
		Window: r.cfg.MaxFanout,
		Params: params,
		Wrap: func(shard int, err error) error {
			mShardErrors.Inc()
			return fmt.Errorf("client: fan-out read on shard %d: %w", shard, err)
		},
		OnClose: cancel,
	}
}

// scatterRows serves a keyless sharded streaming read. Split
// statements run their fragment on every shard and merge through the
// distplan gateway; a statement with nothing to merge concatenates the
// per-shard streams in shard order with the same bounded in-flight
// window.
func (r *Router) scatterRows(ctx context.Context, rs routedStmt, params []Value) (Rows, error) {
	m := r.shardMap()
	mFanoutWidth.Observe(int64(len(m.Shards)))
	if rows, done, err := r.scatterExplain(ctx, rs, m, params); done {
		return rows, err
	}
	sp, err := r.splitSpec(rs.sqlText, m)
	if err != nil {
		return nil, err
	}
	if sp != nil {
		frag := routedStmt{sqlText: sp.Fragment, plan: planFor(sp.Fragment), prepared: rs.prepared, toks: rs.toks}
		st, err := sp.Gateway(r.scatterConfig(ctx, frag, m, params))
		if err != nil {
			return nil, err
		}
		if e := st.Err(); e != nil {
			st.Close()
			return nil, e
		}
		return &streamRows{st: st}, nil
	}
	st := distplan.Union(r.scatterConfig(ctx, rs, m, params))
	if err := st.Err(); err != nil {
		st.Close()
		return nil, err
	}
	return &streamRows{st: st}, nil
}

// scatterExplain synthesizes the distributed plan for a keyless
// EXPLAIN over a splittable SELECT: the gateway merge recipe, then
// shard 0's plan for the fragment indented beneath it. done=false
// means the statement is not such an EXPLAIN — an unmergeable SELECT
// included — and the caller falls through to the ordinary fan-out
// (per-shard plans concatenated).
func (r *Router) scatterExplain(ctx context.Context, rs routedStmt, m *ShardMap, params []Value) (Rows, bool, error) {
	if !rs.plan.explain {
		return nil, false, nil
	}
	stmts, err := sql.ParseAll(rs.sqlText)
	if err != nil || len(stmts) != 1 {
		return nil, false, nil
	}
	ex, ok := stmts[0].(*sql.ExplainStmt)
	if !ok {
		return nil, false, nil
	}
	sel, ok := ex.Stmt.(*sql.SelectStmt)
	if !ok {
		return nil, false, nil
	}
	text, err := sql.FormatSelect(sel)
	if err != nil {
		return nil, false, nil
	}
	sp, _ := r.splitSpec(text, m)
	if sp == nil {
		return nil, false, nil
	}
	lines := sp.Describe(len(m.Shards), r.cfg.MaxFanout)
	fragText := "EXPLAIN " + sp.Fragment
	frag := routedStmt{sqlText: fragText, plan: planFor(fragText), toks: rs.toks}
	rows, err := r.read(ctx, frag, shardTarget(0), params)
	if err != nil {
		return nil, true, fmt.Errorf("client: fan-out read on shard 0: %w", err)
	}
	for rows.Next() {
		lines = append(lines, "     "+rows.Row()[0].String())
	}
	if cerr := rows.Close(); cerr != nil {
		return nil, true, fmt.Errorf("client: fan-out read on shard 0: %w", cerr)
	}
	res := &Result{Cols: []string{"plan"}}
	for _, ln := range lines {
		res.Rows = append(res.Rows, []Value{types.NewText(ln)})
	}
	return &bufferedRows{res: res, i: -1}, true, nil
}
