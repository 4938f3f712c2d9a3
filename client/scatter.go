// Scatter-gather distributed reads: the client half of the distplan
// subsystem (internal/distplan). A keyless read over a sharded
// cluster runs a per-shard fragment on every shard and merges the
// fragments' streams through one gateway: a tree of the engine's own
// operators (internal/plan) over the shard streams. A splittable read
// is cut at the shard boundary — the fragment scans, pushes
// predicates, projects and *partially* aggregates, and the gateway
// tree finalizes: ordered merge, aggregate with SUM-of-COUNTs / AVG
// recomposition, re-applied HAVING, sort, DISTINCT, LIMIT. A read with
// nothing to merge is its own fragment, and its gateway tree is the
// shard-order union alone, the same bounded in-flight window and all.
// Statements the gateway cannot finalize exactly (engine-resident
// functions, subqueries, joins, views) are never split: with nothing
// to merge they take the union, and with an ORDER BY, LIMIT, OFFSET,
// DISTINCT or aggregate they are refused with ErrUnmergeable. EXPLAIN
// of a keyless SELECT renders the gateway tree with the engine's own
// EXPLAIN, then shard 0's plan for the fragment.
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
	"ifdb/internal/types"
)

// splitKey keys the split cache: the statement text plus the pushdown
// toggle (two Routers over the same cluster may disagree on it).
type splitKey struct {
	text      string
	noPartial bool
}

type splitEntry struct {
	sp  *distplan.Spec // the gateway recipe; nil when refused
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

// splitSpec returns the gateway recipe of a keyless sharded read: its
// split, or the union of the shards' streams when that is the answer.
// Beyond distplan's own refusals the Router only splits scans of base
// tables in the shard map's key table: a view is not in it, so a
// view-backed read — a declassifying view in particular, whose label
// stripping must not be re-derived by gateway arithmetic — that needs
// a merge is refused.
func (r *Router) splitSpec(text string, m *ShardMap) (*distplan.Spec, error) {
	sp, err := splitFor(text, r.cfg.DisableAggPushdown)
	if sp != nil && sp.Mode != distplan.ModeUnion && m.KeyColumn(sp.Table) == "" {
		return nil, &ErrUnmergeable{Reason: sp.Table + " is a view or a table outside the shard map"}
	}
	return sp, err
}

// streamRows is a gateway stream as client Rows.
type streamRows struct{ distplan.Stream }

func (s streamRows) Scan(dest ...any) error { return scanRow(s.Row(), dest) }

func (s streamRows) Close() error {
	s.Stream.Close()
	return s.Err()
}

// scatterConfig wires a gateway merge to the cluster. Each shard's
// fragment stream opens through read under a fan-out context; the
// merge's close cancels it, propagating CANCEL to every shard stream
// still open.
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

// scatterRows serves a keyless sharded streaming read: its fragment
// runs on every shard, and the distplan gateway merges the streams.
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
	frag := routedStmt{sqlText: sp.Fragment, plan: planFor(sp.Fragment), prepared: rs.prepared, toks: rs.toks}
	st, err := sp.Gateway(r.scatterConfig(ctx, frag, m, params))
	if err != nil {
		return nil, err
	}
	return streamRows{st}, nil
}

// scatterExplain synthesizes the distributed plan for a keyless
// EXPLAIN of a SELECT: the gateway tree, then shard 0's plan for the
// fragment indented beneath it. done=false means the statement is not
// such an EXPLAIN — an unmergeable SELECT included — and the caller
// falls through to the union of every shard's plan.
func (r *Router) scatterExplain(ctx context.Context, rs routedStmt, m *ShardMap, params []Value) (Rows, bool, error) {
	if rs.plan.explained == "" {
		return nil, false, nil
	}
	sp, err := r.splitSpec(rs.plan.explained, m)
	if err != nil {
		return nil, false, nil
	}
	lines := sp.Explain(distplan.Config{Shards: len(m.Shards), Window: r.cfg.MaxFanout})
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
