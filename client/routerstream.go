// Router streaming and prepared statements: the Router half of API
// v2. Reads stream (router.go: routeRead picks the group, read opens
// the stream; Exec of a read is the same stream drained) — a fan-out
// read runs through the distplan scatter-gather layer (scatter.go):
// split statements push work to the shards and merge at the gateway,
// a statement with nothing to merge concatenates the per-shard streams
// in shard order with a bounded in-flight window, and one that needs a
// merge the gateway cannot do is refused — and prepared statements
// route off the shard-key derivation computed once at prepare time by
// the SQL parser (classify.go / shardkey.go), executing through
// per-connection prepared handles.

package client

import (
	"context"
	"errors"
)

// Query routes one statement and streams the result.
func (r *Router) Query(sqlText string, params ...Value) (Rows, error) {
	return r.QueryContext(context.Background(), sqlText, params...)
}

// QueryContext routes one statement and streams the result under
// ctx. Read-only statements stream from the serving node (fan-out
// reads merge the per-shard streams lazily); anything else executes
// exactly like ExecContext and the buffered result is replayed
// through the Rows interface.
func (r *Router) QueryContext(ctx context.Context, sqlText string, params ...Value) (Rows, error) {
	return r.query(ctx, routedStmt{sqlText: sqlText, plan: planFor(sqlText)}, params)
}

// ---------------------------------------------------------------------------
// Buffered replay (non-read statements issued through Query)

// bufferedRows replays an already-buffered Result through the Rows
// interface.
type bufferedRows struct {
	res    *Result
	i      int
	closed bool
}

func (b *bufferedRows) Columns() []string { return b.res.Cols }

func (b *bufferedRows) Next() bool {
	if b.closed {
		return false
	}
	b.i++
	return b.i < len(b.res.Rows)
}

func (b *bufferedRows) Row() []Value {
	if b.i < 0 || b.i >= len(b.res.Rows) {
		return nil
	}
	return b.res.Rows[b.i]
}

func (b *bufferedRows) RowLabel() Label {
	if b.res.RowLabels == nil || b.i < 0 || b.i >= len(b.res.RowLabels) {
		return nil
	}
	return b.res.RowLabels[b.i]
}

func (b *bufferedRows) Scan(dest ...any) error { return scanRow(b.Row(), dest) }
func (b *bufferedRows) Err() error             { return nil }
func (b *bufferedRows) Close() error           { b.closed = true; return nil }

// ---------------------------------------------------------------------------
// Router prepared statements

// RouterStmt is a statement prepared against the cluster: its routing
// plan — classification and shard-key derivation through the real SQL
// parser — is computed once at prepare time, and executions route off
// it, shipping per-connection prepared handles instead of text. The
// plan derives the key from the statement's parameters on every
// execution, so one prepared `INSERT ... VALUES ($1, ...)` hits
// whichever shard each execution's $1 hashes to.
type RouterStmt struct {
	r      *Router
	rs     routedStmt
	closed bool
}

// Prepare analyzes sqlText once and validates it against a reachable
// node (so SQL errors surface now, not on first execution). The
// statement handles themselves are per pooled connection, prepared
// lazily as executions touch each conn.
func (r *Router) Prepare(sqlText string) (*RouterStmt, error) {
	plan := planFor(sqlText)
	if plan.txnControl {
		return nil, errors.New("client: the Router cannot prepare transaction-control statements")
	}
	st := &RouterStmt{r: r, rs: routedStmt{sqlText: sqlText, plan: plan, prepared: true}}
	// Best-effort eager validation on the primary (or shard 0's): a
	// server-side parse error fails Prepare; an unreachable node does
	// not — the statement will prepare lazily when the cluster heals.
	g := r.cluster()
	if m := r.shardMap(); m != nil {
		g = shardGroup(m, 0)
	}
	if addr := r.primaryOf(g); addr != "" {
		if c, _, err := r.checkout(addr); err == nil {
			_, perr := c.preparedFor(sqlText)
			r.release(addr, c)
			if perr != nil && !IsTransportError(perr) {
				return nil, perr
			}
		}
	}
	return st, nil
}

// Exec executes the prepared statement, routing by the prepare-time
// plan.
func (s *RouterStmt) Exec(params ...Value) (*Result, error) {
	return s.ExecContext(context.Background(), params...)
}

// ExecContext is Exec with deadline/cancel propagation.
func (s *RouterStmt) ExecContext(ctx context.Context, params ...Value) (*Result, error) {
	if s.closed {
		return nil, &clientError{msg: "client: statement is closed"}
	}
	return s.r.exec(ctx, s.rs, params)
}

// Query executes the prepared statement and streams the result.
func (s *RouterStmt) Query(params ...Value) (Rows, error) {
	return s.QueryContext(context.Background(), params...)
}

// QueryContext is Query with deadline/cancel propagation.
func (s *RouterStmt) QueryContext(ctx context.Context, params ...Value) (Rows, error) {
	if s.closed {
		return nil, &clientError{msg: "client: statement is closed"}
	}
	return s.r.query(ctx, s.rs, params)
}

// SQL returns the statement's text.
func (s *RouterStmt) SQL() string { return s.rs.sqlText }

// Close marks the statement closed. The per-connection handles are
// owned by the conns' caches and stay warm for other statements of
// the same text.
func (s *RouterStmt) Close() error {
	s.closed = true
	return nil
}
