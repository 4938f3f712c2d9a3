// Prepared statements: the client half of the PREPARE/EXECUTE/
// CLOSESTMT frames of API v2. A Stmt pins a statement's parsed AST
// server-side, so executions ship only a handle and parameters —
// no re-parsing, no statement text on the hot path.

package client

import (
	"context"

	"ifdb/internal/wire"
)

// Stmt is a prepared statement on one Conn. Like the Conn it is not
// safe for concurrent use. Its server-side handle lives as long as the
// connection: a Stmt of a broken Conn fails as the Conn does, and its
// owner prepares the statement again on the Conn that replaces it.
type Stmt struct {
	c       *Conn
	sqlText string

	id        uint64
	numParams int

	// cached marks a Stmt owned by the conn's preparedFor cache:
	// Close keeps it alive for the next borrower.
	cached bool

	closed bool
}

// Prepare parses and pins a statement server-side, returning its
// handle.
func (c *Conn) Prepare(sqlText string) (*Stmt, error) {
	resp, err := c.roundTrip(wire.MsgPrepare, (&wire.Prepare{SQL: sqlText}).Encode(), wire.MsgPrepareRes)
	if err != nil {
		return nil, err
	}
	res, err := wire.DecodePrepareRes(resp)
	if err != nil {
		return nil, err
	}
	if res.Err != "" {
		return nil, &serverError{msg: res.Err}
	}
	return &Stmt{c: c, sqlText: sqlText, id: res.StmtID, numParams: int(res.NumParams)}, nil
}

// SQL returns the statement's text.
func (s *Stmt) SQL() string { return s.sqlText }

// NumParams returns the number of positional parameters the statement
// binds.
func (s *Stmt) NumParams() int { return s.numParams }

// Exec executes the prepared statement, buffering the result.
func (s *Stmt) Exec(params ...Value) (*Result, error) {
	return s.ExecContext(context.Background(), params...)
}

// ExecContext is Exec with deadline/cancel propagation (see
// Conn.ExecContext for the cancellation semantics).
func (s *Stmt) ExecContext(ctx context.Context, params ...Value) (*Result, error) {
	return s.c.execCtx(ctx, s, 0, 0, "", params)
}

// Query executes the prepared statement and streams the result.
func (s *Stmt) Query(params ...Value) (Rows, error) {
	return s.QueryContext(context.Background(), params...)
}

// QueryContext is Query with deadline/cancel propagation. The context
// governs the whole iteration, not just the first chunk.
func (s *Stmt) QueryContext(ctx context.Context, params ...Value) (Rows, error) {
	return s.c.queryCtx(ctx, s, 0, 0, "", params, nil)
}

// Close drops the server-side handle: its CLOSESTMT frame (which has
// no reply) rides ahead of the connection's next frame. Safe to call
// twice. Statements owned by the conn's cache ignore Close — the next
// borrower reuses them.
func (s *Stmt) Close() error {
	if s.cached || s.closed {
		return nil
	}
	s.closed = true
	s.c.closing = append(s.c.closing, s.id)
	return nil
}

// preparedStmtCacheCap bounds the per-conn statement cache the Router
// uses; past it, an arbitrary victim is closed and evicted.
const preparedStmtCacheCap = 128

// preparedFor returns this connection's cached prepared statement for
// sqlText, preparing (and caching) it on first use. The Router calls
// it so a pooled conn prepares each routed statement at most once.
func (c *Conn) preparedFor(sqlText string) (*Stmt, error) {
	if st := c.stmts[sqlText]; st != nil {
		return st, nil
	}
	st, err := c.Prepare(sqlText)
	if err != nil {
		return nil, err
	}
	st.cached = true
	if c.stmts == nil {
		c.stmts = make(map[string]*Stmt)
	}
	if len(c.stmts) >= preparedStmtCacheCap {
		for k, victim := range c.stmts {
			victim.cached = false
			_ = victim.Close()
			delete(c.stmts, k)
			break
		}
	}
	c.stmts[sqlText] = st
	return st, nil
}
