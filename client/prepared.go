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
// safe for concurrent use. A Stmt survives AutoReconnect: server-side
// handles die with their connection, so the Stmt transparently
// re-prepares itself on the fresh connection before executing.
type Stmt struct {
	c       *Conn
	sqlText string

	id        uint64
	numParams int
	gen       int // conn generation the handle was prepared under

	// plan is the Router's prepare-time analysis (classification and
	// shard-key derivation via the real SQL parser); nil for plain
	// Conn statements. See shardkey.go.
	plan *stmtPlan

	// cached marks a Stmt owned by the conn's preparedFor cache:
	// Close keeps it alive for the next borrower.
	cached bool

	closed bool
}

// Prepare parses and pins a statement server-side, returning its
// handle. With AutoReconnect, a broken connection is redialed and the
// prepare retried once (preparing is idempotent).
func (c *Conn) Prepare(sqlText string) (*Stmt, error) {
	s := &Stmt{c: c, sqlText: sqlText}
	err := s.prepare()
	if err != nil && c.cfg.AutoReconnect && retryable(err) {
		if rerr := c.redial(); rerr != nil {
			return nil, rerr
		}
		err = s.prepare()
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// prepare round-trips a PREPARE frame and adopts the handle.
func (s *Stmt) prepare() error {
	resp, err := s.c.roundTrip(wire.MsgPrepare, (&wire.Prepare{SQL: s.sqlText}).Encode(), wire.MsgPrepareRes)
	if err != nil {
		return err
	}
	res, err := wire.DecodePrepareRes(resp)
	if err != nil {
		return err
	}
	if res.Err != "" {
		return &serverError{msg: res.Err}
	}
	s.id = res.StmtID
	s.numParams = int(res.NumParams)
	s.gen = s.c.gen
	return nil
}

// ensure re-prepares the statement when the connection was redialed
// since the handle was issued (handles are connection-scoped).
func (s *Stmt) ensure() error {
	if s.closed {
		return &clientError{msg: "client: statement is closed"}
	}
	if s.gen == s.c.gen {
		return nil
	}
	return s.prepare()
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

// Close drops the server-side handle. Fire-and-forget (no reply
// frame); safe to call twice. Statements owned by the conn's cache
// ignore Close — the next borrower reuses them.
func (s *Stmt) Close() error {
	if s.cached || s.closed {
		return nil
	}
	s.closed = true
	// Only the generation that issued the handle can close it; after
	// a redial there is nothing server-side to drop.
	if s.gen != s.c.gen || s.c.broken || s.c.stream != nil {
		return nil
	}
	if err := wire.WriteFrame(s.c.w, wire.MsgCloseStmt, (&wire.CloseStmt{StmtID: s.id}).Encode()); err != nil {
		return err
	}
	return s.c.w.Flush()
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
