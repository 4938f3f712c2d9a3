package engine

import (
	"errors"
	"time"

	"ifdb/internal/sql"
	"ifdb/internal/types"
)

// Prepared statements and statement cancellation: the engine half of
// the client API v2 (see ARCHITECTURE.md § Client API v2).
//
// A Prepared pins a statement batch's parsed AST for the lifetime of
// the handle, so repeated executions skip the parser (and even the
// parse-cache lookup) entirely — the optimization every real DBMS
// has, now reachable over the wire instead of only engine-side.

// ErrCanceled is returned by a statement interrupted by
// Session.Cancel. The statement's transaction is aborted through the
// ordinary error path: an autocommit transaction rolls back, an
// explicit one is aborted wholesale (PostgreSQL semantics).
var ErrCanceled = errors.New("engine: statement canceled")

// Prepared is a parsed, pinned statement batch. It is bound to no
// session (the AST is read-only during execution) but carries no
// synchronization: callers serialize executions per session as they
// do every other session operation.
type Prepared struct {
	// Text is the original statement batch.
	Text string
	// NumParams is the largest positional-parameter index the batch
	// binds.
	NumParams int

	// stmts is the pinned AST; nil when the batch contains DDL, whose
	// AST is consumed by execution and must be re-parsed per run.
	stmts []sql.Statement
}

// Prepare parses a statement batch once and pins the AST. The parse
// goes through the engine's parse cache, so preparing an
// already-cached text costs one map lookup and no parser invocation.
func (s *Session) Prepare(query string) (*Prepared, error) {
	stmts, err := s.eng.parseCached(query)
	if err != nil {
		return nil, err
	}
	p := &Prepared{Text: query, NumParams: sql.MaxParam(stmts)}
	if cacheableStmts(stmts) {
		p.stmts = stmts
	}
	return p, nil
}

// cacheableStmts reports whether a batch's AST survives execution:
// read and DML statements do; DDL ASTs are consumed by execution and
// must stay private to one run.
func cacheableStmts(stmts []sql.Statement) bool {
	for _, st := range stmts {
		switch st.(type) {
		case *sql.SelectStmt, *sql.ExplainStmt, *sql.InsertStmt, *sql.UpdateStmt,
			*sql.DeleteStmt, *sql.BeginStmt, *sql.CommitStmt, *sql.RollbackStmt:
		default:
			return false
		}
	}
	return true
}

// ExecPrepared executes a prepared batch with no parser involvement
// (DDL batches fall back to text execution, re-parsing per run).
func (s *Session) ExecPrepared(p *Prepared, params ...types.Value) (*Result, error) {
	stmts, top, err := s.statements(p.Text, p.stmts)
	if err != nil {
		return nil, err
	}
	return s.run(stmts, top, params)
}

// ---------------------------------------------------------------------------
// Cancellation

// Cancel interrupts the session's currently running statement: the
// statement fails with ErrCanceled at its next check point (per-row
// in scans, per-slice in sleep()), and the failure aborts its
// transaction through the ordinary error path. Safe to call from any
// goroutine — it is the one session operation that is: the wire
// server invokes it from an out-of-band cancel connection.
//
// Cancellation is flag-based, so a cancel that arrives between
// statements marks the *next* statement (the same benign race
// PostgreSQL's cancel protocol has); ResetCancel clears the flag
// before a new statement when the caller can bound the race.
func (s *Session) Cancel() {
	s.canceled.Store(true)
	mCancels.Inc()
}

// ResetCancel clears a pending cancel. The wire server calls it as
// each statement arrives, bounding the cancel's scope to the
// statement that was actually running when it was sent.
func (s *Session) ResetCancel() { s.canceled.Store(false) }

// Canceled reports whether a cancel is pending. The wire server polls
// it between ROWS chunks so a cancel that lands after execution but
// mid-stream still cuts the response short instead of pushing the
// rest of a large result at an uninterested client.
func (s *Session) Canceled() bool { return s.canceled.Load() }

// checkCanceled is the statement-side check point.
func (s *Session) checkCanceled() error {
	if s.canceled.Load() {
		return ErrCanceled
	}
	return nil
}

// cancelableSleep sleeps for d in short slices, aborting early (with
// ErrCanceled) when the session is canceled — the sleep() SQL builtin,
// which exists so cancellation can be exercised deterministically.
func (s *Session) cancelableSleep(d time.Duration) error {
	const slice = 2 * time.Millisecond
	deadline := time.Now().Add(d)
	for {
		if err := s.checkCanceled(); err != nil {
			return err
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil
		}
		if remain > slice {
			remain = slice
		}
		time.Sleep(remain)
	}
}
