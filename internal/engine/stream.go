package engine

import (
	"time"

	"ifdb/internal/label"
	"ifdb/internal/plan"
	"ifdb/internal/sql"
	"ifdb/internal/txn"
	"ifdb/internal/types"
)

// Cursor is an incrementally-consumed statement result: the engine
// half of end-to-end streaming. For a single SELECT it holds a live
// iterator — the statement's transaction stays open while the caller
// pulls batches, and neither the engine nor the caller ever
// materializes the result. Everything else (DML, DDL, multi-statement
// batches) falls back to a materialized Result served through the same
// interface.
//
// A Cursor is part of its session's statement lifecycle: while open it
// owns the session's statement transaction, and NextBatch/Close resolve
// that transaction exactly as a materialized statement would (commit on
// clean exhaustion in autocommit, abort on error or abandonment, whole-
// transaction abort inside an explicit transaction). Callers must fully
// consume or Close the cursor before issuing the session's next
// statement.
type Cursor struct {
	s    *Session
	cols []string
	ifc  bool

	// Streaming state (nil it → materialized fallback).
	it       plan.Iter
	rows     [][]types.Value // the batch NextBatch last returned, reused
	labels   []label.Label
	stmtTx   *txn.Txn // transaction the cursor runs under
	auto     bool     // stmtTx is a cursor-owned autocommit transaction
	explicit bool     // stmtTx is the session's explicit transaction

	// Materialized fallback.
	res *Result
	off int

	execT0 time.Time
	done   bool
	err    error
}

// streamableStmts reports whether a parsed batch can run as a live
// cursor: exactly one SELECT (only a SELECT's plan yields the rows the
// client reads — an UPDATE's or DELETE's yields targets, drained before
// the first write — and a multi-statement batch returns the last result
// only after running the others to completion).
func streamableStmts(stmts []sql.Statement) (*sql.SelectStmt, bool) {
	if len(stmts) != 1 {
		return nil, false
	}
	sel, ok := stmts[0].(*sql.SelectStmt)
	return sel, ok
}

// ExecStream executes query, returning a cursor over its result. A
// single SELECT streams; anything else executes eagerly (through Exec)
// and the cursor serves the materialized result.
func (s *Session) ExecStream(query string, params ...types.Value) (*Cursor, error) {
	s.beginStmtStats(query)
	t0 := time.Now()
	stmts, err := s.eng.parseCached(query)
	s.stats.ParseNs = time.Since(t0).Nanoseconds()
	if err != nil {
		return nil, err
	}
	if sel, ok := streamableStmts(stmts); ok {
		return s.openCursor(sel, params)
	}
	res, err := s.Exec(query, params...)
	if err != nil {
		return nil, err
	}
	return s.materializedCursor(res), nil
}

// ExecPreparedStream is ExecStream over a prepared handle: a prepared
// single SELECT streams from its cached plan with no parser (and no
// parse-cache) involvement at all.
func (s *Session) ExecPreparedStream(p *Prepared, params ...types.Value) (*Cursor, error) {
	if p.stmts == nil {
		return s.ExecStream(p.Text, params...)
	}
	if sel, ok := streamableStmts(p.stmts); ok {
		s.beginStmtStats(p.Text)
		return s.openCursor(sel, params)
	}
	res, err := s.ExecPrepared(p, params...)
	if err != nil {
		return nil, err
	}
	return s.materializedCursor(res), nil
}

// materializedCursor wraps an eagerly-computed result.
func (s *Session) materializedCursor(res *Result) *Cursor {
	return &Cursor{s: s, cols: res.Cols, ifc: s.eng.cfg.IFC, res: res}
}

// openCursor builds the plan, opens the statement transaction, and
// opens the iterator — the streaming analogue of withStmt's entry.
func (s *Session) openCursor(sel *sql.SelectStmt, params []types.Value) (*Cursor, error) {
	if err := s.checkCanceled(); err != nil {
		return nil, err
	}
	c := &Cursor{s: s, ifc: s.eng.cfg.IFC, execT0: time.Now()}
	switch {
	case s.stmtTx != nil && !s.stmtTx.Done():
		// Nested execution (a stored procedure opening a cursor): ride
		// the in-flight statement transaction, resolve nothing.
		c.stmtTx = s.stmtTx
	case s.tx != nil && !s.tx.Done():
		c.stmtTx = s.tx
		c.explicit = true
		s.stmtTx = s.tx
	default:
		c.stmtTx = s.beginTxn(txn.SnapshotIsolation)
		c.auto = true
		s.stmtTx = c.stmtTx
	}
	p, it, err := s.openSelect(sel, params)
	if err != nil {
		c.fail(err)
		return nil, err
	}
	c.it = it
	c.cols = p.Cols()
	return c, nil
}

// Cols returns the result's column names.
func (c *Cursor) Cols() []string { return c.cols }

// Affected returns the trailer's affected-rows count (materialized DML
// only; zero for streams).
func (c *Cursor) Affected() int {
	if c.res != nil {
		return c.res.Affected
	}
	return 0
}

// Streaming reports whether the cursor serves a live iterator (false:
// a materialized result is being sliced).
func (c *Cursor) Streaming() bool { return c.it != nil }

// NextBatch returns up to max rows (and, under IFC, their labels). An
// empty batch with a nil error means the result is exhausted and the
// statement's transaction has been resolved; an error means the
// statement failed and its transaction was aborted (discarding any
// rows pulled in the failing batch, as a materialized statement
// would). The two returned slices are the cursor's and are overwritten
// by its next NextBatch; the rows in them ([]types.Value) share the
// engine's tuple storage, are valid until the session's next statement
// and must not be modified.
func (c *Cursor) NextBatch(max int) ([][]types.Value, []label.Label, error) {
	if c.done {
		return nil, nil, c.err
	}
	if max <= 0 {
		max = 1
	}
	if c.res != nil {
		end := c.off + max
		if end > len(c.res.Rows) {
			end = len(c.res.Rows)
		}
		rows := c.res.Rows[c.off:end]
		var labels []label.Label
		if c.res.RowLabels != nil {
			labels = c.res.RowLabels[c.off:end]
		}
		c.off = end
		if c.off >= len(c.res.Rows) {
			c.done = true
		}
		return rows, labels, nil
	}
	c.rows, c.labels = c.rows[:0], c.labels[:0]
	for len(c.rows) < max {
		r, err := c.it.Next()
		if err != nil {
			c.fail(err)
			return nil, nil, err
		}
		if r == nil {
			if err := c.finish(); err != nil {
				return nil, nil, err
			}
			break
		}
		c.rows = append(c.rows, r.Vals)
		if c.ifc {
			c.labels = append(c.labels, r.Lbl)
		}
	}
	if !c.ifc {
		return c.rows, nil, nil
	}
	return c.rows, c.labels, nil
}

// Exhausted reports whether the batch NextBatch last returned ended the
// result: the statement has been resolved as on clean exhaustion, so
// its trailer (labels, commit token, affected count) is final and a
// further NextBatch returns no rows. A live iterator reports its end
// with the last rows only when they did not fill the batch; one that
// fills it exactly leaves the end to a following, empty batch.
func (c *Cursor) Exhausted() bool { return c.done && c.err == nil }

// Buffered returns how many result rows the cursor holds in memory: the
// batch it last returned when it streams, the whole result when it
// serves a materialized one.
func (c *Cursor) Buffered() int {
	if c.res != nil {
		return len(c.res.Rows)
	}
	return len(c.rows)
}

// finish resolves a cleanly-exhausted stream: close the iterator,
// commit the autocommit transaction (with the commit-label rule, as
// withStmt does), and restore the session's statement state.
func (c *Cursor) finish() error {
	c.done = true
	c.it.Close()
	s := c.s
	if c.auto || c.explicit {
		s.stmtTx = nil
	}
	s.stats.ExecNs = time.Since(c.execT0).Nanoseconds()
	if !c.auto {
		return nil
	}
	var commitLabel, commitILabel label.Label
	if s.eng.cfg.IFC {
		commitLabel = s.plabel
		commitILabel = s.pilabel
	}
	err := c.stmtTx.Commit(s.eng.hier, commitLabel, commitILabel)
	if err == nil {
		s.noteCommit(c.stmtTx)
		mTxnCommits.Inc()
	} else {
		mTxnAborts.Inc()
		c.err = err
	}
	return err
}

// fail resolves a failed stream: abort the statement's transaction
// exactly as withStmt's error path does (an explicit transaction
// aborts wholesale — PostgreSQL semantics).
func (c *Cursor) fail(err error) {
	c.done = true
	c.err = err
	if c.it != nil {
		c.it.Close()
	}
	s := c.s
	switch {
	case c.auto:
		s.stmtTx = nil
		c.stmtTx.Abort()
		mTxnAborts.Inc()
	case c.explicit:
		s.stmtTx = nil
		s.tx = nil
		c.stmtTx.Abort()
		mTxnAborts.Inc()
	}
	s.stats.ExecNs = time.Since(c.execT0).Nanoseconds()
}

// Close abandons the cursor. An unexhausted stream aborts its
// statement transaction (the caller walked away mid-result — there is
// nothing valid to commit). Idempotent.
func (c *Cursor) Close() {
	if c.done {
		return
	}
	if c.res != nil {
		c.done = true
		return
	}
	c.fail(ErrCanceled)
	c.err = nil
}
