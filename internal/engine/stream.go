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
// A Cursor is part of its session's statement lifecycle: a live one
// enters its statement with enterStmt when it opens, and NextBatch/Close
// leave it through exitStmt, exactly as a materialized statement would
// (commit on clean exhaustion in autocommit, abort on error or
// abandonment, whole-transaction abort inside an explicit transaction).
// Callers must fully consume or Close the cursor before issuing the
// session's next statement.
type Cursor struct {
	s    *Session
	cols []string
	ifc  bool

	// Streaming state (nil qc → materialized fallback): the statement's
	// frame, held until the stream ends, and its open plan.
	qc     *qctx
	it     plan.Handle
	rows   [][]types.Value // the batch NextBatch last returned, reused
	stored [][]byte        // beside rows, NextEncoded's stored rows, reused
	labels []label.Label
	tx     *txn.Txn // transaction the cursor runs under
	scope  stmtScope

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
// single SELECT streams; anything else executes eagerly and the cursor
// serves the materialized result.
func (s *Session) ExecStream(query string, params ...types.Value) (*Cursor, error) {
	return s.stream(query, nil, params)
}

// ExecPreparedStream is ExecStream over a prepared handle: a prepared
// single SELECT streams from its cached plan with no parser (and no
// parse-cache) involvement at all.
func (s *Session) ExecPreparedStream(p *Prepared, params ...types.Value) (*Cursor, error) {
	return s.stream(p.Text, p.stmts, params)
}

// stream resolves the batch once (statements) and either opens a live
// cursor over its one SELECT or runs it and serves the result.
func (s *Session) stream(text string, pinned []sql.Statement, params []types.Value) (*Cursor, error) {
	stmts, top, err := s.statements(text, pinned)
	if err != nil {
		return nil, err
	}
	if sel, ok := streamableStmts(stmts); ok {
		return s.openCursor(sel, params)
	}
	res, err := s.run(stmts, top, params)
	if err != nil {
		return nil, err
	}
	return &Cursor{s: s, cols: res.Cols, ifc: s.eng.cfg.IFC, res: res}, nil
}

// openCursor enters the statement, then builds the plan and opens the
// iterator as a buffered SELECT would (openSelect).
func (s *Session) openCursor(sel *sql.SelectStmt, params []types.Value) (*Cursor, error) {
	if err := s.checkCanceled(); err != nil {
		return nil, err
	}
	c := &Cursor{s: s, ifc: s.eng.cfg.IFC, execT0: time.Now()}
	c.tx, c.scope = s.enterStmt()
	c.qc = s.frame(params)
	p, it, err := s.openSelect(sel, c.qc)
	if err != nil {
		c.end(err)
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
func (c *Cursor) Streaming() bool { return c.qc != nil }

// NextBatch returns up to max rows (and, under IFC, their labels),
// decoded: it is the batch of an in-process caller, which reads the
// values. An empty batch with a nil error means the result is
// exhausted and the statement's transaction has been resolved; an
// error means the statement failed and its transaction was aborted
// (discarding any rows pulled in the failing batch, as a materialized
// statement would). The two returned slices are the cursor's and are
// overwritten by its next NextBatch; the rows in them ([]types.Value)
// share the engine's tuple storage, are valid until the session's next
// statement and must not be modified. A cursor is drained by NextBatch
// or by NextEncoded, not by both.
func (c *Cursor) NextBatch(max int) ([][]types.Value, []label.Label, error) {
	rows, _, labels, err := c.next(max, false)
	return rows, labels, err
}

// NextEncoded is NextBatch for a caller that sends the rows on in
// types.EncodeRow's form, as the wire server does. When the statement's
// rows are a scan's of a table on disk, passed up unchanged
// (plan.Handle.SendStored), stored holds each row's bytes as the table
// stores them, and rows has a nil entry in its place: no value is
// decoded and none need be encoded. Otherwise stored is nil. Label
// Confinement and the snapshot admit a stored row as they admit any
// (its label is in labels, never in its bytes), and the bytes stay good
// after the cursor ends: the batch that ends the result is read after
// the cursor has closed its iterator.
func (c *Cursor) NextEncoded(max int) (rows [][]types.Value, stored [][]byte, labels []label.Label, err error) {
	return c.next(max, true)
}

// next is NextBatch and NextEncoded: a batch of up to max rows, with
// their stored bytes when encoded is set and the plan sends them.
func (c *Cursor) next(max int, encoded bool) ([][]types.Value, [][]byte, []label.Label, error) {
	if c.done {
		return nil, nil, nil, c.err
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
		return rows, nil, labels, nil
	}
	// A plan that sends stored rows does so from its first batch to its
	// last, so stored stays nil for one that does not.
	sends := encoded && c.it.SendStored()
	c.rows, c.stored, c.labels = c.rows[:0], c.stored[:0], c.labels[:0]
	for len(c.rows) < max {
		r, err := c.it.Next()
		if err != nil {
			c.end(err)
			return nil, nil, nil, err
		}
		if r == nil {
			if err := c.end(nil); err != nil {
				return nil, nil, nil, err
			}
			break
		}
		c.rows = append(c.rows, r.Vals)
		if sends {
			c.stored = append(c.stored, c.it.Stored())
		}
		if c.ifc {
			c.labels = append(c.labels, r.Lbl)
		}
	}
	if !c.ifc {
		return c.rows, c.stored, nil, nil
	}
	return c.rows, c.stored, c.labels, nil
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

// end resolves a live stream that ended with err (nil: clean
// exhaustion): it closes the iterator, releases the frame and leaves
// the statement through exitStmt, returning what exitStmt returns.
func (c *Cursor) end(err error) error {
	c.done = true
	c.it.Close()
	c.s.release(c.qc)
	c.err = c.s.exitStmt(c.tx, c.scope, err)
	if c.scope != scopeNested {
		c.s.stats.ExecNs = time.Since(c.execT0).Nanoseconds()
	}
	return c.err
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
	c.end(ErrCanceled)
	c.err = nil
}
