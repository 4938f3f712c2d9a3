// Streaming results: the client half of the chunked ROWS frames of
// API v2. A Rows is an iterator over a statement's result set that
// holds at most one wire chunk in memory — its connection's, which
// every chunk is decoded into — so a large read no longer materializes
// client-side. See doc.go for the package overview.

package client

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ifdb/internal/types"
	"ifdb/internal/wire"
)

// Rows iterates a streaming result: call Next until it returns false,
// then check Err; Close releases the statement's connection (and must
// be called — an unclosed Rows pins its connection). The slice Row
// returns and the label RowLabel returns are valid until the next call
// to Next: a connection decodes every chunk into one buffer it reuses,
// so a caller that keeps a row copies it (Exec's Result does). A TEXT
// value's string stays valid for good, and pins the chunk it came in.
// Implemented by Conn streams and by the Router's lazy fan-out merge.
type Rows interface {
	// Columns returns the result's column names.
	Columns() []string
	// Next advances to the next row, fetching the next wire chunk as
	// needed. It returns false at the end of the set or on error.
	Next() bool
	// Row returns the current row's values, valid until the next Next.
	Row() []Value
	// RowLabel returns the current row's IFC label (nil when IFC is
	// off), valid until the next Next.
	RowLabel() Label
	// Scan copies the current row into dest pointers (see ScanValue
	// for conversions).
	Scan(dest ...any) error
	// Err returns the error that ended iteration, if any.
	Err() error
	// Close drains and releases the stream. Safe to call more than
	// once; returns Err.
	Close() error
}

// connRows is one statement's stream on one connection.
type connRows struct {
	c     *Conn
	cols  []string
	chunk *wire.RowsChunk // the connection's chunk; nil once the connection is free
	i     int             // index of the current row within chunk

	// ctx is the statement's context. A stream that dies while ctx is
	// already over reports an error wrapping ctx's — the caller asked
	// for cancellation and should be able to match context.Canceled,
	// whether the server answered with its cancel error or the grace
	// period severed the socket first.
	ctx context.Context

	recvDone bool // the Done chunk has been received
	closed   bool
	err      error // terminal error (server or transport)

	// Trailer, valid once recvDone:
	affected   int64
	epoch, lsn uint64

	// onClose, when set, is called exactly once when the stream
	// finishes (Close or terminal error): the Router uses it to check
	// the connection back into its pool, or close it if it broke.
	onClose func()
	// stopWatch stops the context watcher tied to this stream, at the
	// stream's final frame or its end, whichever comes first.
	stopWatch func()
}

// Columns returns the column names.
func (r *connRows) Columns() []string { return r.cols }

// Next advances to the next row.
func (r *connRows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	r.i++
	for r.chunk == nil || r.i >= len(r.chunk.Rows) {
		if r.recvDone {
			r.release()
			return false
		}
		if ctxDone(r.ctx) {
			// The caller's context is over: hand out no further chunk,
			// however fast the server streams until its out-of-band
			// CANCEL lands. The tail is discarded, and the server's answer
			// (its cancel error, wrapping ctx's) becomes Err.
			for !r.recvDone && r.fetch() {
			}
			if r.err == nil {
				r.err = ctxErr(r.ctx)
			}
			r.release()
			return false
		}
		if !r.fetch() {
			return false
		}
		r.i = 0
	}
	return true
}

// fetch decodes the next ROWS frame into the connection's chunk.
// Returns false on a terminal condition (error; a Done frame with no
// rows also yields false via the caller's loop). The Done frame may
// carry the result's last rows: the trailer is taken at once, the rows
// as Next reaches them.
func (r *connRows) fetch() bool {
	typ, payload, buf, err := wire.ReadFrameInto(r.c.r, r.c.frame)
	r.c.frame = buf
	if err != nil {
		r.transportFail(err)
		return false
	}
	if typ != wire.MsgRows {
		r.transportFail(fmt.Errorf("client: unexpected frame %c in result stream", typ))
		return false
	}
	ch := &r.c.chunk
	if err := wire.DecodeRowsChunkInto(ch, payload); err != nil {
		r.transportFail(err)
		return false
	}
	r.chunk = ch
	r.c.account(len(payload))
	if ch.First && r.cols == nil {
		r.cols = ch.Cols
	}
	if ch.Done {
		r.recvDone = true
		// The reply is whole, so the statement is over: there is
		// nothing left to cancel.
		r.stopWatch()
		// Adopt the server's post-statement labels (the statement may
		// have contaminated or declassified the process) and mark the
		// lazy label sync clean.
		r.c.dirty = false
		r.c.plabel = ch.Label
		r.c.pilabel = ch.ILabel
		r.affected = ch.Affected
		r.epoch, r.lsn = ch.Epoch, ch.LSN
		if len(ch.Rows) == 0 {
			// The rows have run out, so the connection is free, and its
			// next statement may decode into the chunk. A Done chunk that
			// carries rows keeps it busy until they have been read or the
			// stream closed (release).
			r.c.stream = nil
			r.chunk = nil
		}
		if ch.Err != "" {
			r.err = ctxErrOr(r.ctx, &serverError{msg: ch.Err, shardMap: ch.ShardMap})
			r.release()
			return false
		}
	}
	return true
}

// transportFail records a connection-level failure: the stream is
// dead and so is the connection (frames may be left half-read).
func (r *connRows) transportFail(err error) {
	r.err = ctxErrOr(r.ctx, err)
	r.c.broken = true
	r.release()
}

// release frees the connection and runs the end-of-stream hooks, once.
func (r *connRows) release() {
	if r.closed {
		return
	}
	r.closed = true
	// The chunk is the connection's, and its next statement decodes
	// into it.
	r.chunk = nil
	if r.c.stream == r {
		r.c.stream = nil
	}
	r.c.account(0)
	if !r.recvDone {
		r.stopWatch() // else stopped at the final frame
	}
	if r.onClose != nil {
		r.onClose()
	}
}

// Row returns the current row.
func (r *connRows) Row() []Value {
	if r.chunk == nil || r.i < 0 || r.i >= len(r.chunk.Rows) {
		return nil
	}
	return r.chunk.Rows[r.i]
}

// RowLabel returns the current row's label (nil when IFC is off).
func (r *connRows) RowLabel() Label {
	if r.chunk == nil || r.chunk.RowLabels == nil || r.i < 0 || r.i >= len(r.chunk.RowLabels) {
		return nil
	}
	return r.chunk.RowLabels[r.i]
}

// Scan copies the current row into dest pointers.
func (r *connRows) Scan(dest ...any) error { return scanRow(r.Row(), dest) }

// Err returns the error that ended iteration, if any.
func (r *connRows) Err() error { return r.err }

// Close drains the stream (the server has already sent it; skipping
// the tail would desynchronize the connection) and releases it.
func (r *connRows) Close() error {
	for !r.closed && !r.recvDone {
		if !r.fetch() {
			break
		}
	}
	r.release()
	return r.err
}

// drain consumes a stream into a buffered Result: every Exec — on a
// Conn or through the Router, from one node or a gateway merge — is a
// drained Query. RowLabels follows one rule everywhere: nil unless some
// row carried a non-empty label, else one entry per row. A
// connection's stream also delivers the statement's trailer (rows
// affected and the commit token); merged streams have none, matching
// the engine's buffered SELECT results.
func drain(rows Rows) (*Result, error) {
	defer rows.Close()
	cr, _ := rows.(*connRows)
	res := &Result{}
	// A row and its label are valid only until the next Next (a
	// connection decodes every chunk into one buffer): the Result keeps
	// copies.
	var keep types.Keeper
	for rows.Next() {
		row, lbl := keep.Keep(rows.Row(), rows.RowLabel())
		res.Rows = append(res.Rows, row)
		if lbl != nil || res.RowLabels != nil {
			if res.RowLabels == nil {
				// First label of the set: the rows before it had none.
				res.RowLabels = make([]Label, len(res.Rows)-1, len(res.Rows))
			}
			res.RowLabels = append(res.RowLabels, lbl)
		}
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	res.Cols = rows.Columns()
	if cr != nil {
		res.Affected, res.Epoch, res.LSN = cr.affected, cr.epoch, cr.lsn
	}
	return res, nil
}

// scanRow copies row values into dest pointers.
func scanRow(row []Value, dest []any) error {
	if row == nil {
		return errors.New("client: Scan called without a current row")
	}
	if len(dest) != len(row) {
		return fmt.Errorf("client: Scan got %d destinations for %d columns", len(dest), len(row))
	}
	for i, d := range dest {
		if err := ScanValue(row[i], d); err != nil {
			return fmt.Errorf("client: column %d: %w", i, err)
		}
	}
	return nil
}

// ScanValue converts one SQL value into a Go destination pointer:
// *int64, *int, *float64, *string, *bool, *time.Time, *[]byte, *Value,
// or *any. NULL scans as the destination's zero value (use *Value or
// *any to distinguish).
func ScanValue(v Value, dest any) error {
	switch d := dest.(type) {
	case *Value:
		*d = v
		return nil
	case *any:
		*d = valueToAny(v)
		return nil
	}
	if v.IsNull() {
		switch d := dest.(type) {
		case *int64:
			*d = 0
		case *int:
			*d = 0
		case *float64:
			*d = 0
		case *string:
			*d = ""
		case *bool:
			*d = false
		case *time.Time:
			*d = time.Time{}
		case *[]byte:
			*d = nil
		default:
			return fmt.Errorf("unsupported Scan destination %T", dest)
		}
		return nil
	}
	switch d := dest.(type) {
	case *int64:
		if v.Kind() != types.KindInt {
			return fmt.Errorf("cannot scan %s into *int64", v.Kind())
		}
		*d = v.Int()
	case *int:
		if v.Kind() != types.KindInt {
			return fmt.Errorf("cannot scan %s into *int", v.Kind())
		}
		*d = int(v.Int())
	case *float64:
		switch v.Kind() {
		case types.KindFloat, types.KindInt:
			*d = v.Float()
		default:
			return fmt.Errorf("cannot scan %s into *float64", v.Kind())
		}
	case *string:
		*d = v.String()
	case *bool:
		if v.Kind() != types.KindBool {
			return fmt.Errorf("cannot scan %s into *bool", v.Kind())
		}
		*d = v.Bool()
	case *time.Time:
		if v.Kind() != types.KindTime {
			return fmt.Errorf("cannot scan %s into *time.Time", v.Kind())
		}
		*d = v.Time()
	case *[]byte:
		*d = []byte(v.String())
	default:
		return fmt.Errorf("unsupported Scan destination %T", dest)
	}
	return nil
}

// valueToAny renders a value as its natural Go type.
func valueToAny(v Value) any {
	switch v.Kind() {
	case types.KindNull:
		return nil
	case types.KindInt:
		return v.Int()
	case types.KindFloat:
		return v.Float()
	case types.KindText:
		return v.Text()
	case types.KindBool:
		return v.Bool()
	case types.KindTime:
		return v.Time()
	default:
		return v.String()
	}
}
