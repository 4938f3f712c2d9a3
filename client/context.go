// Context plumbing: deadline and cancellation propagation for API v2.
//
// A context's cancellation crosses the wire as an out-of-band CANCEL
// frame on a fresh connection (Postgres-style: the statement's own
// connection is busy carrying the statement), which names the
// statement by its number and makes the server abort it and its
// transaction. The canceled statement then fails normally on its own
// connection — the common path never severs the socket. Only a server
// that fails to answer within a grace period gets its socket cut,
// sacrificing the connection to honor the deadline.

package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"ifdb/internal/wire"
)

// cancelGrace bounds how long a canceled statement may keep its
// connection waiting for the server's (error) reply before the socket
// is severed.
const cancelGrace = 5 * time.Second

// ExecContext runs one statement with deadline/cancel propagation,
// buffering the result. On cancellation the server-side transaction
// is aborted and the returned error wraps ctx's error (matching
// errors.Is(err, context.Canceled / DeadlineExceeded)).
func (c *Conn) ExecContext(ctx context.Context, sqlText string, params ...Value) (*Result, error) {
	return c.execCtx(ctx, nil, 0, 0, sqlText, params)
}

// Query runs one statement and streams the result.
func (c *Conn) Query(sqlText string, params ...Value) (Rows, error) {
	return c.QueryContext(context.Background(), sqlText, params...)
}

// QueryContext runs one statement and streams the result under ctx:
// the context governs the whole iteration, and its cancellation
// aborts the statement server-side mid-stream.
func (c *Conn) QueryContext(ctx context.Context, sqlText string, params ...Value) (Rows, error) {
	return c.queryCtx(ctx, nil, 0, 0, sqlText, params, nil)
}

// execCtx is the shared buffered-execution path (text or prepared).
func (c *Conn) execCtx(ctx context.Context, stmt *Stmt, waitLSN, shardVer uint64, sqlText string, params []Value) (*Result, error) {
	rows, err := c.queryCtx(ctx, stmt, waitLSN, shardVer, sqlText, params, nil)
	if err != nil {
		return nil, err
	}
	res, err := drain(rows)
	return res, ctxErrOr(ctx, err)
}

// watchCancel arms a goroutine that, when ctx ends before stop is
// called, sends the out-of-band CANCEL for statement seq and — if the
// server does not answer within cancelGrace — severs the statement's
// socket. The stream calls stop at its final frame (the statement is
// over: a CANCEL still on its way names a finished statement, which the
// server drops), or as it ends without one.
func (c *Conn) watchCancel(ctx context.Context, seq uint64) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	done := make(chan struct{})
	// Capture everything the goroutine needs: the Conn's fields are
	// single-threaded state the watcher must not touch.
	cancel := wire.Cancel{SessionID: c.sessID, CancelKey: c.cancelKey, Seq: seq}
	addr, dialTimeout, nc := c.cfg.Addr, c.cfg.DialTimeout, c.c
	go func() {
		select {
		case <-done:
		case <-ctx.Done():
			sendCancelTo(addr, &cancel, dialTimeout)
			select {
			case <-done:
			case <-time.After(cancelGrace):
				nc.Close()
			}
		}
	}()
	return func() { close(done) }
}

// sendCancelTo opens a fresh connection and fires the CANCEL frame —
// best-effort: a cancel that cannot be delivered degrades to the
// grace-period socket cut.
func sendCancelTo(addr string, cancel *wire.Cancel, dialTimeout time.Duration) {
	if dialTimeout <= 0 {
		dialTimeout = 2 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return
	}
	defer nc.Close()
	w := bufio.NewWriter(nc)
	if err := wire.WriteFrame(w, wire.MsgCancel, cancel.Encode()); err != nil {
		return
	}
	_ = w.Flush()
}

// ctxErr returns ctx's error, tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

func ctxDone(ctx context.Context) bool { return ctxErr(ctx) != nil }

// ctxErrOr folds a finished context into a statement failure so
// callers can match errors.Is(err, context.Canceled): the server
// reports its cancel error on the statement's own connection, but the
// caller's contract is the context's. Both causes stay in the chain —
// a server-reported cancel must keep its serverError identity, or
// IsTransportError would misread a clean cancellation as a transport
// failure, and the database/sql driver retire a healthy connection.
func ctxErrOr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	// Idempotent: an error that already carries ctx's cause (the stream
	// wraps terminal errors, then drain's caller folds again) must not
	// be wrapped twice.
	if cerr := ctxErr(ctx); cerr != nil && !errors.Is(err, cerr) {
		return fmt.Errorf("client: %w: %w", err, cerr)
	}
	return err
}
