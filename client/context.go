// Context plumbing: deadline and cancellation propagation for API v2.
//
// A context's cancellation crosses the wire as an out-of-band CANCEL
// frame on a fresh connection (Postgres-style: the statement's own
// connection is busy carrying the statement), which makes the server
// abort the running statement and its transaction. The canceled
// statement then fails normally on its own connection — the common
// path never severs the socket. Only a server that fails to answer
// within a grace period gets its socket cut, sacrificing the
// connection to honor the deadline.

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

// execCtx is the shared buffered-execution path (text or prepared),
// with the AutoReconnect retry.
func (c *Conn) execCtx(ctx context.Context, stmt *Stmt, waitLSN, shardVer uint64, sqlText string, params []Value) (*Result, error) {
	res, err := c.execCtxOnce(ctx, stmt, waitLSN, shardVer, sqlText, params)
	if err == nil || !c.cfg.AutoReconnect || !retryable(err) || ctxDone(ctx) {
		return res, err
	}
	if rerr := c.redial(); rerr != nil {
		return nil, rerr
	}
	return c.execCtxOnce(ctx, stmt, waitLSN, shardVer, sqlText, params)
}

func (c *Conn) execCtxOnce(ctx context.Context, stmt *Stmt, waitLSN, shardVer uint64, sqlText string, params []Value) (*Result, error) {
	rows, err := c.startExecCtx(ctx, stmt, waitLSN, shardVer, sqlText, params, nil)
	if err != nil {
		return nil, err
	}
	res, err := drain(rows)
	return res, ctxErrOr(ctx, err)
}

// queryCtx is the shared streaming-execution path. Only the start is
// retried (with AutoReconnect): once rows flow, a failure surfaces
// through the Rows.
func (c *Conn) queryCtx(ctx context.Context, stmt *Stmt, waitLSN, shardVer uint64, sqlText string, params []Value, onClose func(error)) (Rows, error) {
	rows, err := c.startExecCtx(ctx, stmt, waitLSN, shardVer, sqlText, params, onClose)
	if err != nil && c.cfg.AutoReconnect && retryable(err) && !ctxDone(ctx) {
		if rerr := c.redial(); rerr != nil {
			return nil, rerr
		}
		rows, err = c.startExecCtx(ctx, stmt, waitLSN, shardVer, sqlText, params, onClose)
	}
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// startExecCtx resolves the prepared handle, arms the context
// watcher, and starts the statement. The watcher is owned by the
// returned stream (stopped when it ends); on failure it has already
// been stopped.
func (c *Conn) startExecCtx(ctx context.Context, stmt *Stmt, waitLSN, shardVer uint64, sqlText string, params []Value, onClose func(error)) (*connRows, error) {
	if err := ctxErr(ctx); err != nil {
		if onClose != nil {
			onClose(err)
		}
		return nil, err
	}
	var stmtID uint64
	if stmt != nil {
		if err := stmt.ensure(); err != nil {
			if onClose != nil {
				onClose(err)
			}
			return nil, err
		}
		stmtID, sqlText = stmt.id, ""
	}
	stop := c.watchCancel(ctx)
	rows, err := c.startExec(stmtID, sqlText, waitLSN, shardVer, params, stop, onClose)
	if err != nil {
		return nil, ctxErrOr(ctx, err)
	}
	rows.ctx = ctx
	return rows, nil
}

// watchCancel arms a goroutine that, when ctx ends before stop is
// called, sends the out-of-band CANCEL and — if the server does not
// answer within cancelGrace — severs the statement's socket. stop
// returns once the goroutine has exited, so a CANCEL it sent has
// reached the server before the connection carries another statement:
// the server drops a pending cancel as a statement arrives, but one
// landing after that would kill the wrong statement — and a Router
// cancels shard streams every time a LIMIT is met.
func (c *Conn) watchCancel(ctx context.Context) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	done, exited := make(chan struct{}), make(chan struct{})
	// Capture everything the goroutine needs: the Conn's fields are
	// single-threaded state the watcher must not touch.
	addr, sid, key := c.cfg.Addr, c.sessID, c.cancelKey
	dialTimeout := c.cfg.DialTimeout
	nc := c.c
	go func() {
		defer close(exited)
		select {
		case <-done:
		case <-ctx.Done():
			sendCancelTo(addr, sid, key, dialTimeout)
			select {
			case <-done:
			case <-time.After(cancelGrace):
				nc.Close()
			}
		}
	}()
	return func() { close(done); <-exited }
}

// sendCancelTo opens a fresh connection, fires a CANCEL frame for the
// (session, key) pair and waits for the server to hang up, which it
// does once the cancel is applied — best-effort: a cancel that cannot
// be delivered degrades to the grace-period socket cut.
func sendCancelTo(addr string, sessID, cancelKey uint64, dialTimeout time.Duration) {
	if dialTimeout <= 0 {
		dialTimeout = 2 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return
	}
	defer nc.Close()
	w := bufio.NewWriter(nc)
	frame := (&wire.Cancel{SessionID: sessID, CancelKey: cancelKey}).Encode()
	if err := wire.WriteFrame(w, wire.MsgCancel, frame); err != nil {
		return
	}
	if err := w.Flush(); err != nil {
		return
	}
	_ = nc.SetReadDeadline(time.Now().Add(dialTimeout))
	_, _ = nc.Read(make([]byte, 1)) // EOF: the server applied the cancel
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
// a server-reported cancel must keep its serverError identity, or the
// routing layers would misread a clean cancellation as a transport
// failure and retire a healthy connection.
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
