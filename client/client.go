// Conn: one connection to one IFDB server, with client-held label
// state transmitted lazily (the paper's modified-libpq design, §7.2).
// See doc.go for the package overview.

package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"ifdb/internal/label"
	"ifdb/internal/obs"
	"ifdb/internal/types"
	"ifdb/internal/wire"
)

// Value re-exports the SQL datum type for callers.
type Value = types.Value

// Label re-exports the label type.
type Label = label.Label

// Tag re-exports the tag type.
type Tag = label.Tag

// Result is a statement outcome as seen by the client.
type Result struct {
	Cols      []string
	Rows      [][]Value
	RowLabels []Label
	Affected  int64

	// Epoch and LSN are the server's promotion generation and WAL
	// position after the statement. On a primary the pair covers every
	// commit the statement made — the Router keeps it from its last
	// write as the read-your-writes token.
	Epoch uint64
	LSN   uint64
}

// Status is a node's replication role, as answered by a STATUS probe.
type Status struct {
	// Replica reports whether the node is a read-only replica.
	Replica bool
	// Epoch is the node's promotion generation.
	Epoch uint64
	// AppliedLSN is the primary LSN a replica has applied through (in
	// the primary's LSN space); 0 on a primary.
	AppliedLSN uint64
	// WALEnd is the node's own WAL append edge (0 in-memory). On a
	// primary, AppliedLSN of an attached replica approaches it.
	WALEnd uint64
	// Err is the replica's fatal stream error, if any.
	Err string
}

// Config configures a connection. A Conn dials once: after a transport
// error it stays broken, and its owner replaces it with a fresh dial —
// the database/sql pool through the driver's IsValid, the Router
// through release. A fresh connection starts from the owner's labels
// and syncs them with its first statement, so no client-library path
// ever resends a statement the server may have committed.
type Config struct {
	// Addr is the server address; Token attests that this client is a
	// trusted platform (§2); Principal is the acting principal
	// established by the platform's authentication code.
	Addr      string
	Token     string
	Principal uint64

	// DialTimeout bounds the connection attempt (0 = no timeout).
	DialTimeout time.Duration
}

// Conn is one connection to an IFDB server. Not safe for concurrent
// use (one connection per worker, like libpq).
type Conn struct {
	cfg Config

	c net.Conn
	r *bufio.Reader
	w *bufio.Writer

	principal uint64
	plabel    Label
	pilabel   Label
	dirty     bool // label/principal changed since last sync

	// Cancellation identity from the HelloOK handshake: the session id
	// and the key that authorizes an out-of-band CANCEL for it; seq is
	// the number of the last EXECUTE sent, by which a CANCEL names it.
	sessID    uint64
	cancelKey uint64
	seq       uint64

	// stream is the open streaming result, if any: the connection is
	// pinned to it until the stream is drained or closed.
	stream *connRows

	// chunk is what every ROWS frame of every stream on this connection
	// is decoded into (wire.DecodeRowsChunkInto): a stream's rows are
	// valid until its next Next.
	chunk wire.RowsChunk

	// frame is the buffer every ROWS frame of every stream on this
	// connection is read into: it grows to the largest chunk received
	// and stays. held is this connection's share of gStreamBuffered.
	frame []byte
	held  int64

	// out is the buffer every EXECUTE is encoded into, kept while it
	// is at most wire.MaxKeptFrame.
	out []byte

	// broken marks a connection that had a transport error: the socket
	// position is undefined, so every later operation fails with
	// errBroken instead of desynchronizing.
	broken bool

	// closing holds the handles of Stmts closed since the last frame:
	// their CLOSESTMT frames ride ahead of the connection's next frame,
	// so a Stmt closed while another statement streams still drops its
	// server-side handle.
	closing []uint64

	// stmts caches prepared statements by text for the Router, which
	// multiplexes statements over pooled conns and wants each conn to
	// prepare a routed statement at most once (see preparedFor).
	stmts map[string]*Stmt

	// lastTraceID is the trace ID stamped on the most recent statement
	// this connection sent; servers echo it in slow-query audit lines
	// and the \stats breakdown, tying client and server views together.
	lastTraceID uint64
}

// serverError marks an error the server reported (SQL errors, a
// refused handshake): the connection is healthy and the statement
// definitively failed. shardMap carries the server's current shard
// map when the refusal was a stale-shard-map fence (see StaleShardMap).
type serverError struct {
	msg      string
	shardMap *wire.ShardMap
}

func (e *serverError) Error() string { return e.msg }

// clientError marks a local usage error (e.g. a statement issued
// while a streaming result is still open): nothing was sent and the
// connection did not fail.
type clientError struct{ msg string }

func (e *clientError) Error() string { return e.msg }

// errBroken is returned for every operation on a connection that had a
// transport error. It is a transport error itself: the connection's
// owner discards it and dials a fresh one.
var errBroken = errors.New("client: connection broken by an earlier transport error")

// IsTransportError reports whether err was a connection-level failure
// (broken socket, unexpected frame) rather than a server-reported
// statement error or a local usage error. After a transport error the
// statement may or may not have executed, and the connection is
// broken for good: the database/sql driver retires it from the pool,
// and the Router closes it and dials afresh.
func IsTransportError(err error) bool {
	var se *serverError
	var ce *clientError
	return err != nil && !errors.As(err, &se) && !errors.As(err, &ce)
}

// StaleShardMap extracts the fresh shard map a server attached to a
// stale-map refusal, or nil if err was anything else. The Router
// adopts it and re-routes; other callers can surface it to operators.
func StaleShardMap(err error) *ShardMap {
	var se *serverError
	if errors.As(err, &se) {
		return se.shardMap
	}
	return nil
}

// Dial connects and performs the Hello handshake. token attests that
// this client is a trusted platform (§2); principal is the acting
// principal established by the platform's authentication code.
func Dial(addr, token string, principal uint64) (*Conn, error) {
	return DialConfig(Config{Addr: addr, Token: token, Principal: principal})
}

// DialConfig connects with explicit configuration and performs the
// Hello handshake.
func DialConfig(cfg Config) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", cfg.Addr, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Conn{cfg: cfg, principal: cfg.Principal, c: nc, r: bufio.NewReader(nc), w: bufio.NewWriter(nc)}
	if err := c.hello(); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// hello performs the Hello handshake on a fresh socket.
func (c *Conn) hello() error {
	h := &wire.Hello{Token: c.cfg.Token, Principal: c.principal}
	if err := c.send(wire.MsgHello, h.Encode()); err != nil {
		return err
	}
	typ, payload, err := wire.ReadFrame(c.r)
	if err != nil {
		return err
	}
	switch typ {
	case wire.MsgHelloOK:
		ok, err := wire.DecodeHelloOK(payload)
		if err != nil {
			return err
		}
		c.sessID, c.cancelKey = ok.SessionID, ok.CancelKey
		return nil
	case wire.MsgRows:
		// Refused (a bad platform token): a trailer-only ROWS frame.
		res, err := wire.DecodeRowsChunk(payload)
		if err != nil {
			return err
		}
		return &serverError{msg: res.Err}
	default:
		return fmt.Errorf("client: unexpected handshake frame %c", typ)
	}
}

// Close says goodbye and closes the socket.
func (c *Conn) Close() error {
	gStreamBuffered.Add(-c.held)
	c.held = 0
	_ = wire.WriteFrame(c.w, wire.MsgClose, nil)
	_ = c.w.Flush()
	return c.c.Close()
}

// account sets what the connection buffers for result streaming: its
// frame buffer plus the decoded chunk of an open stream, counted at its
// encoded size.
func (c *Conn) account(chunkBytes int) {
	held := int64(cap(c.frame) + chunkBytes)
	gStreamBuffered.Add(held - c.held)
	c.held = held
}

// Label returns the client's view of the process label.
func (c *Conn) Label() Label { return c.plabel.Clone() }

// Integrity returns the client's view of the process integrity label.
func (c *Conn) Integrity() Label { return c.pilabel.Clone() }

// DropIntegrity lowers the local integrity label (always safe); the
// change reaches the server with the next statement.
func (c *Conn) DropIntegrity(t Tag) {
	c.pilabel = c.pilabel.Remove(t)
	c.dirty = true
}

// Endorse asks the server to verify authority and raise the integrity
// label (round-trips, like Declassify).
func (c *Conn) Endorse(t Tag) error {
	_, err := c.call(types.KindBool, "SELECT endorse($1)", tagParam(t))
	return err
}

// Principal returns the acting principal.
func (c *Conn) Principal() uint64 { return c.principal }

// AddSecrecy raises the local process label; the change reaches the
// server with the next statement. (Raising is free client-side; the
// server re-checks the clearance rule inside serializable
// transactions.)
func (c *Conn) AddSecrecy(t Tag) {
	c.plabel = c.plabel.Add(t)
	c.dirty = true
}

// SetPrincipal switches the acting principal (platform authentication
// code only).
func (c *Conn) SetPrincipal(p uint64) {
	c.principal = p
	c.dirty = true
}

// Declassify asks the server to verify authority and lower the label.
// Unlike AddSecrecy this must round-trip: removing a tag without
// authority would violate the flow rules, so we issue the SQL function
// and adopt the server's resulting label.
func (c *Conn) Declassify(t Tag) error {
	_, err := c.call(types.KindBool, "SELECT declassify($1)", tagParam(t))
	return err
}

// Exec sends one statement (with lazily-coalesced label sync) and
// returns the result. The connection adopts the server's post-
// statement label, which reflects any addsecrecy()/declassify() the
// statement performed.
func (c *Conn) Exec(sql string, params ...Value) (*Result, error) {
	return c.ExecWait(0, sql, params...)
}

// ExecWait is Exec with a read-your-writes token: when waitLSN is
// non-zero and the server is a replica, execution is delayed until the
// replica has applied the primary's log through waitLSN. The Router
// stamps replica reads with the token from its last primary write.
func (c *Conn) ExecWait(waitLSN uint64, sql string, params ...Value) (*Result, error) {
	return c.ExecShard(waitLSN, 0, sql, params...)
}

// ExecShard is ExecWait carrying a shard-map version: a sharded server
// refuses the statement when shardVer is non-zero and outdated,
// attaching its current map to the error (StaleShardMap). The Router
// stamps every statement it routes by the map with the map's version.
func (c *Conn) ExecShard(waitLSN, shardVer uint64, sql string, params ...Value) (*Result, error) {
	return c.execCtx(context.Background(), nil, waitLSN, shardVer, sql, params)
}

// queryCtx sends one EXECUTE frame — stmt's handle, or sqlText inline
// as one-shot SQL when stmt is nil — under the connection's next
// statement number, arms the watcher that cancels it when ctx ends,
// and reads the stream's first frame, so a statement failure (a
// stale-shard-map refusal too) surfaces here; once rows flow, a failure
// surfaces through the Rows. onClose, when set, is owned by the
// returned stream and runs exactly once whenever it ends, including on
// every failure path of this call.
func (c *Conn) queryCtx(ctx context.Context, stmt *Stmt, waitLSN, shardVer uint64, sqlText string, params []Value, onClose func()) (Rows, error) {
	finish := func(err error) (Rows, error) {
		if onClose != nil {
			onClose()
		}
		return nil, ctxErrOr(ctx, err)
	}
	if err := ctxErr(ctx); err != nil {
		return finish(err)
	}
	var stmtID uint64
	if stmt != nil {
		if stmt.closed {
			return finish(&clientError{msg: "client: statement is closed"})
		}
		stmtID, sqlText = stmt.id, ""
	}
	if err := c.ready(); err != nil {
		return finish(err)
	}
	c.seq++
	e := &wire.Execute{
		StmtID: stmtID, SQL: sqlText, Params: params,
		WaitLSN: waitLSN, ShardVer: shardVer,
		TraceID: obs.NewTraceID(), Seq: c.seq,
	}
	c.lastTraceID = e.TraceID
	if c.dirty {
		e.SyncLabel = true
		e.Label = c.plabel
		e.ILabel = c.pilabel
		e.Principal = c.principal
	}
	payload, err := e.AppendEncode(c.out[:0])
	if err != nil {
		return finish(err)
	}
	if cap(payload) <= wire.MaxKeptFrame {
		c.out = payload
	}
	if err := c.send(wire.MsgExecute, payload); err != nil {
		return finish(err)
	}
	rows := &connRows{c: c, i: -1, ctx: ctx, stopWatch: c.watchCancel(ctx, e.Seq), onClose: onClose}
	c.stream = rows
	if !rows.fetch() {
		// First frame failed: a transport error (stream released, conn
		// marked broken) or a single-chunk statement error.
		return nil, rows.err
	}
	return rows, nil
}

// ready reports whether the connection can carry a new frame: it is
// not broken and no stream holds it.
func (c *Conn) ready() error {
	if c.broken {
		return errBroken
	}
	if c.stream != nil {
		return &clientError{msg: "client: a streaming result is still open on this connection"}
	}
	return nil
}

// send writes one frame, preceded by the CLOSESTMT frames of Stmts
// closed since the last one, and flushes. A failure breaks the
// connection.
func (c *Conn) send(typ byte, payload []byte) (err error) {
	defer func() {
		if err != nil {
			c.broken = true
		}
	}()
	for _, id := range c.closing {
		if err := wire.WriteFrame(c.w, wire.MsgCloseStmt, (&wire.CloseStmt{StmtID: id}).Encode()); err != nil {
			return err
		}
	}
	c.closing = c.closing[:0]
	if err := wire.WriteFrame(c.w, typ, payload); err != nil {
		return err
	}
	return c.w.Flush()
}

// roundTrip sends one frame and reads one expected response frame. A
// transport failure breaks the connection.
func (c *Conn) roundTrip(typ byte, payload []byte, wantTyp byte) ([]byte, error) {
	if err := c.ready(); err != nil {
		return nil, err
	}
	if err := c.send(typ, payload); err != nil {
		return nil, err
	}
	gotTyp, resp, err := wire.ReadFrame(c.r)
	if err == nil && gotTyp != wantTyp {
		err = fmt.Errorf("client: unexpected frame %c", gotTyp)
	}
	if err != nil {
		c.broken = true
		return nil, err
	}
	return resp, nil
}

// Status probes the server's replication role (replica?, epoch,
// applied LSN, WAL end). The coordinator's health checks and the
// Router's primary discovery are built on it.
func (c *Conn) Status() (*Status, error) {
	return c.statusRequest(wire.MsgStatus)
}

// PromoteNode asks a replica server to promote itself to a writable
// primary (failover). The returned status reflects the node after the
// attempt; a non-nil error reports why promotion was refused.
func (c *Conn) PromoteNode() (*Status, error) {
	return c.statusRequest(wire.MsgPromote)
}

func (c *Conn) statusRequest(typ byte) (*Status, error) {
	resp, err := c.roundTrip(typ, nil, wire.MsgStatusRes)
	if err != nil {
		return nil, err
	}
	st, err := wire.DecodeStatus(resp)
	if err != nil {
		return nil, err
	}
	out := &Status{Replica: st.Replica, Epoch: st.Epoch, AppliedLSN: st.AppliedLSN, WALEnd: st.WALEnd, Err: st.Err}
	if typ == wire.MsgPromote && st.Err != "" {
		return out, &serverError{msg: st.Err}
	}
	return out, nil
}

// ShardMap fetches the server's current view of the cluster shard map
// (nil when the deployment is unsharded). The Router calls it at open
// to discover the topology; operators can watch it via ifdb-cli
// \shardmap.
func (c *Conn) ShardMap() (*ShardMap, error) {
	resp, err := c.roundTrip(wire.MsgShardMap, nil, wire.MsgShardMapRes)
	if err != nil {
		return nil, err
	}
	if len(resp) == 0 {
		return nil, nil
	}
	return wire.DecodeShardMap(resp)
}

// call runs one IFDB function (§7.1) as a statement: a fixed text
// whose arguments are parameters, so every call shares one parse and
// ids keep all 64 bits. Pending label and principal changes ride the
// same EXECUTE. It returns the call's value, which is of kind want.
func (c *Conn) call(want types.Kind, sqlText string, params ...Value) (Value, error) {
	res, err := c.Exec(sqlText, params...)
	if err != nil {
		return types.Null, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 || res.Rows[0][0].Kind() != want {
		return types.Null, fmt.Errorf("client: %s: malformed reply", sqlText)
	}
	return res.Rows[0][0], nil
}

// callID is call for a function that returns a principal or tag id.
func (c *Conn) callID(sqlText string, params ...Value) (uint64, error) {
	v, err := c.call(types.KindInt, sqlText, params...)
	if err != nil {
		return 0, err
	}
	return uint64(v.Int()), nil
}

func idParam(id uint64) Value { return types.NewInt(int64(id)) }

func tagParam(t Tag) Value { return idParam(uint64(t)) }

// CreatePrincipal creates a principal server-side (requires an empty
// label, like every authority-state mutation).
func (c *Conn) CreatePrincipal(name string) (uint64, error) {
	return c.callID("SELECT create_principal($1)", types.NewText(name))
}

// CreateTag creates a named tag owned by the acting principal.
func (c *Conn) CreateTag(name string, compounds ...string) (Tag, error) {
	text := "SELECT create_tag($1"
	params := []Value{types.NewText(name)}
	for _, cn := range compounds {
		params = append(params, types.NewText(cn))
		text += ", $" + strconv.Itoa(len(params))
	}
	t, err := c.callID(text+")", params...)
	return Tag(t), err
}

// LookupTag resolves a tag name server-side.
func (c *Conn) LookupTag(name string) (Tag, error) {
	t, err := c.callID("SELECT tag($1)", types.NewText(name))
	return Tag(t), err
}

// Delegate grants authority for t to grantee.
func (c *Conn) Delegate(grantee uint64, t Tag) error {
	_, err := c.call(types.KindBool, "SELECT delegate($1, $2)", idParam(grantee), tagParam(t))
	return err
}

// Revoke withdraws a delegation.
func (c *Conn) Revoke(grantee uint64, t Tag) error {
	_, err := c.call(types.KindBool, "SELECT revoke($1, $2)", idParam(grantee), tagParam(t))
	return err
}

// LastTraceID returns the trace ID stamped on the most recent
// statement this connection sent (0 before the first statement). Grep
// the server's audit/slow-query log for obs.TraceID-formatted IDs to
// find the matching server-side lines.
func (c *Conn) LastTraceID() uint64 { return c.lastTraceID }

// StmtStats is the server-side timing breakdown of this connection's
// most recent statement, as recorded by the server session.
type StmtStats = wire.Stats

// Stats fetches the server's timing breakdown for the most recent
// statement on this connection (ifdb-cli's \stats). It deliberately
// bypasses the label sync: it would run a statement of its own and
// overwrite the very breakdown being asked for.
func (c *Conn) Stats() (*StmtStats, error) {
	resp, err := c.roundTrip(wire.MsgStats, nil, wire.MsgStatsRes)
	if err != nil {
		return nil, err
	}
	return wire.DecodeStats(resp)
}

// HasAuthority asks whether the acting principal can declassify t.
func (c *Conn) HasAuthority(t Tag) (bool, error) {
	v, err := c.call(types.KindBool, "SELECT has_authority($1)", tagParam(t))
	if err != nil {
		return false, err
	}
	return v.Bool(), nil
}
