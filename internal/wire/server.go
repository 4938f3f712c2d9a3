package wire

import (
	"bufio"
	"crypto/rand"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ifdb/internal/authority"
	"ifdb/internal/engine"
	"ifdb/internal/obs"
	"ifdb/internal/wal"
)

// DefaultChunkRows is the server's bound on rows per streaming ROWS
// frame.
const DefaultChunkRows = 256

// MaxSessionStmts bounds one connection's prepared-statement table.
// The limit is a hard refusal, not an eviction: silently dropping a
// handle would break a client that still holds it. Well above the
// client library's own per-conn cache (128), so only a leaky caller
// preparing without closing ever sees it.
const MaxSessionStmts = 512

// Server accepts client-platform connections and maps each to an
// engine session. Per the paper's architecture (§2), the server trusts
// connecting platforms to have authenticated their users: the Hello
// token attests that the peer is a trusted runtime, and the principal
// in each message is taken at face value afterwards.
type Server struct {
	eng   *engine.Engine
	token string

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	conns  map[net.Conn]bool

	// Logger, when set, receives protocol diagnostics.
	Logger *slog.Logger

	// SlowQuery, when positive, logs any statement whose total
	// server-side time (admission + parse + execute + stream) meets the
	// threshold to the obs audit channel, with its trace ID and timing
	// breakdown.
	SlowQuery time.Duration

	// Cancellation registry: session id → (cancel key, session). A
	// CANCEL frame on a fresh connection names a session and one of its
	// statements and proves knowledge of its key (handed out once, in
	// HelloOK); the server interrupts that statement. Keys never recross
	// the wire after the handshake.
	sessMu   sync.Mutex
	sessions map[uint64]*cancelTarget
	sessSeq  atomic.Uint64

	// Promote, when set, handles MsgPromote frames: it must stop the
	// node's replication stream and promote the engine (typically
	// repl.Follower.Promote via ifdb.DB.Promote — the server cannot
	// reach the follower's socket loop through the engine alone). Nil
	// rejects promotion requests.
	Promote func() error

	// StatusErr, when set, supplies the replica's fatal stream error
	// for MsgStatus replies (the follower owns that state, not the
	// engine).
	StatusErr func() error

	// Replicate, when set, streams the WAL to a connection whose first
	// frame is a ReplHello, until it drops (repl.Primary.Stream); r is
	// the connection's reader, past the hello. Nil answers a ReplHello
	// with a ReplErr.
	Replicate func(conn net.Conn, r *bufio.Reader, hello *ReplHello)

	// ShardMap, when set, supplies this node's current view of the
	// cluster shard map (typically the coordinator's live copy, or the
	// static -shard-map file). It answers MsgShardMap probes, and every
	// EXECUTE carrying a non-zero, older ShardVer is refused with
	// the current map attached — version fencing, so a router holding
	// an outdated map re-routes instead of writing to the wrong shard.
	// Nil means unsharded.
	ShardMap func() *ShardMap

	// WaitTimeout bounds a replica's read-your-writes wait (EXECUTE
	// frames carrying WaitLSN). Zero means 10s.
	WaitTimeout time.Duration
}

// NewServer creates a server over eng. token guards Hello; empty means
// accept anyone (tests, local examples).
func NewServer(eng *engine.Engine, token string) *Server {
	return &Server{
		eng: eng, token: token,
		conns:    make(map[net.Conn]bool),
		sessions: make(map[uint64]*cancelTarget),
	}
}

// cancelTarget is one registered session as the cancel path sees it.
type cancelTarget struct {
	id, key uint64
	sess    *engine.Session
	// replied is the number of the last statement whose reply has been
	// written whole: a CANCEL naming it, or an earlier one, is stale.
	replied atomic.Uint64
}

// registerSession assigns a session id and a random cancel key.
func (s *Server) registerSession(sess *engine.Session) *cancelTarget {
	t := &cancelTarget{id: s.sessSeq.Add(1), sess: sess}
	var kb [8]byte
	if _, err := rand.Read(kb[:]); err == nil {
		t.key = binary.LittleEndian.Uint64(kb[:])
	}
	// With no entropy the key stays zero rather than fail the
	// handshake: cancellation degrades, queries don't.
	s.sessMu.Lock()
	s.sessions[t.id] = t
	s.sessMu.Unlock()
	gActiveSessions.Add(1)
	return t
}

func (s *Server) unregisterSession(id uint64) {
	s.sessMu.Lock()
	delete(s.sessions, id)
	s.sessMu.Unlock()
	gActiveSessions.Add(-1)
}

// cancelSession services a CANCEL frame: constant-time key check,
// then interrupt the statement it names, and count the outcome. Unknown
// ids and bad keys are ignored (the requester is unauthenticated), and
// so is a CANCEL for a statement whose reply has been sent.
func (s *Server) cancelSession(c *Cancel) {
	s.sessMu.Lock()
	t := s.sessions[c.SessionID]
	s.sessMu.Unlock()
	outcome := "refused"
	var want, got [8]byte
	binary.LittleEndian.PutUint64(got[:], c.CancelKey)
	if t != nil {
		binary.LittleEndian.PutUint64(want[:], t.key)
	}
	if t != nil && subtle.ConstantTimeCompare(want[:], got[:]) == 1 {
		outcome = "stale"
		if c.Seq > t.replied.Load() {
			switch cur := t.sess.CancelStatement(c.Seq); {
			case c.Seq == cur:
				outcome = "applied"
			case c.Seq > cur:
				outcome = "early"
			}
		}
	}
	mCancels.With(outcome).Inc()
}

// Serve accepts connections on ln until Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			// Close already swept conns; don't leak a handler.
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = true
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// ListenAndServe listens on addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Close stops accepting and tears down live connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		return ln.Close()
	}
	return nil
}

func (s *Server) logger() *slog.Logger {
	if s.Logger != nil {
		return s.Logger
	}
	return obs.Nop()
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(sockWriter{conn})
	rows := &rowsWriter{w: w}
	defer rows.release()
	// reply sends one frame and flushes it: the whole answer to every
	// request but EXECUTE, whose frames streamCursor writes.
	reply := func(typ byte, payload []byte) error {
		mFramesOut.Inc()
		if err := WriteFrame(w, typ, payload); err != nil {
			return err
		}
		return w.Flush()
	}

	typ, payload, err := ReadFrame(r)
	if err != nil {
		return
	}
	if typ == MsgCancel {
		// Out-of-band cancellation: a fresh connection whose first and
		// only frame names a session and proves its key. No reply, no
		// Hello — mirroring Postgres' cancel-request connections.
		if c, err := DecodeCancel(payload); err == nil {
			s.cancelSession(c)
		}
		return
	}
	if typ == MsgReplHello {
		// A follower: the WAL stream shares the client port.
		hello, err := DecodeReplHello(payload)
		if err != nil {
			s.logger().Warn("wire: bad repl hello", "err", err)
			return
		}
		if s.Replicate == nil {
			_ = reply(MsgReplErr, (&ReplErr{Msg: "repl: this server serves no replication stream (no WAL)"}).Encode())
			return
		}
		s.Replicate(conn, r, hello)
		return
	}
	if typ != MsgHello {
		s.logger().Warn("wire: unexpected first frame", "frame", string(typ))
		return
	}
	hello, err := DecodeHello(payload)
	if err != nil {
		s.logger().Warn("wire: bad hello", "err", err)
		return
	}
	if s.token != "" && subtle.ConstantTimeCompare([]byte(hello.Token), []byte(s.token)) != 1 {
		// Reject untrusted platforms (§2: only trusted runtimes may
		// connect), with the trailer-only ROWS frame a failed
		// statement gets.
		_ = rows.writeChunk(&RowsChunk{First: true, Done: true, Err: "wire: bad platform token"})
		_ = w.Flush()
		return
	}
	sess := s.eng.NewSession(authority.Principal(hello.Principal))
	target := s.registerSession(sess)
	defer s.unregisterSession(target.id)
	if err := reply(MsgHelloOK, (&HelloOK{SessionID: target.id, CancelKey: target.key}).Encode()); err != nil {
		return
	}

	// stmts is this connection's prepared-statement table: handle →
	// pinned AST. Handles are connection-scoped (they die with it) and
	// start at 1; 0 is the one-shot EXECUTE form.
	stmts := make(map[uint64]*engine.Prepared)
	var stmtSeq uint64

	// frame is the buffer every request is read into. Decoding copies
	// what it keeps (strings, values, labels), so the next read may
	// overwrite it.
	var frame []byte
	for {
		typ, payload, buf, err := ReadFrameInto(r, frame)
		if err != nil {
			return
		}
		if cap(buf) <= MaxKeptFrame {
			frame = buf
		}
		mFramesIn.Inc()
		switch typ {
		case MsgClose:
			return
		case MsgPrepare:
			p, err := DecodePrepare(payload)
			if err != nil {
				s.logger().Warn("wire: bad prepare", "err", err)
				return
			}
			res := &PrepareRes{}
			if len(stmts) >= MaxSessionStmts {
				res.Err = fmt.Sprintf("wire: too many prepared statements on this connection (max %d); close some", MaxSessionStmts)
			} else if prep, perr := sess.Prepare(p.SQL); perr != nil {
				res.Err = perr.Error()
			} else {
				stmtSeq++
				stmts[stmtSeq] = prep
				res.StmtID = stmtSeq
				res.NumParams = uint32(prep.NumParams)
			}
			if err := reply(MsgPrepareRes, res.Encode()); err != nil {
				return
			}
		case MsgCloseStmt:
			c, err := DecodeCloseStmt(payload)
			if err != nil {
				s.logger().Warn("wire: bad closestmt", "err", err)
				return
			}
			delete(stmts, c.StmtID) // no reply: fire-and-forget
		case MsgExecute:
			e, err := DecodeExecute(payload)
			if err != nil {
				s.logger().Warn("wire: bad execute", "err", err)
				return
			}
			sess.SetTraceID(e.TraceID)
			t0 := time.Now()
			if err := s.runExecute(sess, stmts, e, rows); err != nil {
				return
			}
			// The chunk carrying the trailer is still buffered: this
			// flush ends the reply.
			if err := w.Flush(); err != nil {
				return
			}
			target.replied.Store(e.Seq)
			s.noteStmtDone(sess, time.Since(t0))
		case MsgStats:
			st := sess.LastStmtStats()
			res := &Stats{TraceID: st.TraceID, ParseNs: st.ParseNs, PlanNs: st.PlanNs, ExecNs: st.ExecNs, StreamNs: st.StreamNs}
			if err := reply(MsgStatsRes, res.Encode()); err != nil {
				return
			}
		case MsgStatus:
			if err := reply(MsgStatusRes, s.status().Encode()); err != nil {
				return
			}
		case MsgShardMap:
			var payload []byte
			if s.ShardMap != nil {
				if m := s.ShardMap(); m != nil {
					payload = m.Encode()
				}
			}
			if err := reply(MsgShardMapRes, payload); err != nil {
				return
			}
		case MsgPromote:
			var perr error
			if s.Promote != nil {
				perr = s.Promote()
			} else {
				perr = errors.New("wire: this server does not support promotion")
			}
			st := s.status()
			if perr != nil {
				st.Err = perr.Error()
			}
			if err := reply(MsgStatusRes, st.Encode()); err != nil {
				return
			}
		default:
			s.logger().Warn("wire: unexpected frame", "frame", string(typ))
			return
		}
	}
}

// sockWriter is what a connection's bufio.Writer writes to: the socket,
// with every write counted.
type sockWriter struct{ net.Conn }

func (sw sockWriter) Write(p []byte) (int, error) {
	mWrites.Inc()
	return sw.Conn.Write(p)
}

// noteStmtDone finishes one statement's server-side accounting: the
// total-time histogram, and — past the SlowQuery threshold — an audit
// line carrying the trace ID and the per-phase breakdown. The line
// carries the statement's text only when the session's secrecy label
// is empty as the statement ends: the text of a labeled session's
// statement (its literals, the names it reads) may hold what the label
// protects, and the audit log has no label.
func (s *Server) noteStmtDone(sess *engine.Session, total time.Duration) {
	mStmtSeconds.Observe(total.Nanoseconds())
	if s.SlowQuery <= 0 || total < s.SlowQuery {
		return
	}
	mSlowQueries.Inc()
	st := sess.LastStmtStats()
	attrs := []any{
		"trace", obs.TraceID(st.TraceID),
		"total_ns", total.Nanoseconds(),
		"parse_ns", st.ParseNs, "plan_ns", st.PlanNs,
		"exec_ns", st.ExecNs, "stream_ns", st.StreamNs,
	}
	if sess.Label().IsEmpty() {
		attrs = append(attrs, "sql", st.SQL)
	}
	obs.Audit().Warn("slow query", attrs...)
}

// status snapshots this node's replication role for STATUS probes.
func (s *Server) status() *Status {
	st := &Status{Replica: s.eng.IsReplica(), Epoch: s.eng.Epoch()}
	if st.Replica {
		st.AppliedLSN = uint64(s.eng.ReplAppliedLSN())
		if s.StatusErr != nil {
			if err := s.StatusErr(); err != nil {
				st.Err = err.Error()
			}
		}
	}
	if w := s.eng.WAL(); w != nil {
		st.WALEnd = uint64(w.End())
	}
	return st
}

// waitApplied blocks until this replica has applied the primary's log
// through lsn — the server half of the read-your-writes token flow. A
// primary (including a just-promoted one) returns immediately: its own
// log covers its own commits, and a stale token from a previous epoch
// is not comparable here anyway (the routing client re-bases its token
// on the first write after a failover).
func (s *Server) waitApplied(lsn uint64) error {
	timeout := s.WaitTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	deadline := time.Now().Add(timeout)
	// Exponential backoff: the common case (replica a batch behind)
	// resolves within the first microsecond-scale polls; a genuinely
	// lagging replica must not burn its CPU spinning — that CPU is
	// what applies the stream.
	sleep := 50 * time.Microsecond
	for s.eng.IsReplica() && s.eng.ReplAppliedLSN() < wal.LSN(lsn) {
		if time.Now().After(deadline) {
			return fmt.Errorf("wire: read-your-writes wait timed out: want lsn %d, applied %d", lsn, s.eng.ReplAppliedLSN())
		}
		time.Sleep(sleep)
		if sleep < 5*time.Millisecond {
			sleep *= 2
		}
	}
	return nil
}

// runExecute services one EXECUTE, the statement path: shard-map
// fencing and the read-your-writes wait, then the prepared handle (or
// the inline one-shot SQL), its result streamed back as chunked ROWS
// frames — each bounded by DefaultChunkRows and by MaxFrame —
// with the statement trailer on the final chunk. A returned error means
// the connection is broken; statement failures travel inside the
// stream.
func (s *Server) runExecute(sess *engine.Session, stmts map[uint64]*engine.Prepared, e *Execute, w *rowsWriter) error {
	sess.NumberNext(e.Seq)
	planT0 := time.Now()
	if e.SyncLabel {
		sess.SetLabelUnsafe(e.Label)
		sess.SetIntegrityUnsafe(e.ILabel)
		sess.SetPrincipalUnsafe(authority.Principal(e.Principal))
	}
	trailer := func(errMsg string, m *ShardMap) RowsChunk {
		return RowsChunk{
			Done: true, Err: errMsg, ShardMap: m,
			Label: sess.Label(), ILabel: sess.Integrity(),
			Epoch: s.eng.Epoch(), LSN: sess.CommitToken(),
		}
	}
	// Shard-map version fencing: a statement routed under an outdated
	// map may be aimed at the wrong shard entirely (a failover moved a
	// primary, a reconfiguration moved keys), so it is refused with the
	// current map attached rather than half-trusted. A client *ahead*
	// of this node's map is accepted: version bumps propagate through
	// the coordinator's process first, so after a failover the other
	// shards' servers briefly lag the routers — their placement didn't
	// change, and the engine's per-row ownership guard (which hashes
	// with this node's own map) still refuses genuinely misplaced rows.
	// ShardVer 0 marks a shard-unaware client (ifdb-cli, tests); those
	// are accepted under the same guard-only protection.
	if s.ShardMap != nil && e.ShardVer != 0 {
		if m := s.ShardMap(); m != nil && e.ShardVer < m.Version {
			msg := fmt.Sprintf("%s: statement routed under version %d, server at version %d", StaleShardMapErr, e.ShardVer, m.Version)
			c := trailer(msg, m)
			c.First = true
			return w.writeChunk(&c)
		}
	}
	if e.WaitLSN > 0 {
		if err := s.waitApplied(e.WaitLSN); err != nil {
			c := trailer(err.Error(), nil)
			c.First = true
			return w.writeChunk(&c)
		}
	}
	planNs := time.Since(planT0).Nanoseconds()
	var cur *engine.Cursor
	var err error
	if e.StmtID != 0 {
		p := stmts[e.StmtID]
		if p == nil {
			err = fmt.Errorf("wire: unknown statement handle %d", e.StmtID)
		} else {
			cur, err = sess.ExecPreparedStream(p, e.Params...)
		}
	} else {
		cur, err = sess.ExecStream(e.SQL, e.Params...)
	}
	sess.NotePlanNs(planNs)
	if err != nil {
		c := trailer(err.Error(), nil)
		c.First = true
		return w.writeChunk(&c)
	}
	streamT0 := time.Now()
	serr := s.streamCursor(sess, w, cur, trailer)
	sess.NoteStreamNs(time.Since(streamT0).Nanoseconds())
	return serr
}

// streamCursor pulls the statement cursor batch by batch, writing each
// as a ROWS chunk. A single SELECT streams end to end: the engine's
// iterator produces one scan batch at a time, so neither the server
// nor the client ever holds the full result, and each chunk is flushed
// as it is pulled. Chunks are bounded by DefaultChunkRows and by
// MaxFrame.
//
// The batch that ends the result carries the statement trailer: the
// cursor has resolved the statement by the time it returns that batch,
// so its rows and the trailer leave as one chunk, which handle's flush
// sends. A result that fits in one chunk is one frame, and one write
// when the frame fits the connection's write buffer; a stream of k
// chunks is k frames (k-1 flushed here, the last by handle).
//
// Between chunks it polls whether the statement is canceled: an
// out-of-band CANCEL lands within one batch — the cursor aborts the
// statement's transaction and the stream terminates with an ErrCanceled
// trailer instead of scanning (or shipping) the rest of the result.
func (s *Server) streamCursor(sess *engine.Session, w *rowsWriter, cur *engine.Cursor, trailer func(string, *ShardMap) RowsChunk) error {
	defer cur.Close()
	defer w.account(0)
	first := true
	for {
		if !first && sess.Canceled() {
			cur.Close()
			if sess.InTxn() {
				sess.Abort()
			}
			t := trailer(engine.ErrCanceled.Error(), nil)
			return w.writeChunk(&t)
		}
		rows, stored, labels, err := cur.NextEncoded(DefaultChunkRows)
		if err != nil {
			t := trailer(err.Error(), nil)
			t.First = first
			return w.writeChunk(&t)
		}
		var c RowsChunk
		if cur.Exhausted() {
			c = trailer("", nil)
			c.Affected = int64(cur.Affected())
		}
		if len(rows) > 0 {
			c.Rows, c.Stored, c.RowLabels = rows, stored, labels
		}
		if first {
			c.First, c.Cols = true, cur.Cols()
			first = false
		}
		if err := w.writeChunk(&c); err != nil || c.Done {
			return err
		}
		// The rows the cursor holds, at this chunk's encoded size a row.
		w.account(cur.Buffered() * len(w.buf) / len(rows))
		if err := w.w.Flush(); err != nil {
			return err
		}
		// A statement that streams never blocks, and on a host of few
		// processors that can leave no thread polling the network: the
		// client would then sit on these first rows, and an out-of-band
		// CANCEL on its accept, until the runtime's monitor polls (up to
		// 10 ms, or the whole drain). Yielding once wakes a poller. A
		// first chunk that ends the result never gets here: it is the
		// whole reply, and the statement is over.
		if c.First {
			runtime.Gosched()
		}
	}
}

// rowsWriter sends one connection's ROWS frames. Every chunk is encoded
// into the one buffer, which grows to the largest chunk the connection
// has sent and stays with it, so a stream allocates no frame of its
// own.
type rowsWriter struct {
	w    *bufio.Writer
	buf  []byte // the last chunk encoded
	held int64  // this connection's share of gStreamBuffered
}

// account sets what the connection buffers for result streaming: its
// encode buffer plus resultBytes of rows an open cursor holds.
func (rw *rowsWriter) account(resultBytes int) {
	held := int64(cap(rw.buf) + resultBytes)
	gStreamBuffered.Add(held - rw.held)
	rw.held = held
}

// release gives the connection's share back when it closes.
func (rw *rowsWriter) release() {
	gStreamBuffered.Add(-rw.held)
	rw.held = 0
}

// writeChunk encodes and sends one ROWS frame, splitting the chunk in
// half (recursively) when the encoding would exceed the frame limit —
// only a single unencodable row gives up.
func (rw *rowsWriter) writeChunk(c *RowsChunk) error {
	enc, err := c.AppendEncode(rw.buf[:0])
	if err != nil {
		return err
	}
	rw.buf = enc
	if len(enc)+1 <= MaxFrame {
		mFramesOut.Inc()
		mRowsBytes.Add(int64(len(enc)))
		// Through the 4 KiB write buffer, so a larger chunk leaves as the
		// buffer's worth and then the rest. Handing such a chunk to the
		// socket in one write woke the reader later: scan-drain's time to
		// first row (22 KB chunks) rose 40 % on a 2-CPU host.
		return WriteFrame(rw.w, MsgRows, enc)
	}
	if len(c.Rows) <= 1 {
		return fmt.Errorf("wire: single row exceeds the %d-byte frame limit", MaxFrame)
	}
	half := len(c.Rows) / 2
	left := &RowsChunk{First: c.First, Cols: c.Cols, Rows: c.Rows[:half]}
	right := &RowsChunk{
		Rows: c.Rows[half:],
		Done: c.Done, Err: c.Err, Affected: c.Affected,
		Label: c.Label, ILabel: c.ILabel, Epoch: c.Epoch, LSN: c.LSN,
		ShardMap: c.ShardMap,
	}
	if c.RowLabels != nil {
		left.RowLabels = c.RowLabels[:half]
		right.RowLabels = c.RowLabels[half:]
	}
	if c.Stored != nil {
		left.Stored, right.Stored = c.Stored[:half], c.Stored[half:]
	}
	if err := rw.writeChunk(left); err != nil {
		return err
	}
	return rw.writeChunk(right)
}
