package repl

import (
	"bufio"
	"fmt"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ifdb/internal/engine"
	"ifdb/internal/obs"
	"ifdb/internal/wal"
	"ifdb/internal/wire"
)

// Config configures a follower.
type Config struct {
	// Addr is the primary's client address.
	Addr string
	// Token authenticates this follower to the primary.
	Token string
	// DataDir is the follower's own data directory; its recovered
	// state and persisted stream position live there.
	DataDir string

	// Engine knobs, mirroring ifdb.Config. ReplRetainBudget matters
	// the moment this follower is *promoted*: the node's Primary then
	// serves followers from this engine, and a rejoining laggard must
	// not pin the new primary's log unboundedly.
	IFC              bool
	SyncMode         string
	CheckpointEvery  time.Duration
	BufferPoolPages  int
	ReplRetainBudget int64

	// DialTimeout bounds each connection attempt (default 5s);
	// RetryInterval paces reconnects (default 1s).
	DialTimeout   time.Duration
	RetryInterval time.Duration

	// Logger, when set, receives connection and stream diagnostics.
	Logger *slog.Logger
}

// Follower replicates a primary into a local read-only engine. It
// owns the engine: Open recovers (or bootstraps) it, a background
// goroutine applies the stream and reconnects on connection loss, and
// Close shuts both down.
type Follower struct {
	cfg  Config
	lock *engine.DirLock
	eng  *engine.Engine

	mu       sync.Mutex
	conn     net.Conn
	closed   bool
	released bool // engine closed + lock dropped (Close ran to the end)
	fatal    error
	done     chan struct{}
	stop     chan struct{} // closed with closed: ends a reconnect wait
	started  bool
}

// errNeedBootstrap marks a reconnect that would require a new
// basebackup — the follower fell off the primary's retained log (or
// its budget), or a promotion moved the cluster to a new epoch whose
// byte stream its position cannot resume. Bootstrap is only safe
// before the engine is shared (sessions hold the engine pointer), so
// mid-life it is fatal: the operator restarts the replica process, and
// Open re-bootstraps.
var errNeedBootstrap = fmt.Errorf("repl: follower needs a new basebackup (fell behind the retained log, or crossed an epoch boundary); restart to re-bootstrap")

// Open starts a follower: it locks and recovers DataDir, connects to
// the primary (taking a basebackup if the local state is fresh or too
// far behind), and begins applying the stream in the background.
func Open(cfg Config) (*Follower, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("repl: follower requires a DataDir")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = time.Second
	}
	lock, err := engine.AcquireDirLock(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	f := &Follower{cfg: cfg, lock: lock, done: make(chan struct{}), stop: make(chan struct{})}
	if f.eng, err = f.openEngine(); err != nil {
		_ = lock.Release()
		return nil, err
	}
	conn, r, pos, err := f.connect(true)
	if err != nil {
		_ = f.eng.Close()
		_ = lock.Release()
		return nil, err
	}
	f.conn = conn
	f.started = true
	go f.run(conn, r, pos)
	return f, nil
}

func (f *Follower) openEngine() (*engine.Engine, error) {
	return engine.New(engine.Config{
		IFC:              f.cfg.IFC,
		DataDir:          f.cfg.DataDir,
		SyncMode:         f.cfg.SyncMode,
		CheckpointEvery:  f.cfg.CheckpointEvery,
		BufferPoolPages:  f.cfg.BufferPoolPages,
		ReplRetainBudget: f.cfg.ReplRetainBudget,
		Replica:          true,
		DisableLock:      true, // we hold it across bootstrap restarts
	})
}

// Engine exposes the replica engine for sessions and servers. Stable
// for the follower's lifetime once Open returns.
func (f *Follower) Engine() *engine.Engine { return f.eng }

// AppliedLSN returns the primary LSN this follower has applied
// through.
func (f *Follower) AppliedLSN() wal.LSN { return f.eng.ReplAppliedLSN() }

// Err returns the fatal error that stopped the stream, if any.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fatal
}

// Close stops the stream (if Promote has not already), closes the
// engine, and releases the DataDir lock. It remains the shutdown path
// after a promotion: the engine it closes is then the promoted
// primary.
func (f *Follower) Close() error {
	f.mu.Lock()
	wasClosed := f.closed
	f.closed = true
	conn := f.conn
	released := f.released
	f.released = true
	f.mu.Unlock()
	if !wasClosed {
		close(f.stop)
		if conn != nil {
			conn.Close()
		}
		if f.started {
			<-f.done
		}
	}
	if released {
		return nil
	}
	err := f.eng.Close()
	if lerr := f.lock.Release(); err == nil {
		err = lerr
	}
	return err
}

// Promote stops the replication stream and turns the local engine into
// a writable primary under a bumped, durably-persisted WAL epoch (see
// engine.Promote for the fencing argument). The follower's engine —
// shared with every open session — is the promoted primary; Close
// still owns its shutdown. From here on a Primary over Engine() serves
// followers, so fenced peers rejoin at this node's client address.
func (f *Follower) Promote() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return fmt.Errorf("repl: promote on a closed follower")
	}
	f.closed = true // stops the apply/reconnect loop for good
	conn := f.conn
	f.mu.Unlock()
	close(f.stop)
	if conn != nil {
		conn.Close()
	}
	if f.started {
		<-f.done
	}
	return f.eng.Promote()
}

func (f *Follower) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

func (f *Follower) logger() *slog.Logger {
	if f.cfg.Logger != nil {
		return f.cfg.Logger
	}
	return obs.Nop()
}

// connect dials the primary, performs the hello exchange, and — when
// the primary answers with a basebackup and allowBootstrap is set —
// wipes and rebuilds the local state from it. It returns a connection
// positioned to stream from pos.
func (f *Follower) connect(allowBootstrap bool) (net.Conn, *bufio.Reader, wal.LSN, error) {
	conn, err := net.DialTimeout("tcp", f.cfg.Addr, f.cfg.DialTimeout)
	if err != nil {
		return nil, nil, 0, err
	}
	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriter(conn)
	pos := f.eng.ReplAppliedLSN()
	h := &wire.ReplHello{Token: f.cfg.Token, From: uint64(pos), Epoch: f.eng.Epoch()}
	if err := wire.WriteFrame(w, wire.MsgReplHello, h.Encode()); err != nil {
		conn.Close()
		return nil, nil, 0, err
	}
	if err := w.Flush(); err != nil {
		conn.Close()
		return nil, nil, 0, err
	}
	typ, payload, err := wire.ReadFrame(r)
	if err != nil {
		conn.Close()
		return nil, nil, 0, err
	}
	switch typ {
	case wire.MsgReplOK:
		ok, err := wire.DecodeReplOK(payload)
		if err != nil {
			conn.Close()
			return nil, nil, 0, err
		}
		// Adopt the primary's epoch durably (a resume implies equal
		// epochs today, but the adoption is what keeps that invariant
		// self-healing).
		if err := f.eng.WAL().SetEpoch(ok.Epoch); err != nil {
			conn.Close()
			return nil, nil, 0, err
		}
		f.eng.ResetReplApply()
		if resume := wal.LSN(ok.Resume); resume > pos {
			// The primary fast-forwarded us past state-free markers a
			// truncating checkpoint discarded (its clean restart).
			// Persist the jump so our next hello starts there.
			if err := f.eng.SetReplResumeLSN(resume); err != nil {
				conn.Close()
				return nil, nil, 0, err
			}
			pos = resume
		}
		return conn, r, pos, nil
	case wire.MsgReplErr:
		conn.Close()
		if e, derr := wire.DecodeReplErr(payload); derr == nil {
			return nil, nil, 0, fmt.Errorf("repl: primary refused: %s", e.Msg)
		}
		return nil, nil, 0, fmt.Errorf("repl: primary refused")
	case wire.MsgReplSnap:
		if !allowBootstrap {
			conn.Close()
			return nil, nil, 0, errNeedBootstrap
		}
		pos, err := f.bootstrap(r)
		if err != nil {
			conn.Close()
			return nil, nil, 0, err
		}
		f.eng.ResetReplApply()
		return conn, r, pos, nil
	default:
		conn.Close()
		return nil, nil, 0, fmt.Errorf("repl: unexpected %s after hello", wire.ReplFrameName(typ))
	}
}

// bootstrap receives a basebackup: it closes and wipes the local
// engine state (derived entirely from the primary, so discarding it is
// safe), writes the shipped files, reopens the engine over them, and
// durably records the stream start position.
func (f *Follower) bootstrap(r *bufio.Reader) (wal.LSN, error) {
	if err := f.eng.Close(); err != nil {
		return 0, err
	}
	if err := wipeDataDir(f.cfg.DataDir); err != nil {
		return 0, err
	}

	var cur *os.File
	closeCur := func() error {
		if cur == nil {
			return nil
		}
		err := cur.Sync()
		if cerr := cur.Close(); err == nil {
			err = cerr
		}
		cur = nil
		return err
	}
	curName := ""
	var start wal.LSN
	var epoch uint64
recv:
	for {
		typ, payload, err := wire.ReadFrame(r)
		if err != nil {
			closeCur()
			return 0, fmt.Errorf("repl: basebackup interrupted: %w", err)
		}
		switch typ {
		case wire.MsgReplFile:
			file, err := wire.DecodeReplFile(payload)
			if err != nil {
				closeCur()
				return 0, err
			}
			if file.Name != filepath.Base(file.Name) || strings.HasPrefix(file.Name, ".") {
				closeCur()
				return 0, fmt.Errorf("repl: basebackup file name %q rejected", file.Name)
			}
			if file.Name != curName {
				if err := closeCur(); err != nil {
					return 0, err
				}
				cur, err = os.OpenFile(filepath.Join(f.cfg.DataDir, file.Name),
					os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
				if err != nil {
					return 0, err
				}
				curName = file.Name
			}
			if _, err := cur.Write(file.Data); err != nil {
				closeCur()
				return 0, err
			}
		case wire.MsgReplSnapEnd:
			if err := closeCur(); err != nil {
				return 0, err
			}
			e, err := wire.DecodeReplSnapEnd(payload)
			if err != nil {
				return 0, err
			}
			start, epoch = wal.LSN(e.Start), e.Epoch
			break recv
		case wire.MsgReplErr:
			closeCur()
			if e, derr := wire.DecodeReplErr(payload); derr == nil {
				return 0, fmt.Errorf("repl: basebackup failed on primary: %s", e.Msg)
			}
			return 0, fmt.Errorf("repl: basebackup failed on primary")
		default:
			closeCur()
			return 0, fmt.Errorf("repl: unexpected %s during basebackup", wire.ReplFrameName(typ))
		}
	}
	// The files' names must be durable before the resume position that
	// vouches for them is.
	if err := wal.SyncDir(f.cfg.DataDir); err != nil {
		return 0, fmt.Errorf("repl: basebackup: %w", err)
	}

	eng, err := f.openEngine()
	if err != nil {
		return 0, fmt.Errorf("repl: reopen after basebackup: %w", err)
	}
	f.eng = eng
	if err := eng.WAL().SetEpoch(epoch); err != nil {
		return 0, err
	}
	if err := eng.SetReplResumeLSN(start); err != nil {
		return 0, err
	}
	f.logger().Info("repl: bootstrapped from basebackup", "lsn", uint64(start), "epoch", epoch)
	return start, nil
}

// wipeDataDir removes the database files (WAL, snapshot, heaps, temp
// leftovers) ahead of a basebackup, keeping the LOCK file — the lock
// stays held across the rebuild.
func wipeDataDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		name := ent.Name()
		switch {
		case name == "wal.log", name == "checkpoint.snap",
			strings.HasSuffix(name, ".heap"), strings.HasSuffix(name, ".tmp"):
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// run is the apply loop: stream until the connection drops, then
// reconnect (resuming at the persisted barrier) until Close or a
// fatal error.
func (f *Follower) run(conn net.Conn, r *bufio.Reader, pos wal.LSN) {
	defer close(f.done)
	for {
		err := f.stream(r, pos)
		conn.Close()
		if f.isClosed() {
			return
		}
		if err != nil {
			f.logger().Warn("repl: stream broke", "err", err)
		}
		if fatal, ok := err.(*applyError); ok {
			f.setFatal(fatal)
			return
		}
		// Reconnect with backoff; the persisted barrier is the resume
		// position.
		for {
			t := time.NewTimer(f.cfg.RetryInterval)
			select {
			case <-f.stop:
				t.Stop()
				return
			case <-t.C:
			}
			mReconnects.Inc()
			var cerr error
			conn, r, pos, cerr = f.connect(false)
			if cerr == nil {
				break
			}
			if cerr == errNeedBootstrap {
				f.setFatal(cerr)
				return
			}
			f.logger().Warn("repl: reconnect failed", "err", cerr)
		}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			conn.Close()
			return
		}
		f.conn = conn
		f.mu.Unlock()
	}
}

func (f *Follower) setFatal(err error) {
	f.mu.Lock()
	f.fatal = err
	f.mu.Unlock()
	f.logger().Error("repl: follower stopped", "err", err)
}

// applyError wraps local apply failures, which are fatal (retrying
// will not fix a local inconsistency), unlike connection errors.
type applyError struct{ err error }

func (e *applyError) Error() string { return e.err.Error() }
func (e *applyError) Unwrap() error { return e.err }

// stream applies ReplRecs frames until the connection errors.
func (f *Follower) stream(r *bufio.Reader, pos wal.LSN) error {
	epoch := f.eng.Epoch()
	for {
		typ, payload, err := wire.ReadFrame(r)
		if err != nil {
			return err
		}
		switch typ {
		case wire.MsgReplRecs:
			rr, err := wire.DecodeReplRecs(payload)
			if err != nil {
				return err
			}
			if rr.Epoch != epoch {
				// A primary's epoch is fixed for its lifetime, so a
				// mid-stream change means the peer is not the primary we
				// handshook with. Never apply cross-epoch bytes.
				return &applyError{fmt.Errorf("repl: stream epoch changed: batch at epoch %d, connected at %d", rr.Epoch, epoch)}
			}
			if wal.LSN(rr.From) != pos {
				return &applyError{fmt.Errorf("repl: stream gap: batch at %d, expected %d", rr.From, pos)}
			}
			recs, err := wal.DecodeFrames(rr.Data, pos)
			if err != nil {
				return &applyError{err}
			}
			if err := f.eng.ApplyReplicated(recs, rr.Data, wal.LSN(rr.To)); err != nil {
				return &applyError{err}
			}
			pos = wal.LSN(rr.To)
			gAppliedLSN.Set(int64(pos))
		case wire.MsgReplErr:
			if e, derr := wire.DecodeReplErr(payload); derr == nil {
				return fmt.Errorf("repl: primary: %s", e.Msg)
			}
			return fmt.Errorf("repl: primary error")
		default:
			return fmt.Errorf("repl: unexpected %s in stream", wire.ReplFrameName(typ))
		}
	}
}
