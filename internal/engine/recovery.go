// Durability: write-ahead logging, checkpoints, and crash recovery.
//
// The engine's state lives in memory (catalog, authority, mem heaps,
// indexes) and in heap files (USING DISK tables). When Config.DataDir
// is set, every mutation is also recorded in a logical write-ahead
// log (internal/wal), and a checkpoint periodically captures the full
// state into a snapshot file so the log can be truncated:
//
//	DataDir/wal.log         — the append-only log
//	DataDir/checkpoint.snap — the last checkpoint snapshot
//	DataDir/<table>.heap    — paged heap files (disk tables)
//
// Recovery (run by New) rebuilds the engine: load the snapshot, then
// apply the log in one pass through applyLogged, the applier a replica
// applies its stream with — a transaction's writes are held until its
// commit record and discarded at its abort — then reconcile the heaps
// (versions whose creator never committed are marked aborted, their
// stale xmax stamps cleared). Transactions the log leaves without an
// outcome are aborted, and that abort is logged, by abortHeld.
//
// The protocol is deliberately apply-first, log-second with
// idempotent replay (records carry explicit TIDs; re-applying a
// record whose effect is already present is a no-op). That lets the
// checkpoint capture run with only WAL appends blocked — readers and
// already-applied writers proceed — rather than quiescing the engine.
// See wal.Writer.Checkpoint for the ordering argument.
package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ifdb/internal/authority"
	"ifdb/internal/catalog"
	"ifdb/internal/label"
	"ifdb/internal/sql"
	"ifdb/internal/storage"
	"ifdb/internal/types"
	"ifdb/internal/wal"
)

func (e *Engine) walPath() string  { return filepath.Join(e.cfg.DataDir, "wal.log") }
func (e *Engine) snapPath() string { return filepath.Join(e.cfg.DataDir, "checkpoint.snap") }
func (e *Engine) heapPath(table string) string {
	return filepath.Join(e.cfg.DataDir, strings.ToLower(table)+".heap")
}

// WAL returns the engine's write-ahead log (nil when DataDir is
// unset); tests and tools use it for sync accounting.
func (e *Engine) WAL() *wal.Writer { return e.wal }

// ---------------------------------------------------------------------------
// Logging hooks (forward path)

// logFirstWrite emits the lazy BEGIN record for a transaction's first
// logged write.
func (s *Session) logFirstWrite(w *wal.Writer) error {
	if s.stmtTx.MarkLogged() {
		_, err := w.Append(&wal.Record{Type: wal.RecBegin, XID: s.stmtTx.XID()})
		return err
	}
	return nil
}

// logInsert records a tuple insert. Called after the heap and index
// writes (apply-first, log-second; replay is idempotent by TID).
func (s *Session) logInsert(t *catalog.Table, tid storage.TID, lw, liw label.Label, row []types.Value) error {
	w := s.eng.wal
	if w == nil {
		return nil
	}
	if err := s.logFirstWrite(w); err != nil {
		return err
	}
	_, err := w.Append(&wal.Record{
		Type: wal.RecInsert, XID: s.stmtTx.XID(),
		Table: t.Name, TID: tid, Label: lw, ILabel: liw, Row: row,
	})
	return err
}

// logDelete records an xmax stamp (DELETE, or the old-version half of
// UPDATE).
func (s *Session) logDelete(t *catalog.Table, tid storage.TID) error {
	w := s.eng.wal
	if w == nil {
		return nil
	}
	if err := s.logFirstWrite(w); err != nil {
		return err
	}
	_, err := w.Append(&wal.Record{Type: wal.RecSetXmax, XID: s.stmtTx.XID(), Table: t.Name, TID: tid})
	return err
}

// logDDL records a successful DDL statement (by source text) and
// appends it to the replayable DDL history, returning the record's
// LSN (0 when nothing was logged). DDL is rare, so each record is
// synced immediately rather than waiting for a commit's group fsync.
func (e *Engine) logDDL(p authority.Principal, text string) (wal.LSN, error) {
	// Replaying DDL (recovery or replica apply) is never re-logged: a
	// replica persists the shipped records verbatim instead.
	if e.wal == nil || e.replaying() || text == "" {
		return 0, nil
	}
	e.ddlMu.Lock()
	e.ddlLog = append(e.ddlLog, ddlEntry{Principal: uint64(p), Text: text})
	e.ddlMu.Unlock()
	lsn, err := e.wal.Append(&wal.Record{Type: wal.RecDDL, Principal: uint64(p), Text: text})
	if err != nil {
		return 0, err
	}
	return lsn, e.wal.Sync()
}

// logSeqVal records a sequence allocation; durability piggybacks on
// the next commit fsync (the allocation only matters if the consuming
// transaction commits, and its commit record is appended later).
func (e *Engine) logSeqVal(name, key string, value int64) {
	if e.wal == nil || e.replaying() {
		return
	}
	_, _ = e.wal.Append(&wal.Record{Type: wal.RecSeqVal, Text: name, SeqKey: key, Value: value})
}

// authLogger adapts the WAL to authority.ChangeLogger. Authority
// changes are rare and security-critical, so each is synced.
type authLogger struct{ e *Engine }

func (a authLogger) append(rec *wal.Record) error {
	if _, err := a.e.wal.Append(rec); err != nil {
		return err
	}
	return a.e.wal.Sync()
}

func (a authLogger) LogPrincipal(id uint64, name string) error {
	return a.append(&wal.Record{Type: wal.RecPrincipal, Principal: id, Text: name})
}

func (a authLogger) LogTag(id, owner uint64, name string, parents []uint64) error {
	return a.append(&wal.Record{Type: wal.RecTag, Tag: id, Owner: owner, Text: name, Parents: parents})
}

func (a authLogger) LogDelegate(tag, grantor, grantee uint64) error {
	return a.append(&wal.Record{Type: wal.RecDelegate, Tag: tag, From: grantor, To: grantee})
}

func (a authLogger) LogRevoke(tag, revoker, grantee uint64) error {
	return a.append(&wal.Record{Type: wal.RecRevoke, Tag: tag, From: revoker, To: grantee})
}

// ---------------------------------------------------------------------------
// Open / recover / close

// openDurable runs crash recovery against DataDir and attaches the
// write-ahead log. Called by New; the engine is not yet shared.
func (e *Engine) openDurable() error {
	if e.cfg.DisableLock {
		// Caller holds the DataDir lock (replication follower).
		if err := os.MkdirAll(e.cfg.DataDir, 0o755); err != nil {
			return fmt.Errorf("engine: datadir: %w", err)
		}
	} else {
		l, err := AcquireDirLock(e.cfg.DataDir)
		if err != nil {
			return err
		}
		e.dirLock = l
	}
	mode, err := wal.ParseSyncMode(e.cfg.SyncMode)
	if err != nil {
		e.releaseLock()
		return err
	}

	e.recovering = true
	err = e.recoverState()
	e.recovering = false
	if err != nil {
		e.releaseLock()
		return fmt.Errorf("engine: recovery: %w", err)
	}

	w, err := wal.Open(e.walPath(), mode)
	if err != nil {
		e.releaseLock()
		return err
	}
	e.wal = w
	w.SetRetainBudget(e.cfg.ReplRetainBudget)
	e.txns.AttachWAL(w)
	e.auth.SetChangeLogger(authLogger{e})

	// Transactions in flight at the crash have no outcome record in
	// the surviving log.
	if err := e.abortHeld(); err != nil {
		w.Close()
		e.wal = nil
		e.releaseLock()
		return err
	}
	return nil
}

// releaseLock drops the DataDir lock during failed opens (Close
// releases it on the normal path).
func (e *Engine) releaseLock() {
	if e.dirLock != nil {
		_ = e.dirLock.Release()
		e.dirLock = nil
	}
}

// recoverState loads the checkpoint snapshot and applies the WAL.
// Transactions still held when the log ends — in flight at the crash,
// or their commit record in the torn tail — did not commit: their
// durable commit fsync never returned. openDurable aborts them.
func (e *Engine) recoverState() error {
	// The snapshot's records are all applied: it was captured whole,
	// and a version whose creator had not committed by then is settled
	// by the log's outcome records or by reconcile.
	if err := wal.ReadSnapshot(e.snapPath(), e.replayRecord); err != nil {
		return err
	}
	recs, _, err := wal.ReadAll(e.walPath())
	if err != nil {
		return err
	}
	for i := range recs {
		r := &recs[i]
		// Records below the snapshot's covered LSN were applied before
		// its capture began (apply-first, log-second) and are already
		// reflected in it — the log can hold such records when a
		// checkpoint kept the file for a lagging replica subscription.
		// They only open or resolve their transaction.
		if r.LSN < e.snapLSN {
			switch r.Type {
			case wal.RecInsert, wal.RecSetXmax:
				r = &wal.Record{Type: wal.RecBegin, XID: r.XID, LSN: r.LSN}
			case wal.RecBegin, wal.RecCommit, wal.RecAbort:
			default:
				continue
			}
		}
		if err := e.applyLogged(r, e.replayRecord); err != nil {
			return fmt.Errorf("replay at lsn %d: %w", r.LSN, err)
		}
	}
	return e.reconcile()
}

// replayRecord applies a record of this engine's own snapshot or log:
// applyRecord's effect, plus what only these files tell recovery — who
// the administrator is and where a replica's stream resumes.
func (e *Engine) replayRecord(r *wal.Record) error {
	switch r.Type {
	case wal.RecPrincipal:
		if e.admin == authority.NoPrincipal && r.Text == "admin" {
			// The engine's own administrator is the first principal it
			// logs (see New).
			e.admin = authority.Principal(r.Principal)
		}
	case wal.RecReplLSN:
		if r.Seq > e.replApplied.Load() {
			e.replApplied.Store(r.Seq)
		}
	}
	return e.applyRecord(r)
}

// heldTxn is a logged transaction whose outcome has not been read yet:
// its writes wait here, unapplied, for its commit record.
type heldTxn struct {
	firstLSN wal.LSN // LSN of its earliest record (a replica's resume barrier)
	recs     []wal.Record
}

// applyLogged turns one log record into state through apply: crash
// recovery passes replayRecord, a replica applyRecord. It is the one
// place a logged transaction's writes become state. BEGIN, INSERT and
// SETXMAX are held per XID; at the XID's commit record its held writes
// go through apply — heap effects first, commit status second, so a
// concurrent reader sees all of the transaction or none of it — and an
// abort record discards them. Every other record goes straight to
// apply. A heap therefore never holds a logged version whose creator
// has not committed, and a replayed DROP TABLE discards the held writes
// that name the table it removes (discardHeld, called by applyDDL).
func (e *Engine) applyLogged(r *wal.Record, apply func(*wal.Record) error) error {
	switch r.Type {
	case wal.RecBegin, wal.RecInsert, wal.RecSetXmax:
		h := e.held[r.XID]
		if h == nil {
			if e.held == nil {
				e.held = make(map[storage.XID]*heldTxn)
			}
			h = &heldTxn{firstLSN: r.LSN}
			e.held[r.XID] = h
		}
		if r.Type != wal.RecBegin {
			h.recs = append(h.recs, *r)
		}
		return nil
	case wal.RecCommit:
		if h := e.held[r.XID]; h != nil {
			delete(e.held, r.XID)
			for i := range h.recs {
				if err := apply(&h.recs[i]); err != nil {
					return err
				}
			}
		}
	case wal.RecAbort:
		delete(e.held, r.XID)
	}
	return apply(r)
}

// discardHeld applies the DROP rule: a held write naming a table that a
// replayed DROP TABLE removes went, on the primary, into the heap that
// DROP deleted. It is discarded, so it neither fails its commit on the
// missing table nor lands in a re-created table of the same name.
func (e *Engine) discardHeld(table string) {
	for _, h := range e.held {
		kept := h.recs[:0]
		for _, w := range h.recs {
			if !strings.EqualFold(w.Table, table) {
				kept = append(kept, w)
			}
		}
		h.recs = kept
	}
}

// abortHeld is the one in-flight resolver: every transaction still
// held — in flight when recovery's log ends, or at a promotion's cut —
// is marked aborted, and one ABORT is logged for it, so a replica
// streaming this log region can resolve it too (an unresolved
// transaction would pin its resume position forever). An explicitly
// aborted transaction is never held, so never re-logged.
func (e *Engine) abortHeld() error {
	if len(e.held) == 0 {
		return nil
	}
	for xid := range e.held {
		e.txns.RestoreAborted(xid)
		if _, err := e.wal.Append(&wal.Record{Type: wal.RecAbort, XID: xid}); err != nil {
			return err
		}
	}
	e.held = nil
	return e.wal.Sync()
}

// applyRecord applies one record's effect. A checkpoint snapshot loads
// through it directly; crash recovery's log and a replica's stream
// reach it through applyLogged, so a logged tuple write arrives only
// once its transaction committed — the snapshot alone holds versions
// whose creators had not yet — and may arrive out of TID order
// (storage.Heap.RestoreAt keeps such a gap fillable). Every case is
// idempotent, since every caller may apply a record whose effect is
// already present.
func (e *Engine) applyRecord(r *wal.Record) error {
	switch r.Type {
	case wal.RecCommit:
		e.txns.RestoreCommitted(r.XID, r.Seq)
	case wal.RecAbort:
		e.txns.RestoreAborted(r.XID)
	case wal.RecInsert, wal.RecSetXmax:
		t, ok := e.cat.Table(r.Table)
		if !ok {
			return fmt.Errorf("%v references unknown table %q", r.Type, r.Table)
		}
		if r.Type == wal.RecSetXmax {
			t.Heap.ForceXmax(r.TID, r.XID)
			return nil
		}
		return e.restoreVersion(t, r.TID, storage.TupleVersion{
			Row: r.Row, Label: r.Label, ILabel: r.ILabel, Xmin: r.XID,
		})
	case wal.RecDDL:
		if err := e.applyDDL(authority.Principal(r.Principal), r.Text); err != nil {
			return fmt.Errorf("ddl %q: %w", r.Text, err)
		}
		e.ddlMu.Lock()
		e.ddlLog = append(e.ddlLog, ddlEntry{Principal: r.Principal, Text: r.Text})
		e.ddlMu.Unlock()
	case wal.RecPrincipal:
		e.auth.RestorePrincipal(authority.Principal(r.Principal), r.Text)
	case wal.RecTag:
		return e.restoreTag(r.Tag, r.Owner, r.Text, r.Parents)
	case wal.RecDelegate:
		e.auth.RestoreDelegation(authority.Principal(r.From), authority.Principal(r.To), label.Tag(r.Tag))
	case wal.RecRevoke:
		// The edge may already be gone.
		e.auth.RestoreRevoke(authority.Principal(r.From), authority.Principal(r.To), label.Tag(r.Tag))
	case wal.RecSeqVal:
		e.restoreSeqVal(r.Text, r.SeqKey, r.Value)
	case wal.RecSnapshot:
		e.admin = authority.Principal(r.Principal)
		e.txns.RestoreCounters(uint64(r.XID), r.Seq)
		e.snapLSN = r.Covered
	}
	// RecBegin and the checkpoint and replication markers carry no
	// state of their own.
	return nil
}

// restoreVersion re-places a version at its exact TID and, when it was
// actually placed (not already on a flushed page), indexes it.
func (e *Engine) restoreVersion(t *catalog.Table, tid storage.TID, tv storage.TupleVersion) error {
	placed, err := t.Heap.RestoreAt(tid, tv)
	if err != nil {
		return fmt.Errorf("restore %s tid %d: %w", t.Name, tid, err)
	}
	if placed {
		t.IndexVersion(tid, tv.Row)
	}
	return nil
}

// reconcile finishes recovery: every version whose creator is not
// known-committed is marked aborted (fuzzy snapshots and flushed
// pages can carry in-flight writes), and stale uncommitted xmax stamps
// are cleared so they do not read as write-write conflicts.
func (e *Engine) reconcile() error {
	for _, t := range e.cat.Tables() {
		type stale struct {
			tid storage.TID
			xid storage.XID
		}
		var clears []stale
		err := t.Heap.Scan(func(tid storage.TID, tv *storage.TupleVersion) bool {
			if _, ok := e.txns.Committed(tv.Xmin); !ok && !e.txns.Aborted(tv.Xmin) {
				e.txns.RestoreAborted(tv.Xmin)
			}
			if tv.Xmax != storage.InvalidXID {
				if _, ok := e.txns.Committed(tv.Xmax); !ok {
					clears = append(clears, stale{tid, tv.Xmax})
					if !e.txns.Aborted(tv.Xmax) {
						e.txns.RestoreAborted(tv.Xmax)
					}
				}
			}
			return true
		})
		if err != nil {
			return fmt.Errorf("engine: reconcile %q: %w", t.Name, err)
		}
		for _, c := range clears {
			t.Heap.ForceXmax(c.tid, storage.InvalidXID)
		}
	}
	return nil
}

// applyDDL re-executes a logged DDL statement as its original
// principal. e.recovering makes the DDL executors tolerate effects
// that are already present (snapshot/WAL overlap) and skip
// authority/procedure checks vetted at original execution time. A
// replayed DROP TABLE also discards the held writes naming its table.
func (e *Engine) applyDDL(p authority.Principal, text string) error {
	stmts, err := sql.ParseAll(text)
	if err != nil {
		return err
	}
	s := e.NewSession(p)
	s.replApply = true // replayed DDL was vetted on first execution
	for _, st := range stmts {
		if _, err := s.ExecStmt(st); err != nil {
			return err
		}
		if d, ok := st.(*sql.DropTableStmt); ok {
			e.discardHeld(d.Name)
		}
	}
	return nil
}

// restoreTag rebuilds a tag in the authority state and the engine's
// name directory.
func (e *Engine) restoreTag(id, owner uint64, name string, parents []uint64) error {
	pts := make([]label.Tag, len(parents))
	for i, p := range parents {
		pts[i] = label.Tag(p)
	}
	if err := e.auth.RestoreTag(label.Tag(id), authority.Principal(owner), name, pts); err != nil {
		return err
	}
	e.tagMu.Lock()
	defer e.tagMu.Unlock()
	if _, dup := e.tagNames[name]; !dup {
		e.tagNames[name] = label.Tag(id)
		e.nameOf[label.Tag(id)] = name
	}
	return nil
}

// Close checkpoints, stops the background checkpointer, and closes
// the WAL and heap files. A database closed cleanly recovers from the
// snapshot alone (the log is empty). Safe to call more than once.
func (e *Engine) Close() error {
	e.ckptMu.Lock()
	if e.closed {
		e.ckptMu.Unlock()
		return nil
	}
	e.closed = true
	stop, done := e.ckptStop, e.ckptDone
	e.ckptMu.Unlock()

	// Stop the background checkpointer outside ckptMu (its loop takes
	// ckptMu for each tick; holding it here would deadlock).
	if stop != nil {
		close(stop)
		<-done
	}
	if e.wal == nil {
		e.releaseLock()
		return nil
	}
	// Final checkpoint + close under ckptMu. A concurrent Checkpoint()
	// call either finishes before we acquire the lock or sees closed
	// and becomes a no-op — nothing touches the WAL after wal.Close.
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	err := e.checkpointLocked()
	if werr := e.wal.Close(); err == nil {
		err = werr
	}
	for _, t := range e.cat.Tables() {
		if cerr := t.Heap.Close(false); err == nil {
			err = cerr
		}
	}
	e.releaseLock()
	return err
}

// ---------------------------------------------------------------------------
// Checkpointing

// Checkpoint captures the full engine state into the snapshot file,
// flushes dirty disk-heap pages, and truncates the WAL. Readers and
// in-flight statements keep running; only WAL appends (and therefore
// commit completions) wait.
func (e *Engine) Checkpoint() error {
	if e.wal == nil {
		return nil
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	if e.closed {
		return nil
	}
	return e.checkpointLocked()
}

func (e *Engine) checkpointLocked() error {
	return e.wal.Checkpoint(func(covered wal.LSN) error {
		snap, err := e.captureSnapshot(covered)
		if err != nil {
			return err
		}
		if err := wal.WriteSnapshot(e.snapPath(), snap); err != nil {
			return err
		}
		for _, t := range e.cat.Tables() {
			if err := t.Heap.Flush(); err != nil {
				return fmt.Errorf("flush %s: %w", t.Name, err)
			}
		}
		return nil
	})
}

func (e *Engine) checkpointLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	defer close(e.ckptDone)
	for {
		select {
		case <-e.ckptStop:
			return
		case <-t.C:
			_ = e.Checkpoint() // next interval retries on error
		}
	}
}

// captureSnapshot renders the engine state as the records of a
// checkpoint snapshot (see wal.WriteSnapshot), framed in this order:
//
//	SNAPSHOT        admin, XID and commit-sequence counters, covered
//	REPL-LSN        the primary LSN a replica has applied through
//	PRINCIPAL, TAG, DELEGATE, each sorted by id
//	DDL             the replayable history, in order
//	SEQVAL          sorted by sequence name, then label partition
//	INSERT          every mem-table version (xmin = XID), followed by
//	                a SETXMAX when it has an xmax
//	COMMIT, ABORT   the outcomes of the XIDs versions reference, sorted
//
// Disk tables hold no records here: their pages are flushed and
// fsynced by the same checkpoint, and the DDL history recreates their
// catalog entries (reopening the heap files) on recovery.
//
// It runs with WAL appends blocked (see Checkpoint): every mutation
// already applied is either visible to the capture scans or will land
// in the new log generation, whose idempotent replay re-applies it.
// covered is the log LSN below which every record's effect is in this
// capture: recovery applies only log records at or above it.
func (e *Engine) captureSnapshot(covered wal.LSN) ([]byte, error) {
	buf := make([]byte, 0, 1<<16)
	var err error
	add := func(r *wal.Record) {
		if err == nil {
			buf, err = wal.AppendFrame(buf, r)
		}
	}
	add(&wal.Record{Type: wal.RecSnapshot, Principal: uint64(e.admin),
		XID: storage.XID(e.txns.NextXID()), Seq: e.txns.CommitSeq(), Covered: covered})
	add(&wal.Record{Type: wal.RecReplLSN, Seq: e.replApplied.Load()})

	prins, tags, dels := e.auth.Export()
	sort.Slice(prins, func(i, j int) bool { return prins[i].ID < prins[j].ID })
	sort.Slice(tags, func(i, j int) bool { return tags[i].ID < tags[j].ID })
	sort.Slice(dels, func(i, j int) bool {
		a, b := dels[i], dels[j]
		if a.Tag != b.Tag {
			return a.Tag < b.Tag
		}
		if a.Grantor != b.Grantor {
			return a.Grantor < b.Grantor
		}
		return a.Grantee < b.Grantee
	})
	for _, p := range prins {
		add(&wal.Record{Type: wal.RecPrincipal, Principal: uint64(p.ID), Text: p.Name})
	}
	for _, t := range tags {
		parents := make([]uint64, len(t.Parents))
		for i, p := range t.Parents {
			parents[i] = uint64(p)
		}
		add(&wal.Record{Type: wal.RecTag, Tag: uint64(t.ID), Owner: uint64(t.Owner), Text: t.Name, Parents: parents})
	}
	for _, d := range dels {
		add(&wal.Record{Type: wal.RecDelegate, Tag: uint64(d.Tag), From: uint64(d.Grantor), To: uint64(d.Grantee)})
	}

	e.ddlMu.Lock()
	for _, d := range e.ddlLog {
		add(&wal.Record{Type: wal.RecDDL, Principal: d.Principal, Text: d.Text})
	}
	e.ddlMu.Unlock()

	e.eachSeqVal(func(name, key string, value int64) {
		add(&wal.Record{Type: wal.RecSeqVal, Text: name, SeqKey: key, Value: value})
	})

	// Heap scans: mem-table versions, plus the set of xids any live
	// version references (their statuses must survive log truncation).
	refXIDs := make(map[storage.XID]bool)
	tables := e.cat.Tables()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	for _, t := range tables {
		scanErr := t.Heap.Scan(func(tid storage.TID, tv *storage.TupleVersion) bool {
			refXIDs[tv.Xmin] = true
			if tv.Xmax != storage.InvalidXID {
				refXIDs[tv.Xmax] = true
			}
			if t.OnDisk {
				return true
			}
			add(&wal.Record{Type: wal.RecInsert, XID: tv.Xmin, Table: t.Name, TID: tid,
				Label: tv.Label, ILabel: tv.ILabel, Row: tv.Row})
			if tv.Xmax != storage.InvalidXID {
				add(&wal.Record{Type: wal.RecSetXmax, XID: tv.Xmax, Table: t.Name, TID: tid})
			}
			return err == nil
		})
		if scanErr != nil {
			return nil, fmt.Errorf("engine: snapshot %q: %w", t.Name, scanErr)
		}
	}

	xids := make([]storage.XID, 0, len(refXIDs))
	for x := range refXIDs {
		xids = append(xids, x)
	}
	sort.Slice(xids, func(i, j int) bool { return xids[i] < xids[j] })
	for _, x := range xids {
		// An in-flight xid carries no outcome; if it commits, the
		// commit record lands in the new log generation.
		if seq, ok := e.txns.Committed(x); ok {
			add(&wal.Record{Type: wal.RecCommit, XID: x, Seq: seq})
		} else if e.txns.Aborted(x) {
			add(&wal.Record{Type: wal.RecAbort, XID: x})
		}
	}
	if err != nil {
		return nil, fmt.Errorf("engine: snapshot: %w", err)
	}
	return buf, nil
}
