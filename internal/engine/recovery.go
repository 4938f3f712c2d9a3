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
// Recovery (run by New) rebuilds the engine: load the snapshot,
// replay the log in LSN order, then reconcile — transactions without
// a commit record are marked aborted, their stale xmax stamps
// cleared, and secondary indexes rebuilt as versions are restored.
//
// The protocol is deliberately apply-first, log-second with
// idempotent replay (records carry explicit TIDs; re-applying a
// record whose effect is already present is a no-op). That lets the
// checkpoint capture run with only WAL appends blocked — readers and
// already-applied writers proceed — rather than quiescing the engine.
// See wal.Writer.Checkpoint for the ordering argument.
package engine

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
	orphans, err := e.recoverState()
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
	// the surviving log. Recovery marked them aborted in memory; log
	// those aborts so a replica streaming this log region can resolve
	// them too (an unresolved transaction would pin its resume
	// position forever).
	for _, xid := range orphans {
		if _, err := w.Append(&wal.Record{Type: wal.RecAbort, XID: xid}); err != nil {
			w.Close()
			e.wal = nil
			e.releaseLock()
			return err
		}
	}
	if len(orphans) > 0 {
		if err := w.Sync(); err != nil {
			w.Close()
			e.wal = nil
			e.releaseLock()
			return err
		}
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

// recoverState loads the checkpoint snapshot and replays the WAL. It
// returns the XIDs of orphaned transactions: in flight at the crash,
// with writes in the log but no outcome record.
func (e *Engine) recoverState() ([]storage.XID, error) {
	if err := e.loadSnapshot(); err != nil {
		return nil, err
	}
	recs, _, err := wal.ReadAll(e.walPath())
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, e.reconcile(nil)
	}

	// Pass 1: transaction outcomes. A transaction whose commit record
	// is missing — in flight at the crash, or its record in the torn
	// tail — did not commit: its durable commit fsync never returned.
	committed := make(map[storage.XID]uint64)
	aborted := make(map[storage.XID]bool)
	seen := make(map[storage.XID]bool)
	for i := range recs {
		r := &recs[i]
		switch r.Type {
		case wal.RecCommit:
			committed[r.XID] = r.Seq
			seen[r.XID] = true
		case wal.RecAbort:
			aborted[r.XID] = true
			seen[r.XID] = true
		case wal.RecBegin, wal.RecInsert, wal.RecSetXmax:
			seen[r.XID] = true
		}
	}
	isCommitted := func(x storage.XID) bool {
		if _, ok := committed[x]; ok {
			return true
		}
		_, ok := e.txns.Committed(x) // committed before the checkpoint
		return ok
	}

	// Pass 2: apply in LSN order. Records below the snapshot's covered
	// LSN were applied before its capture began (apply-first,
	// log-second) and are already reflected in it — the log can hold
	// such records when a checkpoint kept the file for a lagging
	// replica subscription. Pass 1 still read their outcomes above.
	for i := range recs {
		r := &recs[i]
		if r.LSN < e.snapLSN {
			continue
		}
		switch r.Type {
		case wal.RecInsert, wal.RecSetXmax:
			if !isCommitted(r.XID) {
				continue // a skipped insert's slot stays a gap
			}
		case wal.RecPrincipal:
			if e.admin == authority.NoPrincipal && r.Text == "admin" {
				// The engine's own administrator is the first principal
				// it logs (see New).
				e.admin = authority.Principal(r.Principal)
			}
		case wal.RecReplLSN:
			if r.Seq > e.replApplied.Load() {
				e.replApplied.Store(r.Seq)
			}
		}
		if err := e.applyRecord(r); err != nil {
			return nil, fmt.Errorf("replay at lsn %d: %w", r.LSN, err)
		}
	}

	// In-flight transactions are over: mark them aborted so their
	// versions are invisible and vacuumable. Only transactions with
	// *no* outcome record at all are orphans needing an abort logged
	// (an explicitly aborted one already has its record — re-logging
	// it would add a state record that defeats the replica
	// fast-forward check after a clean restart).
	var orphans []storage.XID
	for xid := range seen {
		if _, ok := committed[xid]; ok {
			continue
		}
		e.txns.RestoreAborted(xid)
		if !aborted[xid] {
			orphans = append(orphans, xid)
		}
	}
	return orphans, e.reconcile(seen)
}

// applyRecord applies one logged record's effect. Crash recovery and a
// replica both apply through it; what differs stays with the caller:
// recovery knows every outcome before it applies in LSN order, the
// replica holds a transaction's writes until its commit record. Either
// way a tuple write reaches applyRecord only if its transaction
// committed, and may arrive out of TID order (storage.Heap.RestoreAt
// keeps such a gap fillable). Every case is idempotent, since both
// callers may apply a record whose effect is already present.
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
	if !placed {
		return nil
	}
	for _, ix := range t.Indexes {
		key := make([]types.Value, len(ix.Cols))
		for i, c := range ix.Cols {
			key[i] = tv.Row[c]
		}
		ix.Tree.Insert(key, tid)
	}
	return nil
}

// reconcile finishes recovery: every version whose creator is not
// known-committed is marked aborted (fuzzy snapshots and flushed
// pages can carry in-flight writes), and stale uncommitted xmax stamps
// are cleared so they do not read as write-write conflicts.
func (e *Engine) reconcile(seen map[storage.XID]bool) error {
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
// authority/procedure checks vetted at original execution time.
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
		if err := writeFileAtomic(e.snapPath(), snap); err != nil {
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

// writeFileAtomic writes data to path via a temp file + rename, with
// fsyncs on both the file and its directory.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	return nil
}

// ---------------------------------------------------------------------------
// Snapshot format
//
// Binary layout (all integers uvarint unless noted; strings are
// uvarint length + bytes; labels use the label package encoding):
//
//	"IFDBSNP2"
//	admin principal (8 bytes LE)
//	nextXID, commitSeq, replApplied (primary LSN, 0 on a primary)
//	coveredLSN — the log position this snapshot covers: recovery
//	             applies only WAL records at or above it (their
//	             effects are the ones the capture could not have seen)
//	nCommitted, (xid, seq)*      — statuses of xids referenced by live versions
//	nAborted, xid*
//	nPrincipals, (id, name)*
//	nTags, (id, owner, name, nParents, parent*)*
//	nDelegations, (tag, grantor, grantee)*
//	nDDL, (principal, text)*
//	nSequences, (name, nPartitions, (key, value)*)*
//	nMemTables, (name, nVersions, (tid, xmin, xmax, label, ilabel, row)*)*
//	crc32c (4 bytes LE) over everything after the magic
//
// Disk tables are not in the snapshot: their pages are flushed and
// fsynced by the same checkpoint, and the DDL history recreates their
// catalog entries (reopening the heap files) on recovery.

var snapMagic = []byte("IFDBSNP2")

func appendUv(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// captureSnapshot serializes the engine state. It runs with WAL
// appends blocked (see Checkpoint): every mutation already applied is
// either visible to the capture scans or will land in the new log
// generation, whose idempotent replay re-applies it. covered is the
// log LSN below which every record's effect is in this capture.
func (e *Engine) captureSnapshot(covered wal.LSN) ([]byte, error) {
	buf := append([]byte(nil), snapMagic...)
	body := make([]byte, 0, 1<<16)
	body = binary.LittleEndian.AppendUint64(body, uint64(e.admin))
	body = appendUv(body, e.txns.NextXID())
	body = appendUv(body, e.txns.CommitSeq())
	body = appendUv(body, e.replApplied.Load())
	body = appendUv(body, uint64(covered))

	// Heap scans: mem-table versions, plus the set of xids any live
	// version references (their statuses must survive log truncation).
	type memTable struct {
		name string
		vers []struct {
			tid storage.TID
			tv  storage.TupleVersion
		}
	}
	refXIDs := make(map[storage.XID]bool)
	var memTables []memTable
	tables := e.cat.Tables()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	for _, t := range tables {
		mt := memTable{name: t.Name}
		isMem := !t.OnDisk
		err := t.Heap.Scan(func(tid storage.TID, tv *storage.TupleVersion) bool {
			refXIDs[tv.Xmin] = true
			if tv.Xmax != storage.InvalidXID {
				refXIDs[tv.Xmax] = true
			}
			if isMem {
				cp := *tv
				cp.Row = append([]types.Value(nil), tv.Row...)
				mt.vers = append(mt.vers, struct {
					tid storage.TID
					tv  storage.TupleVersion
				}{tid, cp})
			}
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("engine: snapshot %q: %w", t.Name, err)
		}
		if isMem {
			memTables = append(memTables, mt)
		}
	}

	var committed [][2]uint64
	var aborted []uint64
	for xid := range refXIDs {
		if seq, ok := e.txns.Committed(xid); ok {
			committed = append(committed, [2]uint64{uint64(xid), seq})
		} else if e.txns.Aborted(xid) {
			aborted = append(aborted, uint64(xid))
		}
		// In-flight xids carry no status; if they commit, the commit
		// record lands in the new log generation.
	}
	sort.Slice(committed, func(i, j int) bool { return committed[i][0] < committed[j][0] })
	sort.Slice(aborted, func(i, j int) bool { return aborted[i] < aborted[j] })
	body = appendUv(body, uint64(len(committed)))
	for _, c := range committed {
		body = appendUv(body, c[0])
		body = appendUv(body, c[1])
	}
	body = appendUv(body, uint64(len(aborted)))
	for _, x := range aborted {
		body = appendUv(body, x)
	}

	prins, tags, dels := e.auth.Export()
	sort.Slice(prins, func(i, j int) bool { return prins[i].ID < prins[j].ID })
	sort.Slice(tags, func(i, j int) bool { return tags[i].ID < tags[j].ID })
	body = appendUv(body, uint64(len(prins)))
	for _, p := range prins {
		body = appendUv(body, uint64(p.ID))
		body = appendStr(body, p.Name)
	}
	body = appendUv(body, uint64(len(tags)))
	for _, t := range tags {
		body = appendUv(body, uint64(t.ID))
		body = appendUv(body, uint64(t.Owner))
		body = appendStr(body, t.Name)
		body = appendUv(body, uint64(len(t.Parents)))
		for _, p := range t.Parents {
			body = appendUv(body, uint64(p))
		}
	}
	body = appendUv(body, uint64(len(dels)))
	for _, d := range dels {
		body = appendUv(body, uint64(d.Tag))
		body = appendUv(body, uint64(d.Grantor))
		body = appendUv(body, uint64(d.Grantee))
	}

	e.ddlMu.Lock()
	ddl := append([]ddlEntry(nil), e.ddlLog...)
	e.ddlMu.Unlock()
	body = appendUv(body, uint64(len(ddl)))
	for _, d := range ddl {
		body = appendUv(body, d.Principal)
		body = appendStr(body, d.Text)
	}

	body = e.appendSequenceSnapshot(body)

	body = appendUv(body, uint64(len(memTables)))
	var err error
	for _, mt := range memTables {
		body = appendStr(body, mt.name)
		body = appendUv(body, uint64(len(mt.vers)))
		for _, v := range mt.vers {
			body = appendUv(body, uint64(v.tid))
			body = appendUv(body, uint64(v.tv.Xmin))
			body = appendUv(body, uint64(v.tv.Xmax))
			if body, err = label.AppendEncode(body, v.tv.Label); err != nil {
				return nil, err
			}
			if body, err = label.AppendEncode(body, v.tv.ILabel); err != nil {
				return nil, err
			}
			if body, err = types.EncodeRow(body, v.tv.Row); err != nil {
				return nil, err
			}
		}
	}

	buf = append(buf, body...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))), nil
}

// snapReader decodes the snapshot body with panic-based truncation
// handling (the CRC has already vouched for the bytes).
type snapReader struct{ b []byte }

var errSnapTruncated = fmt.Errorf("engine: truncated snapshot")

func (r *snapReader) uv() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		panic(errSnapTruncated)
	}
	r.b = r.b[n:]
	return v
}

func (r *snapReader) str() string {
	n := r.uv()
	if uint64(len(r.b)) < n {
		panic(errSnapTruncated)
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *snapReader) label() label.Label {
	l, n, err := label.Decode(r.b)
	if err != nil {
		panic(errSnapTruncated)
	}
	r.b = r.b[n:]
	return l
}

func (r *snapReader) row() []types.Value {
	row, n, err := types.DecodeRow(r.b)
	if err != nil {
		panic(errSnapTruncated)
	}
	r.b = r.b[n:]
	return row
}

// loadSnapshot restores engine state from the checkpoint snapshot, if
// one exists.
func (e *Engine) loadSnapshot() (err error) {
	data, rerr := os.ReadFile(e.snapPath())
	if rerr != nil {
		if os.IsNotExist(rerr) {
			return nil
		}
		return rerr
	}
	if len(data) < len(snapMagic)+12 || string(data[:len(snapMagic)]) != string(snapMagic) {
		return fmt.Errorf("engine: %s is not a snapshot", e.snapPath())
	}
	body := data[len(snapMagic) : len(data)-4]
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)) != wantCRC {
		return fmt.Errorf("engine: snapshot %s is corrupt (crc mismatch)", e.snapPath())
	}
	defer func() {
		if rec := recover(); rec != nil {
			if rec == errSnapTruncated {
				err = errSnapTruncated
				return
			}
			panic(rec)
		}
	}()
	r := &snapReader{b: body}

	if len(r.b) < 8 {
		return errSnapTruncated
	}
	e.admin = authority.Principal(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	nextXID := r.uv()
	commitSeq := r.uv()
	e.txns.RestoreCounters(nextXID, commitSeq)
	e.replApplied.Store(r.uv())
	e.snapLSN = wal.LSN(r.uv())

	for n := r.uv(); n > 0; n-- {
		xid := r.uv()
		seq := r.uv()
		e.txns.RestoreCommitted(storage.XID(xid), seq)
	}
	for n := r.uv(); n > 0; n-- {
		e.txns.RestoreAborted(storage.XID(r.uv()))
	}

	for n := r.uv(); n > 0; n-- {
		id := r.uv()
		name := r.str()
		e.auth.RestorePrincipal(authority.Principal(id), name)
	}
	for n := r.uv(); n > 0; n-- {
		id := r.uv()
		owner := r.uv()
		name := r.str()
		parents := make([]uint64, r.uv())
		for i := range parents {
			parents[i] = r.uv()
		}
		if err := e.restoreTag(id, owner, name, parents); err != nil {
			return err
		}
	}
	for n := r.uv(); n > 0; n-- {
		tag := r.uv()
		grantor := r.uv()
		grantee := r.uv()
		e.auth.RestoreDelegation(authority.Principal(grantor), authority.Principal(grantee), label.Tag(tag))
	}

	nDDL := r.uv()
	ddl := make([]ddlEntry, 0, nDDL)
	for i := uint64(0); i < nDDL; i++ {
		p := r.uv()
		text := r.str()
		ddl = append(ddl, ddlEntry{Principal: p, Text: text})
	}
	e.ddlLog = ddl
	for _, d := range ddl {
		if err := e.applyDDL(authority.Principal(d.Principal), d.Text); err != nil {
			return fmt.Errorf("snapshot ddl %q: %w", d.Text, err)
		}
	}

	e.loadSequenceSnapshot(r)

	for n := r.uv(); n > 0; n-- {
		name := r.str()
		t, ok := e.cat.Table(name)
		for v := r.uv(); v > 0; v-- {
			tid := storage.TID(r.uv())
			tv := storage.TupleVersion{Xmin: storage.XID(r.uv()), Xmax: storage.XID(r.uv())}
			tv.Label = r.label()
			tv.ILabel = r.label()
			tv.Row = r.row()
			if !ok {
				return fmt.Errorf("engine: snapshot references unknown table %q", name)
			}
			if err := e.restoreVersion(t, tid, tv); err != nil {
				return err
			}
		}
	}
	return nil
}
