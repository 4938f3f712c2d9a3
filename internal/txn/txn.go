package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ifdb/internal/label"
	"ifdb/internal/storage"
	"ifdb/internal/wal"
)

// Errors returned by the transaction layer.
var (
	// ErrSerialization is the first-committer-wins write-write
	// conflict ("could not serialize access due to concurrent update").
	ErrSerialization = errors.New("txn: serialization failure: concurrent update")

	// ErrCommitLabel is returned when the commit-label rule (§5.1)
	// rejects a commit: the process label at the commit point carries a
	// tag not present on some tuple in the write set, so committing
	// would leak through the transaction's outcome.
	ErrCommitLabel = errors.New("txn: commit label exceeds label of written tuple")

	// ErrTxnDone is returned when operating on a finished transaction.
	ErrTxnDone = errors.New("txn: transaction already committed or aborted")
)

// Mode selects the isolation level. Snapshot isolation is the default
// (the paper's prototype ran on PostgreSQL's SI); Serializable
// additionally enforces the transaction clearance rule (§5.1).
type Mode uint8

// Isolation modes.
const (
	SnapshotIsolation Mode = iota
	Serializable
)

// Manager hands out transactions and resolves XIDs to outcomes.
type Manager struct {
	nextXID atomic.Uint64
	status  *statusTable

	commitMu sync.Mutex
	seq      atomic.Uint64 // last assigned commit sequence

	// active tracks the snapshot of every live transaction (for the
	// vacuum horizon), keyed by a private token rather than the XID:
	// read-only transactions have no XID (see BeginReadOnly) but still
	// pin the horizon.
	activeMu  sync.Mutex
	activeKey uint64
	active    map[uint64]uint64 // token -> snapshot seq

	// spare holds the cleared write-set arrays of finished transactions
	// (finish), each handed to the next transaction that may write
	// (register). Guarded by activeMu, which both already take.
	spare [][]writeRec

	// wal, when attached, receives commit/abort records for
	// transactions that logged at least one write. The commit record is
	// appended while commitMu is held, so log order equals
	// commit-sequence order — the prefix property group commit needs.
	wal *wal.Writer
}

// NewManager returns a fresh transaction manager.
func NewManager() *Manager {
	m := &Manager{status: newStatusTable(), active: make(map[uint64]uint64)}
	m.seq.Store(firstSeq - 1)
	return m
}

// A writeRec remembers one heap mutation for rollback and for the
// commit-label rules (secrecy and integrity).
type writeRec struct {
	heap   storage.Heap
	tid    storage.TID
	label  label.Label
	ilabel label.Label
	kind   writeKind
}

type writeKind uint8

const (
	wInsert writeKind = iota
	wDelete           // xmax stamp (also the "old version" half of update)
)

// maxSpareWrites bounds the write set finish recycles, in records: a
// bulk load's array is let go rather than kept for the process's life.
const maxSpareWrites = 1024

// Txn is one transaction. Not safe for concurrent use by multiple
// goroutines (like a database session).
type Txn struct {
	m       *Manager
	xid     storage.XID // InvalidXID for read-only transactions
	akey    uint64      // key in m.active
	snapSeq uint64
	mode    Mode
	done    bool
	writes  []writeRec

	// walLogged is set once the engine logs this transaction's first
	// write; only such transactions get commit/abort records (read-only
	// transactions leave no WAL trace). commitLSN is the log position
	// of the commit record, once appended.
	walLogged bool
	commitLSN wal.LSN

	// deferred holds engine callbacks queued to run at commit time
	// (deferred triggers and FK checks). Each runs with the label its
	// originating statement had, not the commit label (§5.2.3); the
	// engine captures that label in the closure.
	deferred []func() error
}

// Begin starts a transaction with a fresh snapshot.
func (m *Manager) Begin(mode Mode) *Txn {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	return m.register(&Txn{m: m, xid: storage.XID(m.nextXID.Add(1)), snapSeq: m.seq.Load(), mode: mode})
}

// BeginReadOnly starts a transaction that may only read: it takes a
// snapshot (and pins the vacuum horizon) but allocates no XID.
// Replicas run local queries in these — the primary owns the XID
// space, and a locally allocated XID could collide with a primary
// transaction arriving later in the replication stream, making its
// uncommitted versions self-visible to the reader.
func (m *Manager) BeginReadOnly(mode Mode) *Txn {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	return m.register(&Txn{m: m, xid: storage.InvalidXID, snapSeq: m.seq.Load(), mode: mode})
}

// register enters t's snapshot into active, and gives a t that may
// write a finished transaction's write-set array. Callers hold commitMu
// since taking it, so no commit can land between and let OldestSnapshot
// pass a snapshot not yet counted (vacuum would drop versions it sees).
func (m *Manager) register(t *Txn) *Txn {
	m.activeMu.Lock()
	m.activeKey++
	t.akey = m.activeKey
	m.active[t.akey] = t.snapSeq
	if n := len(m.spare); n > 0 && t.xid != storage.InvalidXID {
		t.writes, m.spare = m.spare[n-1], m.spare[:n-1]
	}
	m.activeMu.Unlock()
	return t
}

// XID returns the transaction id.
func (t *Txn) XID() storage.XID { return t.xid }

// Mode returns the isolation mode.
func (t *Txn) Mode() Mode { return t.mode }

// Done reports whether the transaction has finished.
func (t *Txn) Done() bool { return t.done }

// Visible reports whether a tuple version stamped (xmin, xmax) is
// visible to this transaction's snapshot. This is the MVCC half of the
// storage.Visibility predicate; the engine composes it with the label
// filter.
func (t *Txn) Visible(xmin, xmax storage.XID) bool {
	if !t.createdVisible(xmin) {
		return false
	}
	if xmax == storage.InvalidXID {
		return true
	}
	// Deleted by self?
	if xmax == t.xid {
		return false
	}
	// Deleted by a transaction committed at or before our snapshot?
	st := t.m.status.get(xmax)
	if st >= firstSeq && st <= t.snapSeq {
		return false
	}
	return true
}

func (t *Txn) createdVisible(xmin storage.XID) bool {
	if xmin == t.xid {
		return true
	}
	st := t.m.status.get(xmin)
	return st >= firstSeq && st <= t.snapSeq
}

// CommittedAfterSnapshot reports whether xid committed after this
// transaction's snapshot — the signature of a write-write race that
// first-committer-wins resolves by aborting the later transaction.
func (t *Txn) CommittedAfterSnapshot(xid storage.XID) bool {
	st := t.m.status.get(xid)
	return st >= firstSeq && st > t.snapSeq
}

// RecordInsert registers a version this transaction inserted.
func (t *Txn) RecordInsert(h storage.Heap, tid storage.TID, l, il label.Label) {
	t.writes = append(t.writes, writeRec{heap: h, tid: tid, label: l, ilabel: il, kind: wInsert})
}

// Delete stamps the version at tid as deleted by this transaction,
// returning ErrSerialization on a write-write conflict.
func (t *Txn) Delete(h storage.Heap, tid storage.TID, l, il label.Label) error {
	if t.done {
		return ErrTxnDone
	}
	if t.xid == storage.InvalidXID {
		return fmt.Errorf("txn: write in read-only transaction")
	}
	if !h.SetXmax(tid, t.xid) {
		return ErrSerialization
	}
	// First-committer-wins also requires that the version we are
	// deleting has not been superseded by a commit after our snapshot;
	// the engine only hands us TIDs it could see under this snapshot,
	// and SetXmax rejects live stamps from other transactions, so the
	// remaining hazard is a *committed* deleter whose stamp we would
	// have observed as a conflicting live xmax anyway. (Aborted stamps
	// are cleared during rollback, so they never linger.)
	t.writes = append(t.writes, writeRec{heap: h, tid: tid, label: l, ilabel: il, kind: wDelete})
	return nil
}

// Defer queues fn to run at commit time, before the commit becomes
// visible. Used for deferred triggers and constraint checks.
func (t *Txn) Defer(fn func() error) { t.deferred = append(t.deferred, fn) }

// CheckCommitLabel enforces the commit-label rules. For secrecy, the
// commit label must flow to every written tuple's label (§5.1). For
// integrity — the dual — every written tuple's integrity label must
// flow to the commit integrity label: the transaction's outcome may
// not vouch for data at integrity the process no longer holds.
func (t *Txn) CheckCommitLabel(hier *label.Hierarchy, commitLabel, commitILabel label.Label) error {
	flows := func(a, b label.Label) bool {
		if hier != nil {
			return hier.Flows(a, b)
		}
		return a.SubsetOf(b)
	}
	for _, w := range t.writes {
		if !flows(commitLabel, w.label) {
			return fmt.Errorf("%w: commit label %v vs tuple label %v", ErrCommitLabel, commitLabel, w.label)
		}
		if !flows(w.ilabel, commitILabel) {
			return fmt.Errorf("%w: tuple integrity %v vs commit integrity %v", ErrCommitLabel, w.ilabel, commitILabel)
		}
	}
	return nil
}

// Commit runs deferred work, enforces the commit-label rules, and
// makes the transaction's effects visible. On any failure the
// transaction is rolled back and the error returned.
func (t *Txn) Commit(hier *label.Hierarchy, commitLabel, commitILabel label.Label) error {
	if t.done {
		return ErrTxnDone
	}
	for _, fn := range t.deferred {
		if err := fn(); err != nil {
			t.Abort()
			return err
		}
	}
	if err := t.CheckCommitLabel(hier, commitLabel, commitILabel); err != nil {
		t.Abort()
		return err
	}
	if t.xid == storage.InvalidXID {
		// Read-only transaction: nothing to make visible or durable,
		// and no commit sequence to burn.
		t.finish()
		return nil
	}
	t.m.commitMu.Lock()
	seq := t.m.seq.Add(1)
	var commitLSN wal.LSN
	if t.m.wal != nil && t.walLogged {
		// The commit record takes the transaction's buffered records to
		// the log file with it, in one write.
		lsn, err := t.m.wal.Append(&wal.Record{Type: wal.RecCommit, XID: t.xid, Seq: seq})
		if err != nil {
			// Nothing is visible yet; abort rather than commit a
			// transaction whose outcome cannot be made durable.
			t.m.commitMu.Unlock()
			t.Abort()
			return err
		}
		commitLSN = lsn
		t.commitLSN = lsn
	}
	t.m.status.set(t.xid, seq)
	t.m.commitMu.Unlock()
	t.finish()
	if t.m.wal != nil && t.walLogged {
		// Durability wait per SyncMode (group commit batches this): the
		// log buffer is written out first, then fsynced as the mode says.
		// The commit is already visible to concurrent transactions;
		// any of them that commits afterwards appends behind us, so an
		// fsync covering it covers us too — no read-then-lose anomaly.
		if err := t.m.wal.WaitDurable(commitLSN); err != nil {
			return fmt.Errorf("txn: commit %d applied but not durable: %w", t.xid, err)
		}
	}
	return nil
}

// Abort rolls back the transaction: insertions become permanently
// invisible (their xmin is marked aborted) and delete stamps are
// cleared.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	if t.xid == storage.InvalidXID {
		t.finish()
		return
	}
	t.m.status.set(t.xid, statusAborted)
	for _, w := range t.writes {
		if w.kind == wDelete {
			w.heap.ClearXmax(w.tid, t.xid)
		}
	}
	if t.m.wal != nil && t.walLogged {
		// Best effort: replay treats a transaction with no commit
		// record as aborted anyway, so a lost abort record is harmless.
		_, _ = t.m.wal.Append(&wal.Record{Type: wal.RecAbort, XID: t.xid})
	}
	t.finish()
}

// finish ends t. Its write set, cleared, goes to the next transaction
// that may write (register); t keeps no reference to it, so nothing
// done with a finished Txn reaches the records of a later one.
func (t *Txn) finish() {
	t.done = true
	t.deferred = nil
	w := t.writes
	t.writes = nil
	keep := cap(w) > 0 && cap(w) <= maxSpareWrites
	if keep {
		clear(w)
	}
	t.m.activeMu.Lock()
	delete(t.m.active, t.akey)
	if keep {
		t.m.spare = append(t.m.spare, w[:0])
	}
	t.m.activeMu.Unlock()
}

// Committed reports whether xid committed, and its sequence.
func (m *Manager) Committed(xid storage.XID) (uint64, bool) {
	st := m.status.get(xid)
	if st >= firstSeq {
		return st, true
	}
	return 0, false
}

// Aborted reports whether xid aborted.
func (m *Manager) Aborted(xid storage.XID) bool {
	return m.status.get(xid) == statusAborted
}

// OldestSnapshot returns the lowest snapshot sequence among active
// transactions, or the current sequence if none are active. Vacuum may
// reclaim versions deleted at or before this horizon.
func (m *Manager) OldestSnapshot() uint64 {
	m.activeMu.Lock()
	defer m.activeMu.Unlock()
	oldest := m.seq.Load()
	for _, snap := range m.active {
		if snap < oldest {
			oldest = snap
		}
	}
	return oldest
}

// ---------------------------------------------------------------------------
// Durability plumbing

// AttachWAL wires the write-ahead log into the commit/abort path.
// Call before the manager hands out transactions that must be durable.
func (m *Manager) AttachWAL(w *wal.Writer) { m.wal = w }

// CommitLSN returns the log position of this transaction's commit
// record (0 for read-only or never-logged transactions, or before
// Commit). The smallest replication barrier proving the commit applied
// is any position strictly past it — see Session.CommitToken.
func (t *Txn) CommitLSN() wal.LSN { return t.commitLSN }

// MarkLogged records that the engine has logged a WAL record for this
// transaction, returning true on the first call (the engine uses that
// to emit the lazy BEGIN record).
func (t *Txn) MarkLogged() bool {
	first := !t.walLogged
	t.walLogged = true
	return first
}

// RestoreCommitted marks xid committed with the given sequence during
// recovery, advancing the commit-sequence counter past it. Idempotent.
func (m *Manager) RestoreCommitted(xid storage.XID, seq uint64) {
	if seq < firstSeq {
		seq = firstSeq
	}
	m.status.set(xid, seq)
	for {
		cur := m.seq.Load()
		if seq <= cur || m.seq.CompareAndSwap(cur, seq) {
			break
		}
	}
	m.BumpXID(xid)
}

// RestoreAborted marks xid aborted during recovery. Recovery also uses
// this for transactions that were in flight at the crash: no commit
// record means no commit.
func (m *Manager) RestoreAborted(xid storage.XID) {
	m.status.set(xid, statusAborted)
	m.BumpXID(xid)
}

// BumpXID ensures future transactions get XIDs above x.
func (m *Manager) BumpXID(x storage.XID) {
	for {
		cur := m.nextXID.Load()
		if uint64(x) <= cur || m.nextXID.CompareAndSwap(cur, uint64(x)) {
			return
		}
	}
}

// CommitSeq returns the last assigned commit sequence (checkpoint
// capture stores it so recovery restarts the counter correctly).
func (m *Manager) CommitSeq() uint64 { return m.seq.Load() }

// NextXID returns the highest XID assigned so far.
func (m *Manager) NextXID() uint64 { return m.nextXID.Load() }

// RestoreCounters primes the XID and commit-sequence counters from a
// checkpoint snapshot (both only ever move forward).
func (m *Manager) RestoreCounters(nextXID, seq uint64) {
	m.BumpXID(storage.XID(nextXID))
	for {
		cur := m.seq.Load()
		if seq <= cur || m.seq.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// DeadVersion returns a predicate for Heap.Vacuum: Dead at the oldest
// active snapshot. The vacuum task is exempt from label confinement
// (paper §7.1): reclaiming storage must see everything.
func (m *Manager) DeadVersion() func(tv *storage.TupleVersion) bool {
	horizon := m.OldestSnapshot()
	return func(tv *storage.TupleVersion) bool { return m.Dead(tv, horizon) }
}

// Dead reports whether no snapshot at or after horizon, an
// OldestSnapshot reading, sees tv: (a) its creator aborted, or (b) it
// was deleted by a transaction that committed at or before horizon.
func (m *Manager) Dead(tv *storage.TupleVersion, horizon uint64) bool {
	if m.Aborted(tv.Xmin) {
		return true
	}
	if tv.Xmax == storage.InvalidXID {
		return false
	}
	seq, ok := m.Committed(tv.Xmax)
	return ok && seq <= horizon
}
