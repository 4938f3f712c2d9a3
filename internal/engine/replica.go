// Replica mode: continuous application of a primary's WAL stream.
//
// A replica engine is a normal durable engine whose state changes
// arrive exclusively through ApplyReplicated: shipped WAL records are
// buffered per transaction and applied at their commit record through
// applyRecord, the function crash recovery replays with. Applying at
// commit keeps the replica's visible state always
// transaction-consistent — concurrent read sessions, which take
// ordinary MVCC snapshots, never observe a half-applied transaction.
// It also applies inserts out of TID order (a transaction that took
// slot 0 may commit after one that took slot 1); that is safe because
// a slot RestoreAt skips over stays a gap it can fill later
// (storage.Heap.RestoreAt).
//
// Durability: every shipped batch is appended verbatim (raw frames,
// primary CRCs intact) to the replica's own WAL, followed by a
// RecReplLSN marker carrying the *barrier* — the primary LSN below
// which every transaction is resolved. A restarted replica recovers
// its state from its own log, reads the last barrier, and resumes the
// stream there; records between the barrier and the connection loss
// are re-shipped and re-applied idempotently, exactly like recovery
// replay.
//
// Read-only enforcement: sessions on a replica run their statements in
// XID-less read-only transactions (a local XID could collide with a
// primary XID arriving later in the stream) and every write, DDL, or
// authority mutation is rejected with ErrReadOnlyReplica. Label checks
// run unchanged — the paper's Query by Label model confines replica
// reads exactly as it does primary reads, over the replicated
// authority state.
package engine

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	"ifdb/internal/storage"
	"ifdb/internal/wal"
)

// ErrReadOnlyReplica is returned for any mutating operation on a
// replica. Writes must go to the primary.
var ErrReadOnlyReplica = errors.New("engine: read-only replica: writes must go to the primary")

// ErrNotReplica is returned by Promote on an engine that is not (or is
// no longer) a replica.
var ErrNotReplica = errors.New("engine: not a replica")

// replTxn buffers one in-flight replicated transaction.
type replTxn struct {
	firstLSN wal.LSN // LSN of its earliest record (resume barrier)
	recs     []wal.Record
}

// IsReplica reports whether the engine is in replica mode (false again
// after Promote).
func (e *Engine) IsReplica() bool { return e.replica.Load() }

// Epoch returns the WAL promotion generation (0 without a DataDir).
// Replication fencing compares it: LSN spaces and byte streams are
// only meaningful within one epoch chain.
func (e *Engine) Epoch() uint64 {
	if e.wal == nil {
		return 0
	}
	return e.wal.Epoch()
}

// replaying reports whether DDL is being re-executed from the log —
// during crash recovery, or continuously on a replica — in which case
// the executors tolerate already-present effects and skip checks
// vetted at original execution time, and nothing is re-logged (the
// replica appends the shipped records verbatim instead).
func (e *Engine) replaying() bool { return e.recovering || e.replica.Load() }

// Promote turns a replica engine into a writable primary. The caller
// must have stopped the replication applier first (repl.Follower does;
// its goroutine is the only writer of replPending). Promotion:
//
//  1. resolves replicated transactions still in flight at the cut —
//     their writes were buffered, never applied, and the old primary
//     is gone, so they abort (logged, like recovery orphans, so a
//     future follower streaming this log region can resolve them);
//  2. bumps the WAL epoch, durably, fencing the old primary: its
//     epoch-stale streams are refused everywhere from here on;
//  3. opens the engine for writes.
//
// The order matters: nothing may commit under the new epoch until the
// epoch itself is on stable storage.
func (e *Engine) Promote() error {
	if !e.IsReplica() {
		return ErrNotReplica
	}
	for xid := range e.replPending {
		e.txns.RestoreAborted(xid)
		if _, err := e.wal.Append(&wal.Record{Type: wal.RecAbort, XID: xid}); err != nil {
			return err
		}
	}
	e.replPending = nil
	if _, err := e.wal.BumpEpoch(); err != nil {
		return err
	}
	if err := e.wal.Sync(); err != nil {
		return err
	}
	e.replica.Store(false)
	return nil
}

// ReplAppliedLSN returns the primary LSN this replica has applied
// through, with every earlier transaction resolved. Streaming resumes
// here after a restart.
func (e *Engine) ReplAppliedLSN() wal.LSN { return wal.LSN(e.replApplied.Load()) }

// ResetReplApply drops buffered in-flight transactions. The follower
// calls it before (re)connecting: the stream resumes at the barrier,
// so every buffered record will be shipped again.
func (e *Engine) ResetReplApply() { e.replPending = nil }

// SetReplResumeLSN durably records the stream position a basebackup
// left this replica at (its recovered state corresponds to primary
// LSN lsn, with nothing in flight).
func (e *Engine) SetReplResumeLSN(lsn wal.LSN) error {
	if !e.IsReplica() {
		return fmt.Errorf("engine: SetReplResumeLSN on a non-replica")
	}
	e.replApplied.Store(uint64(lsn))
	l, err := e.wal.Append(&wal.Record{Type: wal.RecReplLSN, Seq: uint64(lsn)})
	if err != nil {
		return err
	}
	return e.wal.WaitDurable(l)
}

// ApplyReplicated applies one shipped batch: recs are the decoded
// records (carrying primary LSNs), raw the verbatim frame bytes they
// were decoded from, upto the primary LSN just past the batch. Called
// only from the single applier goroutine.
func (e *Engine) ApplyReplicated(recs []wal.Record, raw []byte, upto wal.LSN) error {
	if !e.IsReplica() {
		return fmt.Errorf("engine: ApplyReplicated on a non-replica")
	}
	if e.replPending == nil {
		e.replPending = make(map[storage.XID]*replTxn)
	}
	for i := range recs {
		if err := e.applyReplRecord(&recs[i]); err != nil {
			return fmt.Errorf("engine: apply replicated record at primary lsn %d: %w", recs[i].LSN, err)
		}
	}

	// Log the batch verbatim, then the new barrier, then make both
	// durable per the sync mode. Apply-first/log-second, as on the
	// primary: a crash between apply and append just re-ships the
	// batch, and replay is idempotent.
	if _, err := e.wal.AppendRaw(raw); err != nil {
		return err
	}
	barrier := upto
	for _, p := range e.replPending {
		if p.firstLSN < barrier {
			barrier = p.firstLSN
		}
	}
	if barrier > e.ReplAppliedLSN() {
		e.replApplied.Store(uint64(barrier))
		lsn, err := e.wal.Append(&wal.Record{Type: wal.RecReplLSN, Seq: uint64(barrier)})
		if err != nil {
			return err
		}
		if err := e.wal.WaitDurable(lsn); err != nil {
			return err
		}
	}
	return nil
}

// applyReplRecord buffers a transaction's records until its outcome
// and hands everything else to applyRecord.
func (e *Engine) applyReplRecord(r *wal.Record) error {
	switch r.Type {
	case wal.RecBegin, wal.RecInsert, wal.RecSetXmax:
		p := e.replPending[r.XID]
		if p == nil {
			p = &replTxn{firstLSN: r.LSN}
			e.replPending[r.XID] = p
		}
		if r.Type != wal.RecBegin {
			p.recs = append(p.recs, *r)
		}
		return nil
	case wal.RecCommit:
		p := e.replPending[r.XID]
		delete(e.replPending, r.XID)
		if p != nil {
			// Heap effects first, commit status second: a concurrent
			// reader either misses the commit entirely or sees all of
			// it, never a status without its rows.
			for i := range p.recs {
				if err := e.applyRecord(&p.recs[i]); err != nil {
					return err
				}
			}
		}
	case wal.RecAbort:
		delete(e.replPending, r.XID)
	}
	return e.applyRecord(r)
}

// ---------------------------------------------------------------------------
// Basebackup (primary side)

// Basebackup ships a full state transfer for a follower too far behind
// the retained log (or starting fresh): it takes a checkpoint, then —
// still under the checkpoint lock, so no concurrent checkpoint
// rewrites the files — sends the snapshot and every disk table's
// pages (checksummed, consistent page images via the buffer pool).
// It returns the log base LSN the follower must stream from; onReady,
// if non-nil, receives that LSN while the checkpoint lock is still
// held, so the caller can pin its log subscription there before any
// later checkpoint could truncate past it.
func (e *Engine) Basebackup(send func(name string, data []byte) error, onReady func(start wal.LSN)) (wal.LSN, error) {
	if e.wal == nil {
		return 0, fmt.Errorf("engine: basebackup requires a DataDir")
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	if e.closed {
		return 0, fmt.Errorf("engine: basebackup on closed engine")
	}
	if err := e.checkpointLocked(); err != nil {
		return 0, err
	}
	if onReady != nil {
		onReady(e.wal.Base())
	}
	snap, err := os.ReadFile(e.snapPath())
	if err != nil {
		return 0, err
	}
	if err := send("checkpoint.snap", snap); err != nil {
		return 0, err
	}
	tables := e.cat.Tables()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	for _, t := range tables {
		if !t.OnDisk {
			continue
		}
		var buf bytes.Buffer
		if err := t.Heap.WritePagesTo(&buf); err != nil {
			return 0, fmt.Errorf("basebackup %s: %w", t.Name, err)
		}
		if err := send(strings.ToLower(t.Name)+".heap", buf.Bytes()); err != nil {
			return 0, err
		}
	}
	return e.wal.Base(), nil
}
