// Package storage implements the MVCC tuple heaps underneath the IFDB
// engine.
//
// Like PostgreSQL (from which the paper's prototype was built), the
// heap keeps every version of every tuple, stamped with the creating
// transaction (xmin) and, once deleted or superseded, the deleting
// transaction (xmax). Readers pick the versions visible to their
// snapshot; IFDB additionally hides versions whose label is not covered
// by the reading process's label — the paper implements both filters at
// this same layer (§7.1), and so do we: the executor above never sees a
// tuple the process is not entitled to.
//
// Two backends implement the Heap interface: MemHeap (this file's
// sibling memheap.go) and pager.PagedHeap (slotted 8 KiB pages behind
// an LRU buffer pool) for the on-disk experiments of Fig. 6. The
// engine cannot tell them apart: the file lifecycle (Flush,
// WritePagesTo, Close) is part of Heap, and a no-op on MemHeap.
package storage

import (
	"fmt"
	"io"

	"ifdb/internal/label"
	"ifdb/internal/types"
)

// XID identifies a transaction. XID 0 means "no transaction"
// (e.g. an unset xmax). XIDs are assigned monotonically by the txn
// manager.
type XID uint64

// InvalidXID is the zero XID.
const InvalidXID XID = 0

// TID locates a tuple version within a heap. For MemHeap it is a dense
// index; for the paged heap it packs (page, slot). TIDs are stable for
// the life of the version.
type TID uint64

// InvalidTID is a sentinel for "no tuple".
const InvalidTID TID = ^TID(0)

// TupleVersion is one MVCC version of a tuple.
type TupleVersion struct {
	Row    []types.Value // column values (no system columns)
	Label  label.Label   // immutable secrecy label (_label)
	ILabel label.Label   // immutable integrity label (_ilabel, §3.1)
	Xmin   XID           // creating transaction
	Xmax   XID           // deleting/superseding transaction, 0 if live
}

// Visibility decides which tuple versions a scan may observe. The
// transaction layer supplies the MVCC predicate; the engine supplies
// the label predicate (Query by Label, paper §4.2). Keeping both here,
// below the executor, mirrors the paper's design: bugs in query
// parsing, planning, or execution cannot bypass the information flow
// rules. A heap that stores tuples encoded consults it on the tuple
// header alone (§8.3 keeps the label there) and decodes the row only
// of a version that passes.
type Visibility struct {
	// See reports whether a version created by xmin and
	// deleted/superseded by xmax (0 if live) is visible to the
	// transaction's snapshot. Nil sees every version (vacuum, recovery,
	// the dump tool).
	See func(xmin, xmax XID) bool

	// LabelOK reports whether the reading process may observe a version
	// with secrecy label l and integrity label il (Label Confinement
	// and its integrity dual). It must be a pure function of its
	// arguments for the life of the scan: heaps remember its verdicts.
	// Nil means the scan is exempt from label confinement (IFC off,
	// vacuum, constraint-internal checks vouched for by the Foreign Key
	// Rule).
	LabelOK func(l, il label.Label) bool

	// Scan carries one scan's state across its ScanFrom calls. Nil is
	// allowed: the heap then keeps state for the one call only.
	Scan *ScanState
}

// ScanState is what one scan accumulates: the counts its caller
// reports, and what a heap of encoded tuples keeps between batches so
// that it decodes each distinct label once and allocates rows in
// blocks.
type ScanState struct {
	Visited int64 // versions examined
	Denied  int64 // of those, visible to the snapshot but refused by LabelOK

	// Rows is the arena decoded rows are carved from.
	Rows types.Arena

	// labels memoizes, by stored encoding, the decoded form of each
	// distinct (label, ilabel) pair the scan has met and LabelOK's
	// verdict on it; last is the most recent hit, since tuples written
	// by one process arrive in runs of one label.
	labels map[string]*storedLabels
	last   *storedLabels
}

type storedLabels struct {
	enc   string
	l, il label.Label
	ok    bool
}

// Sees applies both predicates to a version, MVCC first, and counts
// the outcome in v.Scan.
func (v Visibility) Sees(tv *TupleVersion) bool {
	if v.Scan != nil {
		v.Scan.Visited++
	}
	if v.See != nil && !v.See(tv.Xmin, tv.Xmax) {
		return false
	}
	if v.LabelOK != nil && !v.LabelOK(tv.Label, tv.ILabel) {
		if v.Scan != nil {
			v.Scan.Denied++
		}
		return false
	}
	return true
}

// SeesStored is Sees for a version still in its stored form: xmin,
// xmax, and enc, which starts with the encoded label then ilabel
// (label.AppendEncode, the paper's §8.3 header layout). It returns the
// decoded labels, the bytes of enc they occupy, and the verdict; the
// labels are shared between all versions of the scan that carry them
// and must not be modified. v.Scan must be set.
func (v Visibility) SeesStored(xmin, xmax XID, enc []byte) (l, il label.Label, n int, ok bool, err error) {
	st := v.Scan
	st.Visited++
	if n = storedLabelsLen(enc); n < 0 {
		return nil, nil, 0, false, fmt.Errorf("storage: truncated tuple labels (%d bytes)", len(enc))
	}
	if v.See != nil && !v.See(xmin, xmax) {
		return nil, nil, n, false, nil
	}
	e := st.last
	if e == nil || e.enc != string(enc[:n]) {
		if e = st.labels[string(enc[:n])]; e == nil {
			e = &storedLabels{enc: string(enc[:n])}
			var used int
			if e.l, used, err = label.Decode(enc); err == nil {
				e.il, _, err = label.Decode(enc[used:])
			}
			if err != nil {
				return nil, nil, 0, false, err
			}
			e.ok = v.LabelOK == nil || v.LabelOK(e.l, e.il)
			if st.labels == nil {
				st.labels = make(map[string]*storedLabels)
			}
			st.labels[e.enc] = e
		}
		st.last = e
	}
	if !e.ok {
		st.Denied++
	}
	return e.l, e.il, n, e.ok, nil
}

// storedLabelsLen returns how many bytes of enc the encoded label and
// ilabel occupy, or -1 if enc is too short to hold them.
func storedLabelsLen(enc []byte) int {
	if len(enc) == 0 {
		return -1
	}
	n := label.EncodedSize(int(enc[0]))
	if n >= len(enc) {
		return -1
	}
	if n += label.EncodedSize(int(enc[n])); n > len(enc) {
		return -1
	}
	return n
}

// Heap is an MVCC tuple store.
//
// Mutations take the acting XID so the heap can stamp versions; the
// heap itself knows nothing about commit/abort — the transaction layer
// resolves XIDs to outcomes through the Visibility predicate and
// un-stamps xmax on rollback.
type Heap interface {
	// Insert appends a new version and returns its TID.
	Insert(tv TupleVersion) (TID, error)

	// Get fetches the version at tid. ok is false if tid was never
	// allocated or the version has been vacuumed away.
	Get(tid TID) (TupleVersion, bool)

	// SetXmax stamps the version at tid as deleted by xid. It fails
	// (returns false) if the version already has a different live
	// xmax — the caller treats that as a write-write conflict.
	SetXmax(tid TID, xid XID) bool

	// ClearXmax removes an xmax stamp if it equals xid (rollback of a
	// delete/update by an aborted transaction).
	ClearXmax(tid TID, xid XID)

	// Scan visits every version, in TID order, until fn returns false.
	// The *TupleVersion passed to fn aliases heap memory and must not
	// be retained or modified (its Row and labels may be kept, and must
	// not be modified). An error means part of the heap could not be
	// read and the visit is incomplete.
	Scan(fn func(tid TID, tv *TupleVersion) bool) error

	// ScanFrom is the scan the pull-based executor rides: it filters
	// by vis below the executor, pauses after a bounded number of
	// versions and resumes later, so an iterator can hold a position
	// across Next() calls without pinning the heap's lock for the whole
	// statement. It examines live versions with TID >= start in TID
	// order, calls fn for those vis admits, and returns after roughly
	// max versions examined (implementations may overshoot to finish a
	// physical unit such as a page). It returns the TID to resume from
	// and whether further versions may remain; more=false means the
	// scan reached the end of the heap as of this batch. Stopping early
	// via fn returning false still yields a valid resume position. An
	// error ends the scan: versions already passed to fn are good, the
	// rest were not read. The aliasing rules of Scan apply.
	ScanFrom(start TID, max int, vis Visibility, fn func(tid TID, tv *TupleVersion) bool) (next TID, more bool, err error)

	// Vacuum removes versions that are invisible to every present and
	// future snapshot: xmax committed with commit sequence at or below
	// horizon, as judged by the dead predicate. Returns the number of
	// versions reclaimed. The vacuum task is exempt from information
	// flow rules (paper §7.1).
	Vacuum(dead func(tv *TupleVersion) bool) int

	// Len returns the number of live (non-vacuumed) versions stored.
	Len() int

	// ApproxBytes estimates resident bytes, used by the space-overhead
	// experiment (E7).
	ApproxBytes() int64

	// RestoreAt places a version at exactly tid: crash recovery and a
	// replica re-apply logged inserts by TID, idempotently, instead of
	// through Insert. Slots below tid that are still unallocated become
	// gaps, and a gap stays fillable by a later RestoreAt, so records
	// may be restored in any TID order (a replica applies transactions
	// in commit order; two writers' inserts reach the log in either
	// order). An occupied slot — the effect already reached a flushed
	// page — or a vacuumed one is left alone and reports placed=false.
	RestoreAt(tid TID, tv TupleVersion) (placed bool, err error)

	// ForceXmax unconditionally stamps tid's xmax (replay applies only
	// committed deleters, which always win over any stale stamp a
	// flushed page may carry; InvalidXID clears one).
	ForceXmax(tid TID, xid XID)

	// Flush makes every change so far durable in the heap's file
	// (checkpoints call it for every table).
	Flush() error

	// WritePagesTo streams the heap file's pages to w, for a
	// basebackup.
	WritePagesTo(w io.Writer) error

	// Close releases the heap's file, writing dirty pages back unless
	// discard is set (the table was dropped and its file is deleted).
	Close(discard bool) error
}
