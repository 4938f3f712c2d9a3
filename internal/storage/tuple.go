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
	// and its integrity dual), and returns the secrecy label the reader
	// sees on it: l less the tags a declassifying view's strip covers
	// (§4.3). It must be a pure function of its arguments for the life
	// of the scan — the engine builds it over the process labels the
	// scan opened with — because Scan remembers its verdicts: it is
	// called once per distinct (l, il) pair, not per version. Nil means
	// the scan is exempt from label confinement (IFC off, vacuum,
	// constraint-internal checks vouched for by the Foreign Key Rule),
	// and the reader sees l.
	LabelOK func(l, il label.Label) (seen label.Label, ok bool)

	// Scan carries one scan's state across its ScanFrom calls. Nil is
	// allowed: the heap then keeps state for the one call only.
	Scan *ScanState
}

// maxVerdicts bounds a scan's verdict memo. Past it, a pair the memo
// does not hold is judged and not remembered, so a scan over a table of
// many distinct labels keeps bounded state.
const maxVerdicts = 256

// ScanState is what one scan accumulates: the counts its caller
// reports, the label verdicts both Sees and SeesStored consult, and the
// arena a heap of encoded tuples carves decoded rows from — or, when
// its caller asks for them, the blocks it copies stored rows into. It
// must not be copied once used.
type ScanState struct {
	Visited int64 // versions examined
	Denied  int64 // of those, visible to the snapshot but refused by LabelOK
	Stored  int64 // rows the caller sent on as their stored bytes (Encoded)

	// Rows is the arena decoded rows are carved from.
	Rows types.Arena

	// WantEncoded asks a heap that stores rows encoded to hand over each
	// version it admits as its stored row bytes, in Encoded, instead of
	// decoding them: the version passed to the scan's callback then has
	// no Row. The heap admits it exactly as it would otherwise — MVCC,
	// Label Confinement and its page checksum first — and checks every
	// value header, failing where a decode fails. A heap of decoded rows
	// ignores it.
	WantEncoded bool
	// Encoded is the row of the version admitted last, when the heap
	// honoured WantEncoded: types.EncodeRow's form, with no label and no
	// stamps. It is a copy in a block of the scan's own that is never
	// written again, so it stays good for as long as a holder keeps it.
	Encoded []byte
	block   []byte // the free rest of the block Encoded was copied into

	// The verdict memo: LabelOK's judgment per distinct (label, ilabel)
	// pair. last is the verdict consulted most recently, checked first,
	// by content, since tuples written by one process arrive in runs of
	// one label. first is the scan's first pair, kept here so that a
	// scan that meets one label allocates nothing; from the second
	// distinct pair on, verdicts holds every remembered pair (first
	// included) keyed by its stored encoding (label.AppendEncode of each,
	// §8.3), up to maxVerdicts.
	last     *verdict
	first    verdict
	verdicts map[string]*verdict
}

// encodedBlock is the size of a block stored rows are copied into:
// some hundred rows of a narrow table. A scan's first block is a
// sixteenth of it, so a scan of a few rows pays for a few rows.
const encodedBlock = 16 << 10

// KeepEncoded copies row, a version's stored row bytes that the heap
// is about to overwrite, into the scan's current block and sets
// Encoded to the copy. A row the block cannot hold starts a new block;
// the old one is never written again.
func (st *ScanState) KeepEncoded(row []byte) {
	if len(st.block) < len(row) {
		size := encodedBlock
		if st.Encoded == nil {
			size /= 16
		}
		st.block = make([]byte, max(size, len(row)))
	}
	n := copy(st.block, row)
	st.Encoded = st.block[:n:n]
	st.block = st.block[n:]
}

// verdict is LabelOK's judgment of one (label, ilabel) pair: the pair,
// in stored form (empty if it has none, or for the first pair Sees met
// until the map is built) and decoded, the label the reader sees, and
// whether it may see the version at all.
type verdict struct {
	enc   string
	l, il label.Label
	seen  label.Label
	ok    bool
}

// Label returns the secrecy label the scan's reader sees on tv, the
// version the heap admitted last: tv's label less the tags LabelOK
// stripped. It is shared between all versions of the scan that carry
// the same labels and must not be modified.
func (st *ScanState) Label(tv *TupleVersion) label.Label {
	if st.last == nil {
		return tv.Label // no LabelOK: nothing is stripped
	}
	return st.last.seen
}

// appendPair appends the stored encoding of the pair (l, il).
func appendPair(buf []byte, l, il label.Label) ([]byte, error) {
	buf, err := label.AppendEncode(buf, l)
	if err != nil {
		return nil, err
	}
	return label.AppendEncode(buf, il)
}

// judge is the memo's miss path, and the one place LabelOK is called:
// it judges the pair (l, il), whose stored encoding is enc, and makes
// the verdict the last one. The first pair of the scan goes into
// st.first; the second builds the map, indexing the first under its
// encoding (Sees leaves enc nil for the first pair, which is encoded
// only now); a later one is remembered in the map while it holds fewer
// than maxVerdicts pairs. A pair with no stored form (nil enc) is
// never remembered.
func (st *ScanState) judge(v Visibility, enc []byte, l, il label.Label) *verdict {
	e := &st.first
	if st.last != nil {
		e = new(verdict)
		if st.verdicts == nil {
			st.verdicts = make(map[string]*verdict)
			f := &st.first
			if f.enc == "" {
				if b, err := appendPair(nil, f.l, f.il); err == nil {
					f.enc = string(b)
				}
			}
			if f.enc != "" {
				st.verdicts[f.enc] = f
			}
		}
	}
	*e = verdict{l: l, il: il, seen: l, ok: true}
	if v.LabelOK != nil {
		e.seen, e.ok = v.LabelOK(l, il)
	}
	if enc != nil {
		e.enc = string(enc)
		if e != &st.first && len(st.verdicts) < maxVerdicts {
			st.verdicts[e.enc] = e
		}
	}
	st.last = e
	return e
}

// Sees applies both predicates to a version, MVCC first, and counts
// the outcome in v.Scan, whose memo it consults: the last verdict,
// compared by content, then the map, by the pair's stored encoding,
// written into a buffer on the stack, so a hit allocates nothing.
// v.Scan must be set when v.LabelOK is.
func (v Visibility) Sees(tv *TupleVersion) bool {
	st := v.Scan
	if st != nil {
		st.Visited++
	}
	if v.See != nil && !v.See(tv.Xmin, tv.Xmax) {
		return false
	}
	if v.LabelOK == nil {
		return true
	}
	e := st.last
	if e == nil {
		e = st.judge(v, nil, tv.Label, tv.ILabel)
	} else if !e.l.Equal(tv.Label) || !e.il.Equal(tv.ILabel) {
		var buf [64]byte
		key, err := appendPair(buf[:0], tv.Label, tv.ILabel)
		if err != nil {
			key = nil // not storable, so not remembered
		}
		if e = st.verdicts[string(key)]; e == nil {
			e = st.judge(v, key, tv.Label, tv.ILabel)
		}
		st.last = e
	}
	if !e.ok {
		st.Denied++
	}
	return e.ok
}

// SeesStored is Sees for a version still in its stored form: xmin,
// xmax, and enc, which starts with the encoded label then ilabel
// (label.AppendEncode, the paper's §8.3 header layout). It returns the
// decoded labels, the bytes of enc they occupy, and the verdict; a
// pair is decoded only when the memo does not hold it, and the labels
// are shared between all versions of the scan that carry them and
// must not be modified. v.Scan must be set.
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
		if e = st.verdicts[string(enc[:n])]; e == nil {
			var used int
			if l, used, err = label.Decode(enc); err == nil {
				il, _, err = label.Decode(enc[used:])
			}
			if err != nil {
				return nil, nil, 0, false, err
			}
			e = st.judge(v, enc[:n], l, il)
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
