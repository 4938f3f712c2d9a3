package storage

import (
	"io"
	"sync"

	"ifdb/internal/types"
)

// MemHeap is the in-memory Heap backend: a growable slice of versions
// guarded by an RWMutex. Scans take the read lock; mutations take the
// write lock. Deleted (vacuumed) versions leave a tombstone so TIDs
// stay stable.
type MemHeap struct {
	mu       sync.RWMutex
	versions []*TupleVersion // nil entries are vacuumed tombstones or gaps
	gaps     map[TID]bool    // nil entries RestoreAt skipped over: still fillable
	live     int
	bytes    int64
}

// NewMemHeap returns an empty in-memory heap.
func NewMemHeap() *MemHeap { return &MemHeap{} }

var _ Heap = (*MemHeap)(nil)

func approxVersionBytes(tv *TupleVersion) int64 {
	// Mirror the paged encoding so the space experiment (E7) reports
	// comparable numbers for both backends: 16 bytes of MVCC header,
	// 1 length byte + 4 bytes per tag for each of the two labels, plus
	// the row payload.
	n := int64(16) + 1 + 4*int64(len(tv.Label)) + 1 + 4*int64(len(tv.ILabel))
	for _, v := range tv.Row {
		n += int64(types.EncodedSize(v))
	}
	return n
}

// Insert appends a new version.
func (h *MemHeap) Insert(tv TupleVersion) (TID, error) {
	cp := tv // copy header; row/label slices are owned by caller convention
	h.mu.Lock()
	defer h.mu.Unlock()
	h.versions = append(h.versions, &cp)
	h.live++
	h.bytes += approxVersionBytes(&cp)
	return TID(len(h.versions) - 1), nil
}

// Get fetches the version at tid.
func (h *MemHeap) Get(tid TID) (TupleVersion, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if int(tid) >= len(h.versions) || h.versions[tid] == nil {
		return TupleVersion{}, false
	}
	return *h.versions[tid], true
}

// SetXmax stamps the version as deleted by xid, failing on a
// write-write conflict (someone else's live stamp already present).
func (h *MemHeap) SetXmax(tid TID, xid XID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if int(tid) >= len(h.versions) || h.versions[tid] == nil {
		return false
	}
	tv := h.versions[tid]
	if tv.Xmax != InvalidXID && tv.Xmax != xid {
		return false
	}
	tv.Xmax = xid
	return true
}

// ClearXmax rolls back a delete stamp made by xid.
func (h *MemHeap) ClearXmax(tid TID, xid XID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if int(tid) >= len(h.versions) || h.versions[tid] == nil {
		return
	}
	if h.versions[tid].Xmax == xid {
		h.versions[tid].Xmax = InvalidXID
	}
}

// Scan visits all versions in TID order.
//
// The heap holds its read lock across the callback. Callbacks must not
// re-enter heap mutation methods (the executor buffers mutations and
// applies them after the scan, as real executors do).
func (h *MemHeap) Scan(fn func(tid TID, tv *TupleVersion) bool) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for i, tv := range h.versions {
		if tv == nil {
			continue
		}
		if !fn(TID(i), tv) {
			break
		}
	}
	return nil
}

// ScanFrom examines live versions with
// TID >= start in TID order, stopping after max of them. The read lock
// is released between batches, so a pull-based iterator can hold a
// scan position without pinning the heap; versions inserted between
// batches may or may not be visited, which is sound because a
// statement's MVCC snapshot cannot see them anyway.
func (h *MemHeap) ScanFrom(start TID, max int, vis Visibility, fn func(tid TID, tv *TupleVersion) bool) (next TID, more bool, err error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	i := int(start)
	visited := 0
	for ; i < len(h.versions); i++ {
		if visited >= max {
			return TID(i), true, nil
		}
		tv := h.versions[i]
		if tv == nil {
			continue
		}
		visited++
		if vis.Sees(tv) && !fn(TID(i), tv) {
			return TID(i + 1), true, nil
		}
	}
	return TID(i), false, nil
}

// RestoreAt places tv at exactly tid, growing the version slice as
// needed; the entries it grows over are gaps until restored.
func (h *MemHeap) RestoreAt(tid TID, tv TupleVersion) (bool, error) {
	cp := tv
	h.mu.Lock()
	defer h.mu.Unlock()
	for int(tid) >= len(h.versions) {
		if h.gaps == nil {
			h.gaps = make(map[TID]bool)
		}
		h.gaps[TID(len(h.versions))] = true
		h.versions = append(h.versions, nil)
	}
	if !h.gaps[tid] {
		return false, nil
	}
	delete(h.gaps, tid)
	h.versions[tid] = &cp
	h.live++
	h.bytes += approxVersionBytes(&cp)
	return true, nil
}

// ForceXmax stamps tid's xmax whatever it was.
func (h *MemHeap) ForceXmax(tid TID, xid XID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if int(tid) < len(h.versions) && h.versions[tid] != nil {
		h.versions[tid].Xmax = xid
	}
}

// Vacuum tombstones versions judged dead.
func (h *MemHeap) Vacuum(dead func(tv *TupleVersion) bool) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for i, tv := range h.versions {
		if tv == nil {
			continue
		}
		if dead(tv) {
			h.bytes -= approxVersionBytes(tv)
			h.versions[i] = nil
			h.live--
			n++
		}
	}
	return n
}

// Len returns the number of resident versions.
func (h *MemHeap) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.live
}

// ApproxBytes estimates resident tuple bytes.
func (h *MemHeap) ApproxBytes() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.bytes
}

// A MemHeap has no file: Flush, WritePagesTo and Close do nothing.
func (h *MemHeap) Flush() error                   { return nil }
func (h *MemHeap) WritePagesTo(w io.Writer) error { return nil }
func (h *MemHeap) Close(discard bool) error       { return nil }
