package pager

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"ifdb/internal/label"
	"ifdb/internal/storage"
	"ifdb/internal/types"
)

// PagedHeap is the on-disk storage.Heap backend.
//
// Tuple record layout:
//
//	xmin   uint64
//	xmax   uint64
//	label  1 count byte + 4 bytes per tag   (paper §8.3 layout)
//	row    uvarint column count + encoded values
//
// TIDs pack (page << 16 | slot).
type PagedHeap struct {
	mu   sync.RWMutex // serializes heap-level structure changes
	pool *BufferPool

	nPages   int
	lastPage PageID // insertion target
	live     int
	bytes    int64
}

var _ storage.Heap = (*PagedHeap)(nil)

// NewPagedHeap creates a heap over the given store with a buffer pool
// of poolPages pages. If the store already holds pages (a heap file
// reopened after restart), the heap resumes from them; call Recount
// to rebuild the live/bytes counters, which are not persisted.
func NewPagedHeap(store PageStore, poolPages int) *PagedHeap {
	h := &PagedHeap{pool: NewBufferPool(store, poolPages)}
	if sized, ok := store.(SizedStore); ok {
		if n, err := sized.NumPages(); err == nil && n > 0 {
			h.nPages = n
			h.lastPage = PageID(n - 1)
		}
	}
	return h
}

func packTID(p PageID, slot int) storage.TID {
	return storage.TID(uint64(p)<<16 | uint64(uint16(slot)))
}

func unpackTID(t storage.TID) (PageID, int) {
	return PageID(uint64(t) >> 16), int(uint64(t) & 0xFFFF)
}

func encodeRecord(tv storage.TupleVersion) ([]byte, error) {
	buf := make([]byte, 16, 64)
	binary.LittleEndian.PutUint64(buf[0:], uint64(tv.Xmin))
	binary.LittleEndian.PutUint64(buf[8:], uint64(tv.Xmax))
	var err error
	buf, err = label.AppendEncode(buf, tv.Label)
	if err != nil {
		return nil, err
	}
	buf, err = label.AppendEncode(buf, tv.ILabel)
	if err != nil {
		return nil, err
	}
	return types.EncodeRow(buf, tv.Row)
}

func decodeRecord(rec []byte) (storage.TupleVersion, error) {
	var tv storage.TupleVersion
	if len(rec) < 18 {
		return tv, fmt.Errorf("pager: truncated record (%d bytes)", len(rec))
	}
	tv.Xmin = storage.XID(binary.LittleEndian.Uint64(rec[0:]))
	tv.Xmax = storage.XID(binary.LittleEndian.Uint64(rec[8:]))
	off := 16
	l, n, err := label.Decode(rec[off:])
	if err != nil {
		return tv, err
	}
	tv.Label = l
	off += n
	il, n, err := label.Decode(rec[off:])
	if err != nil {
		return tv, err
	}
	tv.ILabel = il
	off += n
	row, _, err := types.DecodeRow(rec[off:])
	if err != nil {
		return tv, err
	}
	tv.Row = row
	return tv, nil
}

// Insert appends a new version.
func (h *PagedHeap) Insert(tv storage.TupleVersion) (storage.TID, error) {
	rec, err := encodeRecord(tv)
	if err != nil {
		return storage.InvalidTID, err
	}
	if len(rec) > PageSize-pageHeaderSize-slotSize {
		return storage.InvalidTID, fmt.Errorf("pager: tuple of %d bytes exceeds page capacity", len(rec))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.nPages == 0 {
		h.nPages = 1
		h.lastPage = 0
	}
	var tid storage.TID
	tryInsert := func(pid PageID) (bool, error) {
		var inserted bool
		err := h.pool.WithPageDirty(pid, func(p page) error {
			if p.freeSpace() < len(rec) {
				return nil
			}
			slot, err := p.insert(rec)
			if err != nil {
				return err
			}
			tid = packTID(pid, slot)
			inserted = true
			return nil
		})
		return inserted, err
	}
	ok, err := tryInsert(h.lastPage)
	if err != nil {
		return storage.InvalidTID, err
	}
	if !ok {
		h.lastPage = PageID(h.nPages)
		h.nPages++
		ok, err = tryInsert(h.lastPage)
		if err != nil {
			return storage.InvalidTID, err
		}
		if !ok {
			return storage.InvalidTID, fmt.Errorf("pager: fresh page rejected %d-byte tuple", len(rec))
		}
	}
	h.live++
	h.bytes += int64(len(rec))
	return tid, nil
}

// Get fetches the version at tid.
func (h *PagedHeap) Get(tid storage.TID) (storage.TupleVersion, bool) {
	pid, slot := unpackTID(tid)
	h.mu.RLock()
	defer h.mu.RUnlock()
	if int(pid) >= h.nPages {
		return storage.TupleVersion{}, false
	}
	var tv storage.TupleVersion
	found := false
	_ = h.pool.WithPage(pid, func(p page) error {
		rec := p.record(slot)
		if rec == nil {
			return nil
		}
		v, err := decodeRecord(rec)
		if err != nil {
			return err
		}
		tv, found = v, true
		return nil
	})
	return tv, found
}

// SetXmax stamps a delete, failing on conflict with another live stamp.
func (h *PagedHeap) SetXmax(tid storage.TID, xid storage.XID) bool {
	pid, slot := unpackTID(tid)
	h.mu.Lock()
	defer h.mu.Unlock()
	if int(pid) >= h.nPages {
		return false
	}
	ok := false
	_ = h.pool.WithPageDirty(pid, func(p page) error {
		rec := p.record(slot)
		if rec == nil {
			return nil
		}
		cur := storage.XID(binary.LittleEndian.Uint64(rec[8:]))
		if cur != storage.InvalidXID && cur != xid {
			return nil
		}
		binary.LittleEndian.PutUint64(rec[8:], uint64(xid))
		ok = true
		return nil
	})
	return ok
}

// ClearXmax rolls back a delete stamp.
func (h *PagedHeap) ClearXmax(tid storage.TID, xid storage.XID) {
	pid, slot := unpackTID(tid)
	h.mu.Lock()
	defer h.mu.Unlock()
	if int(pid) >= h.nPages {
		return
	}
	_ = h.pool.WithPageDirty(pid, func(p page) error {
		rec := p.record(slot)
		if rec == nil {
			return nil
		}
		if storage.XID(binary.LittleEndian.Uint64(rec[8:])) == xid {
			binary.LittleEndian.PutUint64(rec[8:], 0)
		}
		return nil
	})
}

// decodeVisible is decodeRecord behind vis: the MVCC stamps and the
// labels are read from the record header (§8.3 keeps them there) and
// judged first, and the row is decoded, into vis.Scan's arena, only
// when the version passes (§7.1: both filters sit below the executor).
func decodeVisible(rec []byte, vis storage.Visibility, tv *storage.TupleVersion) (bool, error) {
	if len(rec) < 18 {
		return false, fmt.Errorf("pager: truncated record (%d bytes)", len(rec))
	}
	xmin := storage.XID(binary.LittleEndian.Uint64(rec[0:]))
	xmax := storage.XID(binary.LittleEndian.Uint64(rec[8:]))
	l, il, n, ok, err := vis.SeesStored(xmin, xmax, rec[16:])
	if err != nil || !ok {
		return false, err
	}
	row, _, err := types.DecodeRowArena(&vis.Scan.Rows, rec[16+n:])
	if err != nil {
		return false, err
	}
	*tv = storage.TupleVersion{Row: row, Label: l, ILabel: il, Xmin: xmin, Xmax: xmax}
	return true, nil
}

// Scan visits every version in TID order: ScanFrom run to the end with
// nothing hidden.
func (h *PagedHeap) Scan(fn func(tid storage.TID, tv *storage.TupleVersion) bool) error {
	_, _, err := h.ScanFrom(0, math.MaxInt, storage.Visibility{}, fn)
	return err
}

// scratchPages holds the page-sized buffers scans copy pages into.
var scratchPages = sync.Pool{New: func() any { return new([PageSize]byte) }}

// ScanFrom is the resumable scan of storage.Heap: it
// returns after max versions examined, rounded up to a whole page so
// the resume position is a page boundary unless fn stopped it.
//
// Each page is copied out of its buffer frame into one scratch buffer
// and examined there, so neither the pool's lock nor a frame is held
// across vis or fn, and a version vis rejects costs a header read.
func (h *PagedHeap) ScanFrom(start storage.TID, max int, vis storage.Visibility, fn func(tid storage.TID, tv *storage.TupleVersion) bool) (next storage.TID, more bool, err error) {
	n := h.NPages()
	if vis.Scan == nil {
		vis.Scan = new(storage.ScanState)
	}
	buf := scratchPages.Get().(*[PageSize]byte)
	defer scratchPages.Put(buf)
	p := page(buf[:])
	copyOut := func(frame page) error { copy(p, frame); return nil }
	var tv storage.TupleVersion
	pid, slot := unpackTID(start)
	for visited := 0; int(pid) < n; pid, slot = pid+1, 0 {
		if err := h.pool.WithPage(pid, copyOut); err != nil {
			return packTID(pid, slot), true, err
		}
		for s := slot; s < p.nSlots(); s++ {
			rec := p.record(s)
			if rec == nil {
				continue
			}
			visited++
			ok, err := decodeVisible(rec, vis, &tv)
			if err != nil {
				return packTID(pid, s), true, fmt.Errorf("pager: page %d slot %d: %w", pid, s, err)
			}
			if ok && !fn(packTID(pid, s), &tv) {
				return packTID(pid, s) + 1, true, nil
			}
		}
		if visited >= max {
			return packTID(pid+1, 0), int(pid+1) < n, nil
		}
	}
	return packTID(PageID(n), 0), false, nil
}

// Vacuum tombstones dead versions and compacts touched pages.
func (h *PagedHeap) Vacuum(dead func(tv *storage.TupleVersion) bool) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	reclaimed := 0
	for pid := PageID(0); int(pid) < h.nPages; pid++ {
		_ = h.pool.WithPageDirty(pid, func(p page) error {
			touched := false
			for s := 0; s < p.nSlots(); s++ {
				rec := p.record(s)
				if rec == nil {
					continue
				}
				tv, err := decodeRecord(rec)
				if err != nil {
					return err
				}
				if dead(&tv) {
					h.bytes -= int64(len(rec))
					p.tombstone(s)
					h.live--
					reclaimed++
					touched = true
				}
			}
			if touched {
				p.compact()
			}
			return nil
		})
	}
	return reclaimed
}

// Len returns the number of resident versions.
func (h *PagedHeap) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.live
}

// ApproxBytes returns resident tuple bytes (excluding page overhead).
func (h *PagedHeap) ApproxBytes() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.bytes
}

// RestoreAt re-places a logged version at its exact (page, slot)
// during replay (page.restoreAt keeps the gap rule). Slots the flushed
// page already holds or tombstoned are left untouched (placed=false) —
// the record's effect reached disk before the crash, or was vacuumed.
func (h *PagedHeap) RestoreAt(tid storage.TID, tv storage.TupleVersion) (bool, error) {
	rec, err := encodeRecord(tv)
	if err != nil {
		return false, err
	}
	pid, slot := unpackTID(tid)
	h.mu.Lock()
	defer h.mu.Unlock()
	if int(pid) >= h.nPages {
		h.nPages = int(pid) + 1
		h.lastPage = pid
	}
	placed := false
	err = h.pool.WithPageDirty(pid, func(p page) error {
		ok, err := p.restoreAt(slot, rec)
		placed = ok
		return err
	})
	if err != nil {
		return false, err
	}
	if placed {
		h.live++
		h.bytes += int64(len(rec))
	}
	return placed, nil
}

// ForceXmax stamps tid's xmax whatever it was: replay stamps only
// committed deleters, which override any stale in-flight stamp a
// flushed page may carry.
func (h *PagedHeap) ForceXmax(tid storage.TID, xid storage.XID) {
	pid, slot := unpackTID(tid)
	h.mu.Lock()
	defer h.mu.Unlock()
	if int(pid) >= h.nPages {
		return
	}
	_ = h.pool.WithPageDirty(pid, func(p page) error {
		if rec := p.record(slot); rec != nil {
			binary.LittleEndian.PutUint64(rec[8:], uint64(xid))
		}
		return nil
	})
}

// Recount rebuilds the live/bytes counters by scanning every page;
// the engine calls it when it opens a heap file (whose counters are
// not persisted).
func (h *PagedHeap) Recount() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	live := 0
	var bytes int64
	for pid := PageID(0); int(pid) < h.nPages; pid++ {
		err := h.pool.WithPage(pid, func(p page) error {
			for s := 0; s < p.nSlots(); s++ {
				if rec := p.record(s); rec != nil {
					live++
					bytes += int64(len(rec))
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	h.live, h.bytes = live, bytes
	return nil
}

// Close releases the underlying store. With discard set, dirty pages
// are dropped instead of written back (used when the table is being
// dropped and its file deleted).
func (h *PagedHeap) Close(discard bool) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if discard {
		return h.pool.CloseDiscard()
	}
	return h.pool.Close()
}

// NPages returns the number of allocated pages (for space accounting).
func (h *PagedHeap) NPages() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.nPages
}

// Flush writes back all dirty pages.
func (h *PagedHeap) Flush() error { return h.pool.FlushAll() }

// WritePagesTo streams every page, checksum stamped, to w — the
// basebackup serialization replication uses. Each page image is
// internally consistent (copied under the buffer-pool frame lock);
// cross-page skew is repaired by the idempotent WAL replay that
// follows a basebackup, exactly as it is after a crash.
func (h *PagedHeap) WritePagesTo(w io.Writer) error {
	h.mu.RLock()
	n := h.nPages
	h.mu.RUnlock()
	buf := make(page, PageSize)
	for pid := PageID(0); int(pid) < n; pid++ {
		err := h.pool.WithPage(pid, func(p page) error {
			copy(buf, p)
			return nil
		})
		if err != nil {
			return err
		}
		buf.stampChecksum()
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
