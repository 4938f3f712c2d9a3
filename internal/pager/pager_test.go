package pager

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"ifdb/internal/label"
	"ifdb/internal/storage"
	"ifdb/internal/types"
)

func irow(vals ...int64) []types.Value {
	out := make([]types.Value, len(vals))
	for i, v := range vals {
		out[i] = types.NewInt(v)
	}
	return out
}

func TestPageInsertRecordTombstoneCompact(t *testing.T) {
	p := newPage()
	free0 := p.freeSpace()
	s1, err := p.insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.insert([]byte("world!"))
	if err != nil {
		t.Fatal(err)
	}
	if string(p.record(s1)) != "hello" || string(p.record(s2)) != "world!" {
		t.Fatal("records corrupted")
	}
	if p.record(99) != nil {
		t.Fatal("bogus slot returned data")
	}
	p.tombstone(s1)
	if p.record(s1) != nil {
		t.Fatal("tombstoned record visible")
	}
	p.compact()
	if string(p.record(s2)) != "world!" {
		t.Fatal("compact corrupted survivor")
	}
	if p.freeSpace() <= free0-len("hello")-len("world!")-2*slotSize {
		t.Fatalf("compact did not reclaim space: %d", p.freeSpace())
	}
	// Fill until overflow; insert must refuse rather than corrupt.
	big := make([]byte, 1000)
	for {
		if _, err := p.insert(big); err != nil {
			break
		}
	}
}

func TestBufferPoolEvictionAndWriteBack(t *testing.T) {
	store := NewMemStore()
	bp := NewBufferPool(store, 2)
	// Touch three pages; capacity 2 forces one eviction.
	for i := PageID(0); i < 3; i++ {
		err := bp.WithPageDirty(i, func(p page) error {
			if _, err := p.insert([]byte{byte(i)}); err != nil {
				return err
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if bp.Misses != 3 {
		t.Fatalf("misses = %d", bp.Misses)
	}
	if store.Writes == 0 {
		t.Fatal("eviction did not write back dirty page")
	}
	// Page 0 was evicted; reading it back must hit the store.
	err := bp.WithPage(0, func(p page) error {
		if p.nSlots() != 1 || p.record(0)[0] != 0 {
			return errors.New("page 0 lost its record across eviction")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := bp.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBufferPoolIOFaultPropagates(t *testing.T) {
	store := NewMemStore()
	store.OnIO = func(op string, id PageID) error {
		if op == "read" && id == 1 {
			return errors.New("injected read fault")
		}
		return nil
	}
	bp := NewBufferPool(store, 4)
	if err := bp.WithPage(1, func(p page) error { return nil }); err == nil {
		t.Fatal("read fault swallowed")
	}
	// Write fault on eviction.
	store.OnIO = func(op string, id PageID) error {
		if op == "write" {
			return errors.New("injected write fault")
		}
		return nil
	}
	bp2 := NewBufferPool(store, 1)
	if err := bp2.WithPageDirty(0, func(p page) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := bp2.WithPage(2, func(p page) error { return nil }); err == nil {
		t.Fatal("evict write fault swallowed")
	}
}

func TestPagedHeapBasics(t *testing.T) {
	h := NewPagedHeap(NewMemStore(), 8)
	tv := storage.TupleVersion{Row: irow(1, 2), Label: label.New(7), Xmin: 3}
	tid, err := h.Insert(tv)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := h.Get(tid)
	if !ok || !got.Label.Equal(label.New(7)) || got.Xmin != 3 || got.Row[1].Int() != 2 {
		t.Fatalf("Get: %+v ok=%v", got, ok)
	}
	if !h.SetXmax(tid, 9) {
		t.Fatal("SetXmax")
	}
	if h.SetXmax(tid, 10) {
		t.Fatal("conflicting SetXmax")
	}
	h.ClearXmax(tid, 9)
	if got, _ := h.Get(tid); got.Xmax != storage.InvalidXID {
		t.Fatal("ClearXmax")
	}
	if h.Len() != 1 {
		t.Fatalf("Len = %d", h.Len())
	}
	if h.ApproxBytes() <= 0 || h.NPages() != 1 {
		t.Fatal("accounting")
	}
}

func TestPagedHeapSpillsAcrossPages(t *testing.T) {
	h := NewPagedHeap(NewMemStore(), 4)
	long := types.NewText(string(make([]byte, 1024)))
	var tids []storage.TID
	for i := 0; i < 64; i++ {
		tid, err := h.Insert(storage.TupleVersion{Row: []types.Value{types.NewInt(int64(i)), long}, Xmin: 1})
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	if h.NPages() < 2 {
		t.Fatalf("expected multiple pages, got %d", h.NPages())
	}
	// All retrievable, in scan order, despite pool smaller than pages.
	i := 0
	h.Scan(func(tid storage.TID, tv *storage.TupleVersion) bool {
		if tv.Row[0].Int() != int64(i) {
			t.Fatalf("scan order broke at %d: %v", i, tv.Row[0])
		}
		i++
		return true
	})
	if i != 64 {
		t.Fatalf("scanned %d", i)
	}
	for i, tid := range tids {
		got, ok := h.Get(tid)
		if !ok || got.Row[0].Int() != int64(i) {
			t.Fatalf("Get(%d) failed", i)
		}
	}
}

func TestPagedHeapVacuumCompacts(t *testing.T) {
	h := NewPagedHeap(NewMemStore(), 4)
	for i := 0; i < 100; i++ {
		tid, err := h.Insert(storage.TupleVersion{Row: irow(int64(i)), Xmin: 1})
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			h.SetXmax(tid, 2)
		}
	}
	n := h.Vacuum(func(tv *storage.TupleVersion) bool { return tv.Xmax != storage.InvalidXID })
	if n != 50 {
		t.Fatalf("vacuumed %d", n)
	}
	if h.Len() != 50 {
		t.Fatalf("Len = %d", h.Len())
	}
	count := 0
	h.Scan(func(_ storage.TID, tv *storage.TupleVersion) bool {
		if tv.Row[0].Int()%2 == 0 {
			t.Fatal("vacuumed row surfaced")
		}
		count++
		return true
	})
	if count != 50 {
		t.Fatalf("scan count %d", count)
	}
}

func TestPagedHeapOversizeTuple(t *testing.T) {
	h := NewPagedHeap(NewMemStore(), 2)
	huge := types.NewText(string(make([]byte, PageSize)))
	if _, err := h.Insert(storage.TupleVersion{Row: []types.Value{huge}}); err == nil {
		t.Fatal("oversize tuple accepted")
	}
}

func TestFileStorePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.heap")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	h := NewPagedHeap(fs, 4)
	var tids []storage.TID
	for i := 0; i < 10; i++ {
		tid, err := h.Insert(storage.TupleVersion{Row: irow(int64(i)), Xmin: 1})
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: data must still be there (same TIDs).
	fs2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	h2 := NewPagedHeap(fs2, 4)
	h2.nPages = 1 // heap-level metadata is rebuilt by the catalog; emulate
	for i, tid := range tids {
		got, ok := h2.Get(tid)
		if !ok || got.Row[0].Int() != int64(i) {
			t.Fatalf("row %d lost across reopen", i)
		}
	}
}

// Property: both heap backends keep the storage.Heap contract and agree
// with a reference map. A primary heap takes random inserts and
// deletes. A replica heap of the same kind restores the primary's
// versions by TID in shuffled order, leaving some slots as gaps for
// good; stamps and clears xmax with ForceXmax; and, after a vacuum,
// must not bring a vacuumed TID back through RestoreAt.
func TestQuickHeapMatchesReference(t *testing.T) {
	type version struct {
		tid storage.TID
		v   int64
	}
	dead := func(tv *storage.TupleVersion) bool { return tv.Xmax != storage.InvalidXID }
	matches := func(h storage.Heap, ref map[storage.TID]int64) error {
		if h.Len() != len(ref) {
			return fmt.Errorf("Len %d, want %d", h.Len(), len(ref))
		}
		for tid, v := range ref {
			if got, ok := h.Get(tid); !ok || got.Row[0].Int() != v {
				return fmt.Errorf("Get(%d) = %v %v, want %d", tid, got.Row, ok, v)
			}
		}
		n, last := 0, storage.TID(0)
		err := h.Scan(func(tid storage.TID, tv *storage.TupleVersion) bool {
			if want, ok := ref[tid]; !ok || want != tv.Row[0].Int() || (n > 0 && tid <= last) {
				n = -1
				return false
			}
			n, last = n+1, tid
			return true
		})
		if err != nil || n != len(ref) {
			return fmt.Errorf("scan disagrees with the reference (%v)", err)
		}
		return nil
	}
	run := func(seed int64, mk func() storage.Heap) error {
		r := rand.New(rand.NewSource(seed))
		primary := mk()
		ref := make(map[storage.TID]int64)
		var inserted []version
		for op := 0; op < 300; op++ {
			if r.Intn(3) > 0 || len(ref) == 0 {
				v := r.Int63n(1000)
				tid, err := primary.Insert(storage.TupleVersion{Row: irow(v), Xmin: 1})
				if err != nil {
					return err
				}
				ref[tid] = v
				inserted = append(inserted, version{tid, v})
			} else {
				for tid := range ref {
					primary.SetXmax(tid, 2)
					delete(ref, tid)
					break
				}
			}
		}
		primary.Vacuum(dead)
		if err := matches(primary, ref); err != nil {
			return fmt.Errorf("primary: %w", err)
		}

		replica := mk()
		rref := make(map[storage.TID]int64)
		r.Shuffle(len(inserted), func(i, j int) { inserted[i], inserted[j] = inserted[j], inserted[i] })
		for _, in := range inserted {
			if r.Intn(5) == 0 {
				continue // an aborted insert: its slot stays a gap
			}
			tv := storage.TupleVersion{Row: irow(in.v), Xmin: 1}
			if placed, err := replica.RestoreAt(in.tid, tv); err != nil || !placed {
				return fmt.Errorf("RestoreAt(%d) placed=%v err=%v", in.tid, placed, err)
			}
			rref[in.tid] = in.v
			if placed, _ := replica.RestoreAt(in.tid, storage.TupleVersion{Row: irow(-1), Xmin: 1}); placed {
				return fmt.Errorf("RestoreAt(%d) replaced an occupied slot", in.tid)
			}
		}
		var vacuumed []storage.TID
		for tid := range rref {
			switch r.Intn(4) {
			case 0:
				replica.ForceXmax(tid, 2)
				vacuumed = append(vacuumed, tid)
				delete(rref, tid)
			case 1:
				replica.ForceXmax(tid, 3)
				replica.ForceXmax(tid, storage.InvalidXID)
			}
		}
		if n := replica.Vacuum(dead); n != len(vacuumed) {
			return fmt.Errorf("vacuumed %d, want %d", n, len(vacuumed))
		}
		for _, tid := range vacuumed {
			if placed, err := replica.RestoreAt(tid, storage.TupleVersion{Row: irow(-1), Xmin: 1}); placed || err != nil {
				return fmt.Errorf("RestoreAt(%d) refilled a vacuumed slot (err %v)", tid, err)
			}
		}
		if err := matches(replica, rref); err != nil {
			return fmt.Errorf("replica: %w", err)
		}
		return nil
	}
	for name, mk := range map[string]func() storage.Heap{
		"mem":   func() storage.Heap { return storage.NewMemHeap() },
		"paged": func() storage.Heap { return NewPagedHeap(NewMemStore(), 3) },
	} {
		if err := quick.Check(func(seed int64) bool {
			if err := run(seed, mk); err != nil {
				t.Logf("%s, seed %d: %v", name, seed, err)
				return false
			}
			return true
		}, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestMemStoreCounters(t *testing.T) {
	s := NewMemStore()
	buf := make([]byte, PageSize)
	if err := s.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(0, buf); err != nil {
		t.Fatal(err)
	}
	if s.Reads != 1 || s.Writes != 1 {
		t.Fatalf("counters: %d reads %d writes", s.Reads, s.Writes)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_ = fmt.Sprintf // keep fmt for debug helpers
}
