package pager

import (
	"container/list"
	"fmt"
	"io"
	"os"
	"sync"
)

// PageStore is the I/O boundary under the buffer pool. The production
// implementation is FileStore; tests substitute an in-memory store
// with fault injection.
type PageStore interface {
	// ReadPage fills buf (PageSize bytes) with page id's contents.
	ReadPage(id PageID, buf []byte) error
	// WritePage persists buf as page id's contents.
	WritePage(id PageID, buf []byte) error
	// Sync flushes to stable storage.
	Sync() error
	Close() error
}

// SizedStore is implemented by stores that know how many pages they
// already hold. The paged heap uses it to rediscover its page count
// when a heap file is reopened after a restart.
type SizedStore interface {
	NumPages() (int, error)
}

// FileStore stores pages in a single flat file.
type FileStore struct {
	f *os.File
}

// OpenFileStore opens (creating if necessary) the heap file at path.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: open %s: %w", path, err)
	}
	return &FileStore{f: f}, nil
}

// NumPages reports how many pages the file currently holds.
func (s *FileStore) NumPages() (int, error) {
	st, err := s.f.Stat()
	if err != nil {
		return 0, err
	}
	return int((st.Size() + PageSize - 1) / PageSize), nil
}

// ReadPage reads page id into buf, verifying its checksum. A page
// beyond EOF or an all-zero page (a hole left by out-of-order flushes)
// reads as a fresh page; anything else that fails verification is
// disk corruption and surfaces as a loud error, never as garbage
// tuples.
func (s *FileStore) ReadPage(id PageID, buf []byte) error {
	_, err := s.f.ReadAt(buf, int64(id)*PageSize)
	if err == io.EOF {
		copy(buf, newPage())
		return nil
	}
	if err != nil {
		return err
	}
	p := page(buf)
	if p.isZero() {
		copy(buf, newPage())
		return nil
	}
	if err := p.verifyChecksum(); err != nil {
		return fmt.Errorf("%w (page %d of %s)", err, id, s.f.Name())
	}
	return nil
}

// WritePage stamps buf's checksum and writes it as page id.
func (s *FileStore) WritePage(id PageID, buf []byte) error {
	page(buf).stampChecksum()
	_, err := s.f.WriteAt(buf, int64(id)*PageSize)
	return err
}

// Sync flushes the file.
func (s *FileStore) Sync() error { return s.f.Sync() }

// Close closes the file.
func (s *FileStore) Close() error { return s.f.Close() }

// MemStore is an in-memory PageStore used by tests and by "simulated
// disk" benchmark configurations where real disk latency would drown
// the signal. An optional per-I/O hook injects latency or faults.
type MemStore struct {
	mu    sync.Mutex
	pages map[PageID][]byte
	// OnIO, if set, runs before every read/write with the operation
	// name; it may return an error to inject a fault.
	OnIO func(op string, id PageID) error
	// Reads and Writes count I/O operations, for cache-behavior tests.
	Reads, Writes int64
}

// NewMemStore returns an empty in-memory page store.
func NewMemStore() *MemStore { return &MemStore{pages: make(map[PageID][]byte)} }

// ReadPage implements PageStore.
func (s *MemStore) ReadPage(id PageID, buf []byte) error {
	s.mu.Lock()
	hook := s.OnIO
	s.Reads++
	p, ok := s.pages[id]
	if ok {
		copy(buf, p)
	} else {
		copy(buf, newPage())
	}
	s.mu.Unlock()
	if hook != nil {
		return hook("read", id)
	}
	return nil
}

// WritePage implements PageStore.
func (s *MemStore) WritePage(id PageID, buf []byte) error {
	s.mu.Lock()
	hook := s.OnIO
	s.Writes++
	cp := make([]byte, PageSize)
	copy(cp, buf)
	s.pages[id] = cp
	s.mu.Unlock()
	if hook != nil {
		return hook("write", id)
	}
	return nil
}

// Sync implements PageStore.
func (s *MemStore) Sync() error { return nil }

// Close implements PageStore.
func (s *MemStore) Close() error { return nil }

// BufferPool caches pages with LRU eviction and write-back.
//
// A single mutex guards the pool. Callers access page contents only
// through With*, which runs the callback with the frame held; the
// callback must not re-enter the pool.
type BufferPool struct {
	mu       sync.Mutex
	store    PageStore
	capacity int
	frames   map[PageID]*frame
	lru      *list.List // front = most recently used; values are *frame

	// Hits and Misses count lookups, for cache tests and the bench
	// harness's I/O accounting.
	Hits, Misses int64
}

type frame struct {
	id    PageID
	data  page
	dirty bool
	elem  *list.Element
}

// NewBufferPool creates a pool holding at most capacity pages (min 1).
func NewBufferPool(store PageStore, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &BufferPool{
		store:    store,
		capacity: capacity,
		frames:   make(map[PageID]*frame),
		lru:      list.New(),
	}
}

// load pins the page into a frame, evicting if needed; the new page
// is read into the evicted frame's buffer. Caller holds mu.
func (bp *BufferPool) load(id PageID) (*frame, error) {
	if fr, ok := bp.frames[id]; ok {
		bp.lru.MoveToFront(fr.elem)
		bp.Hits++
		return fr, nil
	}
	bp.Misses++
	var fr *frame
	for len(bp.frames) >= bp.capacity {
		// Evict least recently used.
		tail := bp.lru.Back()
		if tail == nil {
			break
		}
		victim := tail.Value.(*frame)
		if victim.dirty {
			if err := bp.store.WritePage(victim.id, victim.data); err != nil {
				return nil, fmt.Errorf("pager: evict page %d: %w", victim.id, err)
			}
		}
		bp.lru.Remove(tail)
		delete(bp.frames, victim.id)
		fr = victim
	}
	if fr == nil {
		fr = &frame{data: make(page, PageSize)}
	}
	fr.id, fr.dirty = id, false
	if err := bp.store.ReadPage(id, fr.data); err != nil {
		return nil, fmt.Errorf("pager: read page %d: %w", id, err)
	}
	fr.elem = bp.lru.PushFront(fr)
	bp.frames[id] = fr
	return fr, nil
}

// WithPage runs fn with read access to page id.
func (bp *BufferPool) WithPage(id PageID, fn func(p page) error) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr, err := bp.load(id)
	if err != nil {
		return err
	}
	return fn(fr.data)
}

// WithPageDirty runs fn with write access to page id and marks it dirty.
func (bp *BufferPool) WithPageDirty(id PageID, fn func(p page) error) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr, err := bp.load(id)
	if err != nil {
		return err
	}
	fr.dirty = true
	return fn(fr.data)
}

// FlushAll writes back every dirty frame and syncs the store.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, fr := range bp.frames {
		if fr.dirty {
			if err := bp.store.WritePage(fr.id, fr.data); err != nil {
				return err
			}
			fr.dirty = false
		}
	}
	return bp.store.Sync()
}

// Close flushes and closes the underlying store.
func (bp *BufferPool) Close() error {
	if err := bp.FlushAll(); err != nil {
		return err
	}
	return bp.store.Close()
}

// CloseDiscard closes the store without writing dirty pages back
// (the caller is deleting the backing file).
func (bp *BufferPool) CloseDiscard() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.frames = make(map[PageID]*frame)
	bp.lru.Init()
	return bp.store.Close()
}
