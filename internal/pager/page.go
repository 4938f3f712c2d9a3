// Package pager implements the on-disk heap backend: fixed-size
// slotted pages stored in a file, cached by an LRU buffer pool.
//
// The paper's Fig. 6 contrasts an in-memory DBT-2 database with a
// disk-bound one; the per-tag label overhead is larger on disk because
// bigger tuples mean fewer tuples per page and more I/O (§8.3). This
// backend reproduces that mechanism: labels are stored inline in each
// tuple record (1 count byte + 4 bytes per tag, the same cost the
// paper reports), so adding tags genuinely increases page consumption
// and buffer-pool pressure.
package pager

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// PageSize is the size of every page in bytes (PostgreSQL's default).
const PageSize = 8192

// PageID numbers pages within a heap file, starting at 0.
type PageID uint32

// Page layout:
//
//	offset 0:  uint16 nslots
//	offset 2:  uint16 freeLow  — end of slot array (grows up)
//	offset 4:  uint16 freeHigh — start of tuple data (grows down)
//	offset 6:  uint32 CRC-32C  — stamped on flush, verified on read
//	offset 10: slot array, 4 bytes per slot: {uint16 off, uint16 len}
//	...
//	freeHigh..PageSize: tuple records
//
// The checksum is a property of the page *on disk*: it is stamped by
// the file store as the page is written and verified as it is read, so
// silent media corruption surfaces as a loud error instead of garbage
// tuples. In memory the field is ignored. An all-zero page reads as a
// fresh page (a hole left by out-of-order flushes), as in PostgreSQL.
//
// A slot with len == 0 holds no record. With off == gapOff it is a gap
// restoreAt skipped over, which a later restoreAt of that slot may
// fill; otherwise it is a tombstone (vacuumed), whose slot number is
// never reused so TIDs stay stable.
const (
	pageHeaderSize = 10
	checksumOff    = 6
	slotSize       = 4
	gapOff         = 0xFFFF // never a record offset: PageSize < gapOff
)

type page []byte

func newPage() page {
	p := make(page, PageSize)
	p.setNSlots(0)
	p.setFreeLow(pageHeaderSize)
	p.setFreeHigh(PageSize)
	return p
}

func (p page) nSlots() int      { return int(binary.LittleEndian.Uint16(p[0:])) }
func (p page) setNSlots(n int)  { binary.LittleEndian.PutUint16(p[0:], uint16(n)) }
func (p page) freeLow() int     { return int(binary.LittleEndian.Uint16(p[2:])) }
func (p page) setFreeLow(n int) { binary.LittleEndian.PutUint16(p[2:], uint16(n)) }
func (p page) freeHigh() int    { return int(binary.LittleEndian.Uint16(p[4:])) }
func (p page) setFreeHigh(n int) {
	binary.LittleEndian.PutUint16(p[4:], uint16(n))
}

// checksum computes the page's CRC-32C with the checksum field itself
// excluded.
func (p page) checksum() uint32 {
	c := crc32.Update(0, castagnoli, p[:checksumOff])
	return crc32.Update(c, castagnoli, p[checksumOff+4:])
}

// stampChecksum writes the current checksum into the header.
func (p page) stampChecksum() {
	binary.LittleEndian.PutUint32(p[checksumOff:], p.checksum())
}

// verifyChecksum checks the stored checksum against the contents.
func (p page) verifyChecksum() error {
	want := binary.LittleEndian.Uint32(p[checksumOff:])
	if got := p.checksum(); got != want {
		return fmt.Errorf("pager: page checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	return nil
}

// isZero reports whether the page is entirely zero bytes (a hole).
func (p page) isZero() bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (p page) slot(i int) (off, ln int) {
	base := pageHeaderSize + i*slotSize
	return int(binary.LittleEndian.Uint16(p[base:])), int(binary.LittleEndian.Uint16(p[base+2:]))
}

func (p page) setSlot(i, off, ln int) {
	base := pageHeaderSize + i*slotSize
	binary.LittleEndian.PutUint16(p[base:], uint16(off))
	binary.LittleEndian.PutUint16(p[base+2:], uint16(ln))
}

// freeSpace returns bytes available for one more tuple (including its
// slot entry).
func (p page) freeSpace() int {
	free := p.freeHigh() - p.freeLow() - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// insert places a record and returns its slot number.
func (p page) insert(rec []byte) (int, error) {
	if len(rec) > p.freeSpace() {
		return 0, fmt.Errorf("pager: record of %d bytes does not fit (%d free)", len(rec), p.freeSpace())
	}
	slotNo := p.nSlots()
	newHigh := p.freeHigh() - len(rec)
	copy(p[newHigh:], rec)
	p.setFreeHigh(newHigh)
	p.setSlot(slotNo, newHigh, len(rec))
	p.setNSlots(slotNo + 1)
	p.setFreeLow(pageHeaderSize + (slotNo+1)*slotSize)
	return slotNo, nil
}

// record returns the bytes of slot i (nil for tombstones).
func (p page) record(i int) []byte {
	if i >= p.nSlots() {
		return nil
	}
	off, ln := p.slot(i)
	if ln == 0 {
		return nil
	}
	return p[off : off+ln]
}

// restoreAt places a record at exactly slot during replay, marking any
// slot it has to allocate below it as a gap. A gap is filled; an
// occupied or tombstoned slot is left alone: the page reached disk
// after that insert (or after its vacuum), so the log record's effect
// is already present.
func (p page) restoreAt(slot int, rec []byte) (bool, error) {
	n := p.nSlots()
	if slot < n {
		if off, ln := p.slot(slot); ln != 0 || off != gapOff {
			return false, nil
		}
	}
	slots := max(n, slot+1)
	newHigh := p.freeHigh() - len(rec)
	if pageHeaderSize+slots*slotSize > newHigh {
		return false, fmt.Errorf("pager: restore of %d bytes at slot %d does not fit (%d slots, %d bytes free)",
			len(rec), slot, n, p.freeHigh()-p.freeLow())
	}
	for i := n; i < slot; i++ {
		p.setSlot(i, gapOff, 0)
	}
	copy(p[newHigh:], rec)
	p.setFreeHigh(newHigh)
	p.setSlot(slot, newHigh, len(rec))
	p.setNSlots(slots)
	p.setFreeLow(pageHeaderSize + slots*slotSize)
	return true, nil
}

// tombstone marks slot i vacuumed. The space is reclaimed by compact.
func (p page) tombstone(i int) {
	if i < p.nSlots() {
		p.setSlot(i, 0, 0)
	}
}

// compact rewrites live records contiguously at the high end,
// recovering space from tombstoned slots. Slot numbers are preserved.
func (p page) compact() {
	type rec struct {
		slot int
		data []byte
	}
	var live []rec
	for i := 0; i < p.nSlots(); i++ {
		if r := p.record(i); r != nil {
			cp := make([]byte, len(r))
			copy(cp, r)
			live = append(live, rec{i, cp})
		}
	}
	high := PageSize
	for _, r := range live {
		high -= len(r.data)
		copy(p[high:], r.data)
		p.setSlot(r.slot, high, len(r.data))
	}
	p.setFreeHigh(high)
}
