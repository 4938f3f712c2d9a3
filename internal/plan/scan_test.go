package plan

import (
	"testing"
	"unsafe"
)

// TestScanIterSizeClass: a scan is one allocation of the 896-byte size
// class, its label verdict memo included (storage.ScanState keeps the
// scan's first verdict inline, so a scan that meets one label allocates
// nothing more), made once per iterator tree of its plan (Plan.Open)
// and kept whole while the tree is free.
func TestScanIterSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(scanIter{}); n > 896 {
		t.Fatalf("scanIter is %d bytes, past the 896-byte size class", n)
	}
}
