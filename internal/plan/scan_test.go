package plan

import (
	"testing"
	"unsafe"
)

// TestScanIterSizeClass: a scan is one allocation of the 896-byte size
// class, its label verdict memo included (storage.ScanState keeps the
// scan's first verdict inline, so a scan that meets one label allocates
// nothing more).
func TestScanIterSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(scanIter{}); n > 896 {
		t.Fatalf("scanIter is %d bytes, past the 896-byte size class", n)
	}
}
