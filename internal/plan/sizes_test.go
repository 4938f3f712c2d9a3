package plan

import (
	"testing"
	"unsafe"

	"ifdb/internal/storage"
)

// TestRowSizes pins the sizes of the two structs every scanned tuple
// passes through. A field that one heap or one caller needs (a table
// on disk's stored row bytes, say) would cost every scan of every heap,
// tables in memory included: such state belongs in storage.ScanState
// or in the iterator.
func TestRowSizes(t *testing.T) {
	if got := unsafe.Sizeof(storage.TupleVersion{}); got != 88 {
		t.Errorf("storage.TupleVersion is %d bytes, want 88", got)
	}
	if got := unsafe.Sizeof(Row{}); got != 104 {
		t.Errorf("plan.Row is %d bytes, want 104", got)
	}
}
