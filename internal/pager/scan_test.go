package pager

import (
	"os"
	"strings"
	"testing"

	"ifdb/internal/label"
	"ifdb/internal/storage"
	"ifdb/internal/types"
)

// scanFixture is a heap of rows tuples (BIGINT, TEXT) carrying 8
// distinct labels in turn, several times the size of its 4-page pool.
func scanFixture(tb testing.TB, rows int) *PagedHeap {
	tb.Helper()
	h := NewPagedHeap(NewMemStore(), 4)
	for i := 0; i < rows; i++ {
		tv := storage.TupleVersion{Xmin: 1, Label: label.New(label.Tag(1+i%8), 99),
			Row: []types.Value{types.NewInt(int64(i)), types.NewText(strings.Repeat("x", 40))}}
		if _, err := h.Insert(tv); err != nil {
			tb.Fatal(err)
		}
	}
	return h
}

// drain runs one scan the way the executor does, batch by batch on one
// ScanState, and returns how many versions reached fn.
func drain(tb testing.TB, h *PagedHeap, vis storage.Visibility) (seen int) {
	var st storage.ScanState
	vis.Scan = &st
	for next, more := storage.TID(0), true; more; {
		var err error
		next, more, err = h.ScanFrom(next, 1024, vis, func(storage.TID, *storage.TupleVersion) bool { seen++; return true })
		if err != nil {
			tb.Fatal(err)
		}
	}
	return seen
}

var (
	hideAll = storage.Visibility{LabelOK: func(l, il label.Label) (label.Label, bool) { return l, false }}
	showAll = storage.Visibility{LabelOK: func(l, il label.Label) (label.Label, bool) { return l, true }}
)

// TestPagedScanAllocBudget holds the scan to its allocation budget: a
// version the label hides costs a header read — no row decode, and
// allocations only per scan and per distinct label — and a visible one
// its text column plus its share of a row block.
func TestPagedScanAllocBudget(t *testing.T) {
	const rows = 4000
	h := scanFixture(t, rows)
	calls := 0
	counted := storage.Visibility{LabelOK: func(l, il label.Label) (label.Label, bool) { calls++; return l, false }}
	if seen := drain(t, h, counted); seen != 0 || calls != 8 {
		t.Fatalf("all-hidden scan decoded %d rows and judged %d labels, want 0 and 8", seen, calls)
	}
	if per := testing.AllocsPerRun(5, func() { drain(t, h, hideAll) }) / rows; per > 0.1 {
		t.Fatalf("hidden tuple costs %.3f allocs, budget 0.1", per)
	}
	if per := testing.AllocsPerRun(5, func() { drain(t, h, showAll) }) / rows; per > 1.1 {
		t.Fatalf("visible tuple with one text column costs %.3f allocs, budget 1.1", per)
	}
}

func BenchmarkPagedScanAllHidden(b *testing.B) { benchScan(b, hideAll, 0) }
func BenchmarkPagedScanVisible(b *testing.B)   { benchScan(b, showAll, 20_000) }

func benchScan(b *testing.B, vis storage.Visibility, want int) {
	h := scanFixture(b, 20_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if seen := drain(b, h, vis); seen != want {
			b.Fatalf("scan passed %d versions, want %d", seen, want)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/20_000, "ns/tuple")
}

// TestScanReportsCorruptPage: a page that fails its checksum ends the
// scan with an error; it does not read as a page of no tuples.
func TestScanReportsCorruptPage(t *testing.T) {
	path := t.TempDir() + "/t.heap"
	fileHeapWithRows(t, path, 200)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[PageSize+PageSize/2] ^= 0xFF // inside page 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	seen := 0
	err = NewPagedHeap(fs, 4).Scan(func(storage.TID, *storage.TupleVersion) bool { seen++; return true })
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("scan over a corrupt page: %d tuples, err %v; want checksum mismatch", seen, err)
	}
	if seen == 0 || seen >= 200 {
		t.Fatalf("scan passed %d tuples, want those of page 0 only", seen)
	}
}
