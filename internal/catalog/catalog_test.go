package catalog

import (
	"testing"

	"ifdb/internal/index"
	"ifdb/internal/label"
	"ifdb/internal/storage"
	"ifdb/internal/types"
)

func mkTable(name string, cols ...string) *Table {
	t := &Table{Name: name, Heap: storage.NewMemHeap()}
	for _, c := range cols {
		t.Columns = append(t.Columns, Column{Name: c, Kind: types.KindInt})
	}
	return t
}

func TestTableColumnLookup(t *testing.T) {
	tb := mkTable("t", "a", "b", "c")
	if i, ok := tb.ColIndex("b"); !ok || i != 1 {
		t.Fatalf("ColIndex: %d %v", i, ok)
	}
	if _, ok := tb.ColIndex("zzz"); ok {
		t.Fatal("bogus column resolved")
	}
	names := tb.ColNames()
	if len(names) != 3 || names[2] != "c" {
		t.Fatalf("ColNames: %v", names)
	}
}

func TestBestIndex(t *testing.T) {
	tb := mkTable("t", "a", "b", "c")
	pk := &Index{Name: "pk", Cols: []int{0, 1}, Unique: true, Tree: index.New()}
	sec := &Index{Name: "sec", Cols: []int{2}, Unique: false, Tree: index.New()}
	tb.Indexes = append(tb.Indexes, pk, sec)
	tb.Primary = pk

	// Longest usable prefix wins.
	ix, n := tb.BestIndexForCols(map[int]bool{0: true, 1: true})
	if ix != pk || n != 2 {
		t.Fatalf("best: %v %d", ix, n)
	}
	// A prefix of the pk still usable.
	ix, n = tb.BestIndexForCols(map[int]bool{0: true})
	if ix != pk || n != 1 {
		t.Fatalf("prefix: %v %d", ix, n)
	}
	// Equality on a non-leading column cannot use pk but can use sec.
	ix, n = tb.BestIndexForCols(map[int]bool{2: true})
	if ix != sec || n != 1 {
		t.Fatalf("secondary: %v %d", ix, n)
	}
	// Nothing usable.
	if ix, n = tb.BestIndexForCols(map[int]bool{1: true}); ix != nil || n != 0 {
		t.Fatalf("unusable: %v %d", ix, n)
	}
}

func TestCatalogNamespaces(t *testing.T) {
	c := New()
	if err := c.AddTable(mkTable("users", "id")); err != nil {
		t.Fatal(err)
	}
	// Case-insensitive lookups.
	if _, ok := c.Table("USERS"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if err := c.AddTable(mkTable("Users", "id")); err == nil {
		t.Fatal("case-variant duplicate accepted")
	}
	if err := c.AddView(&View{Name: "users"}); err == nil {
		t.Fatal("view shadowing table accepted")
	}
	if err := c.AddView(&View{Name: "v"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddView(&View{Name: "v"}); err == nil {
		t.Fatal("duplicate view accepted")
	}
	if err := c.AddTable(mkTable("v", "id")); err == nil {
		t.Fatal("table shadowing view accepted")
	}
	if len(c.Tables()) != 1 || len(c.Views()) != 1 {
		t.Fatalf("inventory: %d tables %d views", len(c.Tables()), len(c.Views()))
	}
}

func TestDropTableRules(t *testing.T) {
	c := New()
	parent := mkTable("parent", "id")
	child := mkTable("child", "id", "pid")
	child.ForeignKeys = append(child.ForeignKeys, ForeignKey{
		Name: "fk", Cols: []int{1}, RefTable: "parent", RefCols: []int{0}, OnDelete: "RESTRICT",
	})
	if err := c.AddTable(parent); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(child); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("parent"); err == nil {
		t.Fatal("dropped referenced table")
	}
	refs := c.ReferencingFKs("parent")
	if len(refs) != 1 || refs[0].Table != child {
		t.Fatalf("ReferencingFKs: %v", refs)
	}
	if err := c.DropTable("child"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("parent"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("parent"); err == nil {
		t.Fatal("double drop succeeded")
	}
}

func TestViewDeclassifyingFlag(t *testing.T) {
	v := &View{Name: "v"}
	if v.IsDeclassifying() {
		t.Fatal("plain view declassifying")
	}
	v.Declassify = label.New(3)
	if !v.IsDeclassifying() {
		t.Fatal("declassifying view not flagged")
	}
}
