// Package catalog holds the schema objects of an IFDB database:
// tables (with their heaps, indexes, and constraints), views —
// including the declassifying views of paper §4.3 — and triggers.
package catalog

import (
	"fmt"
	"strings"
	"sync"

	"ifdb/internal/authority"
	"ifdb/internal/index"
	"ifdb/internal/label"
	"ifdb/internal/sql"
	"ifdb/internal/storage"
	"ifdb/internal/types"
)

// Column describes one table column.
type Column struct {
	Name    string
	Kind    types.Kind
	NotNull bool
	Default sql.Expr // nil if none
}

// Index is a secondary index over a table.
type Index struct {
	Name   string
	Cols   []int // column ordinals
	Unique bool  // unique over *visible* tuples (polyinstantiation aside)
	Tree   *index.Btree
}

// Key is row's key in the index: its values at the index's columns.
func (ix *Index) Key(row []types.Value) index.Key {
	key := make(index.Key, len(ix.Cols))
	for i, c := range ix.Cols {
		key[i] = row[c]
	}
	return key
}

// ForeignKey is a referential constraint, enforced under the Foreign
// Key Rule of paper §5.2.2.
type ForeignKey struct {
	Name     string
	Cols     []int
	RefTable string
	RefCols  []int
	OnDelete string // "RESTRICT" or "CASCADE"
}

// LabelConstraint restricts tuple labels (paper §5.2.4). The
// expressions evaluate over the inserted row to tag ids; Exact
// requires the tuple label to equal the resulting set, otherwise it
// must merely contain it.
type LabelConstraint struct {
	Name  string
	Exact bool
	Exprs []sql.Expr
}

// CheckConstraint is a generic row predicate.
type CheckConstraint struct {
	Name string
	Expr sql.Expr
}

// Trigger attaches a stored procedure to a table event. If the named
// procedure was registered as a stored authority closure, it runs with
// its bound authority; otherwise with the caller's (paper §5.2.3).
type Trigger struct {
	Name     string
	Timing   string // "BEFORE" or "AFTER"
	Event    string // "INSERT", "UPDATE", "DELETE"
	Proc     string
	Deferred bool // run at commit, with the originating query's label
}

// Table is one base relation.
type Table struct {
	Name    string
	Columns []Column
	Heap    storage.Heap
	OnDisk  bool

	Primary          *Index // may be nil
	Indexes          []*Index
	ForeignKeys      []ForeignKey
	LabelConstraints []LabelConstraint
	Checks           []CheckConstraint
	Triggers         []*Trigger

	// UniqueMu serializes uniqueness-check-plus-insert critical
	// sections on this table, standing in for PostgreSQL's index-level
	// locking. Without it, two concurrent transactions could each miss
	// the other's in-flight insert of the same key.
	UniqueMu sync.Mutex
}

// ColIndex resolves a column name to its ordinal.
func (t *Table) ColIndex(name string) (int, bool) {
	for i, c := range t.Columns {
		if c.Name == name {
			return i, true
		}
	}
	return 0, false
}

// IndexVersion adds the entries of the version at tid, whose row is
// row, to every index of t. Entries are per version (§7.1): an UPDATE
// indexes its new version beside the old one, and readers filter.
func (t *Table) IndexVersion(tid storage.TID, row []types.Value) {
	for _, ix := range t.Indexes {
		ix.Tree.Insert(ix.Key(row), tid)
	}
}

// UnindexVersion drops the version's entries from every index of t;
// an entry already gone is no error.
func (t *Table) UnindexVersion(tid storage.TID, row []types.Value) {
	for _, ix := range t.Indexes {
		ix.Tree.Delete(ix.Key(row), tid)
	}
}

// ColNames returns the column names in order.
func (t *Table) ColNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// BestIndexForCols returns the index whose column list has the longest
// prefix contained in eqCols (a set of column ordinals with equality
// predicates), along with the usable prefix length.
func (t *Table) BestIndexForCols(eqCols map[int]bool) (*Index, int) {
	var best *Index
	bestLen := 0
	for _, ix := range t.Indexes {
		n := 0
		for _, c := range ix.Cols {
			if eqCols[c] {
				n++
			} else {
				break
			}
		}
		if n > bestLen {
			best, bestLen = ix, n
		}
	}
	return best, bestLen
}

// View is a stored query. A declassifying view carries the tags it
// strips and the principal whose authority backs them; the engine
// verifies at creation time that the owner holds that authority
// (paper §4.3).
type View struct {
	Name       string
	Columns    []string // optional output name overrides
	Select     *sql.SelectStmt
	Declassify label.Label
	Owner      authority.Principal
}

// IsDeclassifying reports whether the view strips any tags.
func (v *View) IsDeclassifying() bool { return len(v.Declassify) > 0 }

// Catalog is the collection of schema objects. Safe for concurrent
// use; DDL takes the write lock.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	views  map[string]*View
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables: make(map[string]*Table),
		views:  make(map[string]*View),
	}
}

func norm(name string) string { return strings.ToLower(name) }

// AddTable registers a table.
func (c *Catalog) AddTable(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := norm(t.Name)
	if _, dup := c.tables[key]; dup {
		return fmt.Errorf("catalog: table %q already exists", t.Name)
	}
	if _, dup := c.views[key]; dup {
		return fmt.Errorf("catalog: %q already names a view", t.Name)
	}
	c.tables[key] = t
	return nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[norm(name)]
	return t, ok
}

// DropTable removes a table, refusing while other tables reference it.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := norm(name)
	if _, ok := c.tables[key]; !ok {
		return fmt.Errorf("catalog: no table %q", name)
	}
	for _, other := range c.tables {
		if norm(other.Name) == key {
			continue
		}
		for _, fk := range other.ForeignKeys {
			if norm(fk.RefTable) == key {
				return fmt.Errorf("catalog: table %q is referenced by %q.%s", name, other.Name, fk.Name)
			}
		}
	}
	delete(c.tables, key)
	return nil
}

// AddView registers a view.
func (c *Catalog) AddView(v *View) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := norm(v.Name)
	if _, dup := c.views[key]; dup {
		return fmt.Errorf("catalog: view %q already exists", v.Name)
	}
	if _, dup := c.tables[key]; dup {
		return fmt.Errorf("catalog: %q already names a table", v.Name)
	}
	c.views[key] = v
	return nil
}

// View looks up a view by name.
func (c *Catalog) View(name string) (*View, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[norm(name)]
	return v, ok
}

// Tables returns all tables (order unspecified).
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	return out
}

// Views returns all views (order unspecified).
func (c *Catalog) Views() []*View {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*View, 0, len(c.views))
	for _, v := range c.views {
		out = append(out, v)
	}
	return out
}

// ReferencingFKs returns, for every table, the foreign keys that
// reference the given table (used by delete-side FK enforcement).
func (c *Catalog) ReferencingFKs(refTable string) []struct {
	Table *Table
	FK    ForeignKey
} {
	c.mu.RLock()
	defer c.mu.RUnlock()
	key := norm(refTable)
	var out []struct {
		Table *Table
		FK    ForeignKey
	}
	for _, t := range c.tables {
		for _, fk := range t.ForeignKeys {
			if norm(fk.RefTable) == key {
				out = append(out, struct {
					Table *Table
					FK    ForeignKey
				}{t, fk})
			}
		}
	}
	return out
}
