package engine

import (
	"fmt"
	"strings"

	"ifdb/internal/catalog"
	"ifdb/internal/index"
	"ifdb/internal/sql"
	"ifdb/internal/storage"
)

// executeCreateTable builds a table from the AST: columns, primary
// key, unique and foreign key constraints, and label constraints.
func (s *Session) executeCreateTable(ct *sql.CreateTableStmt) error {
	if _, exists := s.eng.cat.Table(ct.Name); exists {
		if ct.IfNotExists || s.eng.replaying() {
			// During recovery a table can already exist when a DDL
			// record overlaps the checkpoint snapshot; replay skips it.
			return nil
		}
		return fmt.Errorf("engine: table %q already exists", ct.Name)
	}
	t := &catalog.Table{Name: strings.ToLower(ct.Name), OnDisk: ct.OnDisk}
	heap, err := s.eng.newHeap(ct.Name, ct.OnDisk)
	if err != nil {
		return err
	}
	t.Heap = heap

	var pkCols []string
	var uniqueSingles []string
	for _, cd := range ct.Columns {
		t.Columns = append(t.Columns, catalog.Column{
			Name:    cd.Name,
			Kind:    cd.Type,
			NotNull: cd.NotNull,
			Default: cd.Default,
		})
		if cd.PrimaryKey {
			if pkCols != nil {
				return fmt.Errorf("engine: multiple primary keys for %q", ct.Name)
			}
			pkCols = []string{cd.Name}
		}
		if cd.Unique {
			uniqueSingles = append(uniqueSingles, cd.Name)
		}
		if cd.RefTable != "" {
			refCol := cd.RefColumn
			cons := sql.TableConstraint{
				Kind:       "FOREIGN KEY",
				Columns:    []string{cd.Name},
				RefTable:   cd.RefTable,
				RefColumns: []string{refCol},
				OnDelete:   "RESTRICT",
			}
			ct.Constraints = append(ct.Constraints, cons)
		}
	}

	resolveCols := func(names []string) ([]int, error) {
		out := make([]int, len(names))
		for i, n := range names {
			ci, ok := t.ColIndex(strings.ToLower(n))
			if !ok {
				return nil, fmt.Errorf("engine: unknown column %q in constraint on %q", n, ct.Name)
			}
			out[i] = ci
		}
		return out, nil
	}

	addUnique := func(name string, cols []int, primary bool) {
		ix := &catalog.Index{
			Name:   name,
			Cols:   cols,
			Unique: true,
			Tree:   index.New(),
		}
		t.Indexes = append(t.Indexes, ix)
		if primary {
			t.Primary = ix
		}
	}

	for _, cons := range ct.Constraints {
		switch cons.Kind {
		case "PRIMARY KEY":
			if pkCols != nil {
				return fmt.Errorf("engine: multiple primary keys for %q", ct.Name)
			}
			pkCols = cons.Columns
		case "UNIQUE":
			cols, err := resolveCols(cons.Columns)
			if err != nil {
				return err
			}
			name := cons.Name
			if name == "" {
				name = fmt.Sprintf("%s_unique_%d", t.Name, len(t.Indexes))
			}
			addUnique(name, cols, false)
		case "FOREIGN KEY":
			cols, err := resolveCols(cons.Columns)
			if err != nil {
				return err
			}
			ref, ok := s.eng.cat.Table(cons.RefTable)
			if !ok {
				return fmt.Errorf("engine: foreign key on %q references unknown table %q", ct.Name, cons.RefTable)
			}
			refNames := cons.RefColumns
			if len(refNames) == 1 && refNames[0] == "" {
				// Inline REFERENCES without a column: use the primary key.
				if ref.Primary == nil || len(ref.Primary.Cols) != 1 {
					return fmt.Errorf("engine: REFERENCES %s needs an explicit column", cons.RefTable)
				}
				refNames = []string{ref.Columns[ref.Primary.Cols[0]].Name}
			}
			refCols := make([]int, len(refNames))
			for i, n := range refNames {
				ci, ok := ref.ColIndex(strings.ToLower(n))
				if !ok {
					return fmt.Errorf("engine: foreign key references unknown column %s.%s", cons.RefTable, n)
				}
				refCols[i] = ci
			}
			name := cons.Name
			if name == "" {
				name = fmt.Sprintf("%s_fk_%d", t.Name, len(t.ForeignKeys))
			}
			t.ForeignKeys = append(t.ForeignKeys, catalog.ForeignKey{
				Name:     name,
				Cols:     cols,
				RefTable: strings.ToLower(cons.RefTable),
				RefCols:  refCols,
				OnDelete: cons.OnDelete,
			})
		case "LABEL EXACTLY", "LABEL CONTAINS":
			name := cons.Name
			if name == "" {
				name = fmt.Sprintf("%s_label_%d", t.Name, len(t.LabelConstraints))
			}
			t.LabelConstraints = append(t.LabelConstraints, catalog.LabelConstraint{
				Name:  name,
				Exact: cons.Kind == "LABEL EXACTLY",
				Exprs: cons.LabelExprs,
			})
		case "CHECK":
			name := cons.Name
			if name == "" {
				name = fmt.Sprintf("%s_check_%d", t.Name, len(t.Checks))
			}
			t.Checks = append(t.Checks, catalog.CheckConstraint{Name: name, Expr: cons.Check})
		default:
			return fmt.Errorf("engine: unsupported constraint kind %q", cons.Kind)
		}
	}

	if pkCols != nil {
		cols, err := resolveCols(pkCols)
		if err != nil {
			return err
		}
		for _, ci := range cols {
			t.Columns[ci].NotNull = true
		}
		addUnique(t.Name+"_pkey", cols, true)
	}
	for _, cn := range uniqueSingles {
		cols, err := resolveCols([]string{cn})
		if err != nil {
			return err
		}
		addUnique(fmt.Sprintf("%s_%s_key", t.Name, cn), cols, false)
	}
	if s.eng.replaying() && len(t.Indexes) > 0 {
		// Recovery reopens USING DISK heap files that already hold
		// flushed versions; their index entries must be rebuilt here —
		// WAL replay only indexes versions it places itself.
		err := t.Heap.Scan(func(tid storage.TID, tv *storage.TupleVersion) bool {
			t.IndexVersion(tid, tv.Row)
			return true
		})
		if err != nil {
			return fmt.Errorf("engine: rebuild indexes of %q: %w", t.Name, err)
		}
	}
	s.eng.invalidatePlans()
	return s.eng.cat.AddTable(t)
}

// executeCreateIndex builds a secondary index and backfills it from
// all existing tuple versions (index entries are per-version; readers
// filter by visibility, so backfilling everything is correct).
func (s *Session) executeCreateIndex(ci *sql.CreateIndexStmt) error {
	t, ok := s.eng.cat.Table(ci.Table)
	if !ok {
		return fmt.Errorf("engine: no table %q", ci.Table)
	}
	if s.eng.replaying() {
		for _, ix := range t.Indexes {
			if ix.Name == ci.Name {
				return nil // snapshot/WAL overlap: index already rebuilt
			}
		}
	}
	cols := make([]int, len(ci.Columns))
	for i, n := range ci.Columns {
		c, ok := t.ColIndex(strings.ToLower(n))
		if !ok {
			return fmt.Errorf("engine: unknown column %q", n)
		}
		cols[i] = c
	}
	ix := &catalog.Index{Name: ci.Name, Cols: cols, Unique: ci.Unique, Tree: index.New()}
	// A unique index is refused over two live versions the creating
	// session can see that share a key, judged as an INSERT's unique
	// check judges them; replay rebuilds an index that was accepted.
	type entry struct {
		tid storage.TID
		key index.Key
	}
	var probe []entry
	unique := ci.Unique && !s.eng.replaying()
	err := t.Heap.Scan(func(tid storage.TID, tv *storage.TupleVersion) bool {
		key := ix.Key(tv.Row)
		ix.Tree.Insert(key, tid)
		if unique && s.versionLiveForUnique(tv) && s.labelVisible(tv.Label) {
			probe = append(probe, entry{tid, key})
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("engine: backfill index %q: %w", ci.Name, err)
	}
	for _, p := range probe {
		if err := s.uniqueConflict(t, ix, p.key, p.tid); err != nil {
			return err
		}
	}
	t.Indexes = append(t.Indexes, ix)
	s.eng.invalidatePlans()
	return nil
}

// executeCreateView registers a view. For a declassifying view the
// creating session's principal must hold authority for every tag being
// bound — a view can never declassify more than its creator could
// (paper §4.3).
func (s *Session) executeCreateView(cv *sql.CreateViewStmt) error {
	v := &catalog.View{
		Name:    strings.ToLower(cv.Name),
		Columns: cv.Columns,
		Select:  cv.Select,
		Owner:   s.principal,
	}
	if len(cv.Declassifying) > 0 {
		if !s.eng.cfg.IFC {
			return fmt.Errorf("engine: DECLASSIFYING views require IFC mode")
		}
		decl, err := s.eng.resolveTagNames(cv.Declassifying)
		if err != nil {
			return err
		}
		for _, t := range decl {
			// Recovery replays a view whose authority was verified at
			// original creation time (and may since have been revoked —
			// revocation does not retract existing views).
			if !s.eng.replaying() && !s.eng.auth.HasAuthority(s.principal, t) {
				name, _ := s.eng.TagName(t)
				return fmt.Errorf("%w: creating view %q requires authority for tag %q", ErrAuthority, cv.Name, name)
			}
		}
		v.Declassify = decl
	}
	if s.eng.replaying() {
		if _, exists := s.eng.cat.View(v.Name); exists {
			return nil
		}
	}
	s.eng.invalidatePlans()
	return s.eng.cat.AddView(v)
}

// executeCreateTrigger attaches a registered stored procedure to a
// table event. If the procedure is a stored authority closure, the
// trigger will run with the closure's authority (§5.2.3).
func (s *Session) executeCreateTrigger(tr *sql.CreateTriggerStmt) error {
	t, ok := s.eng.cat.Table(tr.Table)
	if !ok {
		return fmt.Errorf("engine: no table %q", tr.Table)
	}
	if _, ok := s.eng.LookupProc(tr.Proc); !ok && !s.eng.replaying() {
		// During recovery stored procedures are not registered yet
		// (applications re-register them after Open); the trigger is
		// restored by name and resolves at fire time.
		return fmt.Errorf("engine: no procedure %q for trigger %q", tr.Proc, tr.Name)
	}
	for _, existing := range t.Triggers {
		if existing.Name == tr.Name {
			if s.eng.replaying() {
				return nil
			}
			return fmt.Errorf("engine: trigger %q already exists on %q", tr.Name, tr.Table)
		}
	}
	t.Triggers = append(t.Triggers, &catalog.Trigger{
		Name:     tr.Name,
		Timing:   tr.Timing,
		Event:    tr.Event,
		Proc:     tr.Proc,
		Deferred: tr.Deferred,
	})
	return nil
}
