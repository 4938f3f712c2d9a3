package engine

import (
	"fmt"

	"ifdb/internal/catalog"
	"ifdb/internal/exec"
	"ifdb/internal/index"
	"ifdb/internal/label"
	"ifdb/internal/sql"
	"ifdb/internal/storage"
	"ifdb/internal/txn"
	"ifdb/internal/types"
)

// target is one existing tuple selected for UPDATE/DELETE.
type target struct {
	tid storage.TID
	tv  storage.TupleVersion
}

// targets are the tuples an UPDATE or DELETE affects: the rows of the
// statement's target plan, SELECT * FROM t WHERE p (selectOf), so a
// write finds its rows exactly as a read would — MVCC, then Label
// Confinement (§4.2: tuples with other labels "are invisible to the
// update and are unaffected"), then the WHERE, by the planner's choice
// of index, polling for cancellation and counted as scanned. The scan
// is drained and closed before the caller writes anything: one that
// resumed after the statement had inserted new versions would meet its
// own output. The targets are kept in qc's buffer, which the frame
// keeps from statement to statement.
func (s *Session) targets(ent *planEntry, qc *qctx) ([]target, error) {
	it, err := ent.p.Open(s.planRuntime(qc))
	if err != nil {
		return nil, err
	}
	defer it.Close()
	qc.targets = qc.targets[:0]
	for {
		r, err := it.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			return qc.targets, nil
		}
		qc.targets = append(qc.targets, target{tid: r.TID, tv: storage.TupleVersion{Row: r.Vals, Label: r.Lbl, ILabel: r.ILbl}})
	}
}

// writableTable resolves the table a write names; a view is refused.
func (s *Session) writableTable(name string) (*catalog.Table, error) {
	if t, ok := s.eng.cat.Table(name); ok {
		return t, nil
	}
	if _, isView := s.eng.cat.View(name); isView {
		return nil, ErrReadOnlyView
	}
	return nil, fmt.Errorf("engine: no table %q", name)
}

// ---------------------------------------------------------------------------
// INSERT

// executeInsert handles INSERT ... VALUES and INSERT ... SELECT.
func (s *Session) executeInsert(ins *sql.InsertStmt, qc *qctx) (int, error) {
	t, err := s.writableTable(ins.Table)
	if err != nil {
		return 0, err
	}

	declTags, err := s.resolveDeclassifying(ins.Declassifying)
	if err != nil {
		return 0, err
	}

	// Map statement columns to table ordinals. Without a column list a
	// row's values are the table's columns in order, and colIdx stays nil.
	var colIdx []int
	width := len(t.Columns)
	if ins.Columns != nil {
		colIdx = make([]int, 0, len(ins.Columns))
		for _, name := range ins.Columns {
			ci, ok := t.ColIndex(name)
			if !ok {
				return 0, fmt.Errorf("engine: no column %q in table %q", name, t.Name)
			}
			colIdx = append(colIdx, ci)
		}
		width = len(colIdx)
	}

	var rows [][]types.Value
	var row1 [1][]types.Value // rows' storage for a one-row VALUES
	if ins.Select != nil {
		res, err := s.executeSelect(ins.Select, qc)
		if err != nil {
			return 0, err
		}
		rows = res.Rows
	} else {
		env := s.newEnv(nil, qc)
		rows = row1[:0]
		for _, exprRow := range ins.Rows {
			vals := make([]types.Value, len(exprRow))
			for i, e := range exprRow {
				v, err := exec.Eval(e, env)
				if err != nil {
					return 0, err
				}
				vals[i] = v
			}
			rows = append(rows, vals)
		}
	}

	n := 0
	for _, vals := range rows {
		if len(vals) != width {
			return n, fmt.Errorf("engine: INSERT has %d values for %d columns", len(vals), width)
		}
		// The values of a VALUES row in table order are the row: they
		// were made above and nobody else holds them. A SELECT's rows are
		// not ours to coerce in place, and a column list leaves the other
		// columns to their defaults.
		row := vals
		switch {
		case colIdx != nil:
			row = make([]types.Value, len(t.Columns))
			assigned := make([]bool, len(t.Columns))
			for i, ci := range colIdx {
				row[ci] = vals[i]
				assigned[ci] = true
			}
			for i, col := range t.Columns {
				if !assigned[i] && col.Default != nil {
					v, err := exec.Eval(col.Default, s.newEnv(nil, qc))
					if err != nil {
						return n, err
					}
					row[i] = v
				}
			}
		case ins.Select != nil:
			row = append([]types.Value(nil), vals...)
		}
		for i, col := range t.Columns {
			v, err := row[i].Coerce(col.Kind)
			if err != nil {
				return n, fmt.Errorf("engine: column %q: %w", col.Name, err)
			}
			row[i] = v
		}
		if err := s.putVersion(t, row, nil, declTags, qc); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// resolveDeclassifying maps DECLASSIFYING tag names to a label and
// verifies the session's principal holds authority for each — an
// explicit declassification statement is only honored when backed by
// authority (§5.2.2).
func (s *Session) resolveDeclassifying(names []string) (label.Label, error) {
	if len(names) == 0 {
		return nil, nil
	}
	if !s.eng.cfg.IFC {
		return nil, nil
	}
	decl, err := s.eng.resolveTagNames(names)
	if err != nil {
		return nil, err
	}
	for _, tg := range decl {
		if !s.eng.auth.HasAuthority(s.principal, tg) {
			name, _ := s.eng.TagName(tg)
			return nil, fmt.Errorf("%w: DECLASSIFYING(%s)", ErrFKAuthority, name)
		}
	}
	return decl, nil
}

// putVersion writes row as a new version of t: an INSERT when old is
// nil, else the UPDATE of old, which the caller has passed through the
// Write Rule. In order: shard ownership (an UPDATE that rewrites the
// shard key is vetted like an inserted row), BEFORE triggers, NOT NULL,
// CHECK and label constraints; then, under t.UniqueMu so that two
// writers cannot slip one key past each other, the unique check, the
// old version's delete and the heap insert with its index entries; then
// the log records, the Foreign Key Rule (§5.2.2) — for an UPDATE only
// on the keys whose columns changed — the referencers of a changed key,
// and AFTER triggers. The version is stamped with exactly the process
// labels (§4.2) as they stand after the BEFORE triggers.
func (s *Session) putVersion(t *catalog.Table, row []types.Value, old *target, declTags label.Label, qc *qctx) error {
	event, exclude := "INSERT", storage.InvalidTID
	var oldRow []types.Value
	var oldLabel label.Label
	if old != nil {
		event, exclude, oldRow, oldLabel = "UPDATE", old.tid, old.tv.Row, old.tv.Label
	}
	if err := s.checkShardOwnership(t, row); err != nil {
		return err
	}
	if err := s.fireTriggers(t, "BEFORE", event, oldRow, row, oldLabel, qc); err != nil {
		return err
	}
	lw, liw := s.writeLabel(), s.writeILabel()
	if err := s.checkConstraints(t, row, lw, qc); err != nil {
		return err
	}

	var tid storage.TID
	t.UniqueMu.Lock()
	err := s.checkUnique(t, row, exclude)
	if err == nil && old != nil {
		err = s.stmtTx.Delete(t.Heap, old.tid, old.tv.Label, old.tv.ILabel)
	}
	if err == nil {
		tid, err = t.Heap.Insert(storage.TupleVersion{Row: row, Label: lw, ILabel: liw, Xmin: s.stmtTx.XID()})
	}
	if err == nil {
		t.IndexVersion(tid, row)
	}
	t.UniqueMu.Unlock()
	if err != nil {
		return err
	}
	s.stmtTx.RecordInsert(t.Heap, tid, lw, liw)
	if old != nil {
		if err := s.logDelete(t, old.tid); err != nil {
			return err
		}
	}
	if err := s.logInsert(t, tid, lw, liw, row); err != nil {
		return err
	}

	for i := range t.ForeignKeys {
		fk := &t.ForeignKeys[i]
		if old != nil && !colsChanged(fk.Cols, oldRow, row) {
			continue
		}
		if err := s.checkForeignKeyInsert(t, fk, row, lw, declTags); err != nil {
			return err
		}
	}
	if old != nil {
		if err := s.checkReferencersOnKeyChange(t, oldRow, row); err != nil {
			return err
		}
	}
	return s.fireTriggers(t, "AFTER", event, oldRow, row, lw, qc)
}

// colsChanged reports whether rows a and b differ in any of cols.
func colsChanged(cols []int, a, b []types.Value) bool {
	for _, c := range cols {
		if !a[c].Equal(b[c]) {
			return true
		}
	}
	return false
}

// writeRule is the Write Rule (§4.2) for a tuple a statement replaces
// or deletes — an UPDATE's or DELETE's target, or a cascaded row: it
// must carry exactly the process label and integrity label as they
// stand at this write.
func (s *Session) writeRule(tv *storage.TupleVersion) error {
	if !s.eng.cfg.IFC {
		return nil
	}
	if !tv.Label.Equal(s.plabel) {
		return fmt.Errorf("%w: tuple label %v, process label %v", ErrWriteRule, tv.Label, s.plabel)
	}
	if !tv.ILabel.Equal(s.pilabel) {
		return fmt.Errorf("%w: tuple integrity %v, process integrity %v", ErrWriteRule, tv.ILabel, s.pilabel)
	}
	return nil
}

// checkUnique probes every unique index for a tuple that conflicts with
// row (uniqueConflict), skipping the version at exclude: the one an
// UPDATE replaces.
func (s *Session) checkUnique(t *catalog.Table, row []types.Value, exclude storage.TID) error {
	for _, ix := range t.Indexes {
		if !ix.Unique {
			continue
		}
		if err := s.uniqueConflict(t, ix, ix.Key(row), exclude); err != nil {
			return err
		}
	}
	return nil
}

// uniqueConflict probes ix for a version other than exclude under key
// that is *visible* to the writing process. A conflict with a tuple the
// process cannot see is permitted — polyinstantiation (§5.2.1) — since
// rejecting it would leak the hidden tuple's existence. A key holding a
// NULL never conflicts (SQL).
//
// The probe judges every version under the key anyway, so it also
// prunes the entries of those no snapshot sees any more (txn.Manager.Dead,
// vacuum's rule), which would otherwise lengthen a hot key's chain with
// every UPDATE until vacuum. The heap versions stay for Engine.Vacuum,
// whose Delete of a pruned entry finds nothing. Like vacuum, pruning is
// not logged.
func (s *Session) uniqueConflict(t *catalog.Table, ix *catalog.Index, key index.Key, exclude storage.TID) error {
	for _, v := range key {
		if v.IsNull() {
			return nil
		}
	}
	var conflict error
	var horizon uint64 // read at the first version judged; no snapshot is 0
	var pruneBuf [4]storage.TID
	prune := pruneBuf[:0]
	ix.Tree.AscendEqual(key, func(tid storage.TID) bool {
		if tid == exclude {
			return true
		}
		tv, ok := t.Heap.Get(tid)
		if !ok {
			return true
		}
		if !s.versionLiveForUnique(&tv) {
			if horizon == 0 {
				horizon = s.eng.txns.OldestSnapshot()
			}
			if s.eng.txns.Dead(&tv, horizon) {
				prune = append(prune, tid)
			}
			return true
		}
		// Polyinstantiation: only *visible* tuples conflict.
		if !s.labelVisible(tv.Label) {
			return true
		}
		// If the conflicting version belongs to a still-running
		// transaction (its insert uncommitted, or a deleter in
		// flight), the outcome depends on that transaction:
		// PostgreSQL would block on the index lock; we surface a
		// retryable serialization failure instead of a hard
		// uniqueness error.
		m := s.eng.txns
		self := s.stmtTx.XID()
		if _, committed := m.Committed(tv.Xmin); !committed && tv.Xmin != self {
			conflict = fmt.Errorf("%w: concurrent insert into index %q", txn.ErrSerialization, ix.Name)
			return false
		}
		// A version committed after our snapshot is a write-write
		// race (the usual shape: another update of the row we are
		// updating): first-committer-wins, we retry.
		if s.stmtTx.CommittedAfterSnapshot(tv.Xmin) {
			conflict = fmt.Errorf("%w: index %q updated since snapshot", txn.ErrSerialization, ix.Name)
			return false
		}
		if tv.Xmax != storage.InvalidXID && tv.Xmax != self {
			if _, committed := m.Committed(tv.Xmax); !committed && !m.Aborted(tv.Xmax) {
				conflict = fmt.Errorf("%w: concurrent delete under index %q", txn.ErrSerialization, ix.Name)
				return false
			}
		}
		conflict = fmt.Errorf("%w: index %q", ErrUnique, ix.Name)
		return false
	})
	for _, tid := range prune {
		ix.Tree.Delete(key, tid)
	}
	return conflict
}

// versionLiveForUnique decides whether a version still occupies its
// key for uniqueness purposes: aborted inserts don't, versions deleted
// by a committed transaction don't, but versions deleted by an
// in-flight *other* transaction still do (if that transaction aborts,
// the tuple lives on).
func (s *Session) versionLiveForUnique(tv *storage.TupleVersion) bool {
	m := s.eng.txns
	if m.Aborted(tv.Xmin) {
		return false
	}
	// An in-progress insert by another transaction: treat as live
	// (conservative — PostgreSQL would block on the index lock).
	if tv.Xmax == storage.InvalidXID {
		return true
	}
	if tv.Xmax == s.stmtTx.XID() {
		return false // we deleted it ourselves
	}
	_, committed := m.Committed(tv.Xmax)
	return !committed // deleter aborted, or still in progress: conservatively live
}

// checkConstraints enforces NOT NULL, CHECK (a NULL result passes) and
// LABEL EXACTLY / LABEL CONTAINS (§5.2.4) on a version about to be
// written at label lw. A label constraint's expressions evaluate over
// the row to tag ids.
func (s *Session) checkConstraints(t *catalog.Table, row []types.Value, lw label.Label, qc *qctx) error {
	for i, col := range t.Columns {
		if col.NotNull && row[i].IsNull() {
			return fmt.Errorf("%w: column %q", ErrNotNull, col.Name)
		}
	}
	if len(t.Checks) == 0 && (len(t.LabelConstraints) == 0 || !s.eng.cfg.IFC) {
		return nil
	}
	schema := make(exec.Schema, len(t.Columns))
	for i, c := range t.Columns {
		schema[i] = exec.ColMeta{Table: t.Name, Name: c.Name}
	}
	env := s.newEnv(schema, qc)
	env.Row = row
	for _, ck := range t.Checks {
		v, err := exec.Eval(ck.Expr, env)
		if err != nil {
			return err
		}
		if !v.IsNull() && !v.Truthy() {
			return fmt.Errorf("%w: %q", ErrCheck, ck.Name)
		}
	}
	if !s.eng.cfg.IFC {
		return nil
	}
	env.RowLabel = lw
	for _, lc := range t.LabelConstraints {
		var want []label.Tag
		for _, e := range lc.Exprs {
			v, err := exec.Eval(e, env)
			if err != nil {
				return err
			}
			if v.IsNull() {
				continue
			}
			if v.Kind() != types.KindInt {
				return fmt.Errorf("%w: %q: tag expression must be an integer", ErrLabelConstraint, lc.Name)
			}
			want = append(want, label.Tag(uint64(v.Int())))
		}
		wantLabel := label.New(want...)
		if lc.Exact {
			if !lw.Equal(wantLabel) {
				return fmt.Errorf("%w: %q requires label %v, tuple has %v", ErrLabelConstraint, lc.Name, wantLabel, lw)
			}
		} else if !wantLabel.SubsetOf(lw) {
			return fmt.Errorf("%w: %q requires label containing %v, tuple has %v", ErrLabelConstraint, lc.Name, wantLabel, lw)
		}
	}
	return nil
}

// checkForeignKeyInsert enforces referential integrity under the
// Foreign Key Rule (§5.2.2): the inserter must hold authority for, and
// explicitly declare, every tag in the symmetric difference of the two
// tuples' labels. Referenced-tuple lookup is exempt from label
// confinement — the declaration is precisely what vouches for that
// read.
func (s *Session) checkForeignKeyInsert(t *catalog.Table, fk *catalog.ForeignKey, row []types.Value, lw label.Label, declTags label.Label) error {
	key := make([]types.Value, len(fk.Cols))
	for i, c := range fk.Cols {
		key[i] = row[c]
		if key[i].IsNull() {
			return nil // SQL: NULL FK values are not checked
		}
	}
	ref, ok := s.eng.cat.Table(fk.RefTable)
	if !ok {
		return fmt.Errorf("engine: fk %q references missing table %q", fk.Name, fk.RefTable)
	}

	var candidates []storage.TupleVersion
	err := s.lookupByColsTID(ref, fk.RefCols, key, func(_ storage.TID, tv *storage.TupleVersion) {
		candidates = append(candidates, *tv)
	})
	if err != nil {
		return err
	}
	if len(candidates) == 0 {
		return fmt.Errorf("%w: %q: no row in %q matches", ErrForeignKey, fk.Name, fk.RefTable)
	}
	if !s.eng.cfg.IFC {
		return nil
	}

	// Accept if any (possibly polyinstantiated) candidate's label
	// difference is fully declared.
	var firstShortfall label.Label
	for _, cand := range candidates {
		diff := lw.SymmetricDiff(cand.Label)
		ok := true
		var missing label.Label
		for _, tg := range diff {
			if !s.eng.hier.Covers(declTags, tg) {
				ok = false
				missing = append(missing, tg)
			}
		}
		if ok {
			return nil
		}
		if firstShortfall == nil {
			firstShortfall = missing
		}
	}
	return fmt.Errorf("%w: %q requires DECLASSIFYING covering %v", ErrFKAuthority, fk.Name, firstShortfall)
}

// ---------------------------------------------------------------------------
// UPDATE

// executeUpdate rewrites matching tuples: each target passes the Write
// Rule (§4.2) — a visible tuple with a lower label fails the statement —
// and its SET values are evaluated over it and coerced; putVersion
// writes the new version.
func (s *Session) executeUpdate(up *sql.UpdateStmt, qc *qctx) (int, error) {
	t, err := s.writableTable(up.Table)
	if err != nil {
		return 0, err
	}
	declTags, err := s.resolveDeclassifying(up.Declassifying)
	if err != nil {
		return 0, err
	}

	ent, err := s.planFor(up, qc.strip)
	if err != nil {
		return 0, err
	}
	targets, err := s.targets(ent, qc)
	if err != nil {
		return 0, err
	}

	setIdx := ent.setIdx
	env := s.newEnv(ent.p.Schema(), qc)
	n := 0
	for i := range targets {
		tg := &targets[i]
		if err := s.writeRule(&tg.tv); err != nil {
			return n, err
		}
		newRow := append([]types.Value(nil), tg.tv.Row...)
		env.Row, env.RowLabel, env.RowILabel = tg.tv.Row, tg.tv.Label, tg.tv.ILabel
		for j, sc := range up.Set {
			v, err := exec.Eval(sc.Value, env)
			if err != nil {
				return n, err
			}
			cv, err := v.Coerce(t.Columns[setIdx[j]].Kind)
			if err != nil {
				return n, fmt.Errorf("engine: column %q: %w", sc.Column, err)
			}
			newRow[setIdx[j]] = cv
		}
		if err := s.putVersion(t, newRow, tg, declTags, qc); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// checkReferencersOnKeyChange refuses an UPDATE that changes a key
// other tables still reference, as a delete of the old key would be.
func (s *Session) checkReferencersOnKeyChange(t *catalog.Table, oldRow, newRow []types.Value) error {
	for _, rf := range s.eng.cat.ReferencingFKs(t.Name) {
		if !colsChanged(rf.FK.RefCols, oldRow, newRow) {
			continue
		}
		key := make([]types.Value, len(rf.FK.RefCols))
		for i, c := range rf.FK.RefCols {
			key[i] = oldRow[c]
		}
		found := false
		if err := s.lookupByColsTID(rf.Table, rf.FK.Cols, key, func(storage.TID, *storage.TupleVersion) { found = true }); err != nil {
			return err
		}
		if found {
			return fmt.Errorf("%w: %q still referenced by %q", ErrForeignKey, t.Name, rf.Table.Name)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// DELETE

// executeDelete removes matching tuples (marking versions deleted)
// through deleteOne.
func (s *Session) executeDelete(del *sql.DeleteStmt, qc *qctx) (int, error) {
	t, err := s.writableTable(del.Table)
	if err != nil {
		return 0, err
	}
	ent, err := s.planFor(del, qc.strip)
	if err != nil {
		return 0, err
	}
	targets, err := s.targets(ent, qc)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, tg := range targets {
		if err := s.deleteOne(t, tg, qc); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// deleteOne deletes one tuple, a DELETE's target or a cascaded row:
// the Write Rule, BEFORE triggers, the referencing rows — label-exempt,
// the channel having been vouched for by the Foreign Key Rule at insert
// time (§5.2.2), and cascaded into or refused — the version's delete
// and its log record, and AFTER triggers.
func (s *Session) deleteOne(t *catalog.Table, tg target, qc *qctx) error {
	if err := s.writeRule(&tg.tv); err != nil {
		return err
	}
	if err := s.fireTriggers(t, "BEFORE", "DELETE", tg.tv.Row, nil, tg.tv.Label, qc); err != nil {
		return err
	}
	// Referential integrity on the delete side.
	for _, rf := range s.eng.cat.ReferencingFKs(t.Name) {
		key := make([]types.Value, len(rf.FK.RefCols))
		skip := false
		for i, c := range rf.FK.RefCols {
			key[i] = tg.tv.Row[c]
			if key[i].IsNull() {
				skip = true
			}
		}
		if skip {
			continue
		}
		// Another (polyinstantiated) version of this key may remain;
		// if so, referencing rows are still satisfied.
		remaining := 0
		if err := s.lookupByColsTID(t, rf.FK.RefCols, key, func(storage.TID, *storage.TupleVersion) { remaining++ }); err != nil {
			return err
		}
		if remaining > 1 {
			continue
		}
		var refs []target
		err := s.lookupByColsTID(rf.Table, rf.FK.Cols, key, func(tid storage.TID, tv *storage.TupleVersion) {
			refs = append(refs, target{tid: tid, tv: *tv})
		})
		if err != nil {
			return err
		}
		if len(refs) == 0 {
			continue
		}
		if rf.FK.OnDelete == "CASCADE" {
			for _, r := range refs {
				if err := s.deleteOne(rf.Table, r, qc); err != nil {
					return err
				}
			}
			continue
		}
		return fmt.Errorf("%w: %q is referenced by %q (%s)", ErrForeignKey, t.Name, rf.Table.Name, rf.FK.Name)
	}
	if err := s.stmtTx.Delete(t.Heap, tg.tid, tg.tv.Label, tg.tv.ILabel); err != nil {
		return err
	}
	if err := s.logDelete(t, tg.tid); err != nil {
		return err
	}
	return s.fireTriggers(t, "AFTER", "DELETE", tg.tv.Row, nil, tg.tv.Label, qc)
}

// lookupByColsTID finds the MVCC-visible versions of ref with the
// given column values, and their TIDs, bypassing Label Confinement: its
// callers are the constraint internals, whose channels are vouched for
// explicitly.
func (s *Session) lookupByColsTID(ref *catalog.Table, cols []int, key []types.Value, fn func(tid storage.TID, tv *storage.TupleVersion)) error {
	tx := s.stmtTx
	consider := func(tid storage.TID, tv *storage.TupleVersion) {
		if !tx.Visible(tv.Xmin, tv.Xmax) {
			return
		}
		for i, c := range cols {
			if !tv.Row[c].Equal(key[i]) {
				return
			}
		}
		fn(tid, tv)
	}
	// Prefer an index whose prefix covers cols in order.
	for _, ix := range ref.Indexes {
		if len(ix.Cols) < len(cols) {
			continue
		}
		match := true
		for i, c := range cols {
			if ix.Cols[i] != c {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		ix.Tree.AscendPrefix(key, func(_ index.Key, tid storage.TID) bool {
			if tv, ok := ref.Heap.Get(tid); ok {
				consider(tid, &tv)
			}
			return true
		})
		return nil
	}
	return ref.Heap.Scan(func(tid storage.TID, tv *storage.TupleVersion) bool {
		consider(tid, tv)
		return true
	})
}

// ---------------------------------------------------------------------------
// Triggers

// TriggerCtx is passed to trigger procedures through the session: the
// engine stores it on the session for the duration of the call.
type TriggerCtx struct {
	Table    string
	Event    string // INSERT, UPDATE, DELETE
	Timing   string // BEFORE, AFTER
	Old, New []types.Value
	RowLabel label.Label
}

// trigCtx is the active trigger context (nil outside trigger calls).
func (s *Session) TriggerContext() *TriggerCtx { return s.trigCtx }

// fireTriggers runs the triggers registered for (timing, event).
// Deferred triggers queue on the transaction and run at commit with
// the label the session has *now* — the label of the originating query
// — not the commit label (§5.2.3).
func (s *Session) fireTriggers(t *catalog.Table, timing, event string, oldRow, newRow []types.Value, rowLabel label.Label, qc *qctx) error {
	for _, tr := range t.Triggers {
		if tr.Timing != timing || tr.Event != event {
			continue
		}
		ctx := &TriggerCtx{
			Table: t.Name, Event: event, Timing: timing,
			Old: oldRow, New: newRow, RowLabel: rowLabel,
		}
		if tr.Deferred && timing == "AFTER" {
			s.queueDeferredTrigger(tr, ctx)
			continue
		}
		if err := s.runTrigger(tr, ctx); err != nil {
			return fmt.Errorf("engine: trigger %q: %w", tr.Name, err)
		}
	}
	return nil
}

func (s *Session) runTrigger(tr *catalog.Trigger, ctx *TriggerCtx) error {
	p, ok := s.eng.LookupProc(tr.Proc)
	if !ok {
		return fmt.Errorf("procedure %q missing", tr.Proc)
	}
	savedCtx := s.trigCtx
	s.trigCtx = ctx
	defer func() { s.trigCtx = savedCtx }()
	run := func() error {
		_, err := p.Fn(s, nil)
		return err
	}
	if p.Closure != nil {
		// Stored authority closure: runs with the bound authority
		// (§4.3, §5.2.3).
		return s.runAs(p.Closure.Bound, run)
	}
	return run()
}

// queueDeferredTrigger captures the session label at queue time so the
// trigger observes the originating query's label at commit (§5.2.3).
func (s *Session) queueDeferredTrigger(tr *catalog.Trigger, ctx *TriggerCtx) {
	queuedLabel := s.plabel.Clone()
	queuedPrincipal := s.principal
	s.stmtTx.Defer(func() error {
		savedLabel := s.plabel
		savedPrincipal := s.principal
		s.plabel = queuedLabel
		s.principal = queuedPrincipal
		defer func() {
			s.plabel = savedLabel
			s.principal = savedPrincipal
		}()
		if err := s.runTrigger(tr, ctx); err != nil {
			return fmt.Errorf("engine: deferred trigger %q: %w", tr.Name, err)
		}
		return nil
	})
}
