package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ifdb/internal/label"
	"ifdb/internal/storage"
	"ifdb/internal/types"
)

// liveVersions returns the versions of table a new snapshot would hold,
// whatever their labels, keyed by the first column: created by a
// committed transaction and not deleted by one.
func liveVersions(t *testing.T, e *Engine, table string) map[int64]storage.TupleVersion {
	t.Helper()
	tab, ok := e.cat.Table(table)
	if !ok {
		t.Fatalf("no table %q", table)
	}
	out := map[int64]storage.TupleVersion{}
	err := tab.Heap.Scan(func(_ storage.TID, tv *storage.TupleVersion) bool {
		if _, ok := e.txns.Committed(tv.Xmin); ok && (tv.Xmax == storage.InvalidXID || e.txns.Aborted(tv.Xmax)) {
			out[tv.Row[0].Int()] = storage.TupleVersion{Label: tv.Label.Clone(), ILabel: tv.ILabel.Clone()}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCascadeAppliesWriteRule: a row an ON DELETE CASCADE reaches is
// deleted under the whole Write Rule (§4.2), like a DELETE's own target:
// a label other than the process label fails the statement, in secrecy
// and in integrity, and nothing is deleted. The cascade's lookup is
// label-exempt, so without the check a process would delete a child it
// cannot even see.
func TestCascadeAppliesWriteRule(t *testing.T) {
	for heap, using := range map[string]string{"mem": "", "disk": " USING DISK"} {
		t.Run("heap="+heap, func(t *testing.T) {
			f := newIFC(t)
			mustExec(t, f.admin, `CREATE TABLE parent (id BIGINT PRIMARY KEY)`+using)
			mustExec(t, f.admin, `CREATE TABLE child (id BIGINT PRIMARY KEY, pid BIGINT,
				FOREIGN KEY (pid) REFERENCES parent (id) ON DELETE CASCADE)`+using)

			// Secrecy: the parent is alice's at {a}; the child is public,
			// its reference to the secret parent declared (§5.2.2).
			sa := f.session(t, f.alice, f.atag)
			mustExec(t, sa, `INSERT INTO parent VALUES (1)`)
			mustExec(t, f.e.NewSession(f.alice), `INSERT INTO child VALUES (10, 1) DECLASSIFYING (alice_tag)`)
			if _, err := sa.Exec(`DELETE FROM parent WHERE id = 1`); !errors.Is(err, ErrWriteRule) {
				t.Fatalf("secrecy: cascade into a public child: %v", err)
			}

			// Integrity: the parent is written endorsed with {a}, the child
			// by an unendorsed session. The endorsed session cannot see the
			// child, so its own DELETE FROM child affects nothing.
			hi := f.e.NewSession(f.alice)
			if err := hi.Endorse(f.atag); err != nil {
				t.Fatal(err)
			}
			mustExec(t, hi, `INSERT INTO parent VALUES (2)`)
			mustExec(t, f.e.NewSession(f.alice), `INSERT INTO child VALUES (20, 2)`)
			if res := mustExec(t, hi, `DELETE FROM child`); res.Affected != 0 {
				t.Fatalf("integrity: endorsed DELETE FROM child affected %d", res.Affected)
			}
			if _, err := hi.Exec(`DELETE FROM parent WHERE id = 2`); !errors.Is(err, ErrWriteRule) {
				t.Fatalf("integrity: cascade into an unendorsed child: %v", err)
			}

			for table, want := range map[string][]int64{"parent": {1, 2}, "child": {10, 20}} {
				live := liveVersions(t, f.e, table)
				for _, id := range want {
					if _, ok := live[id]; !ok {
						t.Errorf("%s %d was deleted", table, id)
					}
				}
			}
		})
	}
}

// TestBeforeTriggerLabelStampsVersion: a new version is stamped with
// the process labels as they stand after the BEFORE triggers, for an
// INSERT and an UPDATE alike, and each target of an UPDATE meets the
// Write Rule under the labels the session holds when it is written.
func TestBeforeTriggerLabelStampsVersion(t *testing.T) {
	f := newIFC(t)
	mustExec(t, f.admin, `CREATE TABLE w (id BIGINT PRIMARY KEY, d BIGINT)`)
	// The trigger declassifies alice's tag, with the caller's (alice's)
	// authority, when the new row asks for it and the label holds it.
	if err := f.e.RegisterProc("declass", func(ps *Session, _ []types.Value) (types.Value, error) {
		if ps.TriggerContext().New[1].Int() == 1 && ps.Label().Has(f.atag) {
			return types.Null, ps.Declassify(f.atag)
		}
		return types.Null, nil
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, f.admin, `CREATE TRIGGER di BEFORE INSERT ON w EXECUTE PROCEDURE declass`)
	mustExec(t, f.admin, `CREATE TRIGGER du BEFORE UPDATE ON w EXECUTE PROCEDURE declass`)

	mustExec(t, f.session(t, f.alice, f.atag), `INSERT INTO w VALUES (1, 1)`)
	sa := f.session(t, f.alice, f.atag)
	mustExec(t, sa, `INSERT INTO w VALUES (2, 0)`)
	mustExec(t, sa, `UPDATE w SET d = 1 WHERE id = 2`)
	live := liveVersions(t, f.e, "w")
	for _, id := range []int64{1, 2} {
		if got := live[id].Label; !got.IsEmpty() {
			t.Errorf("row %d stamped %v, want {} (the label after the BEFORE trigger)", id, got)
		}
	}

	// Two targets at {a}: the first declassifies the session, so the
	// second no longer carries exactly the process label.
	sb := f.session(t, f.alice, f.atag)
	mustExec(t, sb, `INSERT INTO w VALUES (3, 0), (4, 0)`)
	if _, err := sb.Exec(`UPDATE w SET d = 1 WHERE id >= 3`); !errors.Is(err, ErrWriteRule) {
		t.Fatalf("second target after the trigger declassified: %v", err)
	}
	live = liveVersions(t, f.e, "w")
	for _, id := range []int64{3, 4} {
		if got := live[id].Label; !got.Equal(label.New(f.atag)) {
			t.Errorf("row %d is %v after the failed UPDATE, want {a}", id, got)
		}
	}
}

// TestCreateUniqueIndexRefusesDuplicates: CREATE UNIQUE INDEX over two
// live versions the session can see that share a key fails with
// ErrUnique and adds no index. Versions it cannot see — another label
// (polyinstantiation) or a deleted version — and NULL keys do not
// conflict, exactly as for an INSERT.
func TestCreateUniqueIndexRefusesDuplicates(t *testing.T) {
	for heap, using := range map[string]string{"mem": "", "disk": " USING DISK"} {
		t.Run("heap="+heap, func(t *testing.T) {
			f := newIFC(t)
			s := f.e.NewSession(f.alice)
			mustExec(t, s, `CREATE TABLE u (id BIGINT PRIMARY KEY, v BIGINT, w BIGINT)`+using)
			mustExec(t, s, `INSERT INTO u VALUES (1, 7, 1), (2, 7, 2)`)
			if _, err := s.Exec(`CREATE UNIQUE INDEX u_v ON u (v)`); !errors.Is(err, ErrUnique) {
				t.Fatalf("unique index over duplicates: %v", err)
			}
			mustExec(t, s, `INSERT INTO u VALUES (3, 7, 3)`) // no index u_v was added

			// w: 5 is alice's hidden row beside a public one, 6 was
			// updated (its old version is deleted), NULL twice.
			mustExec(t, f.session(t, f.alice, f.atag), `INSERT INTO u VALUES (10, 0, 5)`)
			mustExec(t, s, `INSERT INTO u VALUES (11, 0, 5), (12, 0, 6), (13, 0, NULL), (14, 0, NULL)`)
			mustExec(t, s, `UPDATE u SET id = 15 WHERE id = 12`)
			mustExec(t, s, `CREATE UNIQUE INDEX u_w ON u (w)`)
			if _, err := s.Exec(`INSERT INTO u VALUES (16, 0, 6)`); !errors.Is(err, ErrUnique) {
				t.Fatalf("u_w does not hold: %v", err)
			}
		})
	}
}

// TestQuickWriteRuleOnEveryWrite: over a seeded run of INSERT, UPDATE
// and DELETE on three tables chained by ON DELETE CASCADE, from sessions
// of different secrecy and integrity labels, on both heaps, every
// version a statement writes carries the writer's labels, and so does
// every version it replaces or deletes — a DELETE's target, an UPDATE's,
// or a row a cascade reaches two levels down. Tables are compared
// version by version before and after each statement.
func TestQuickWriteRuleOnEveryWrite(t *testing.T) {
	const ids, steps = 4, 500
	for heap, using := range map[string]string{"mem": "", "disk": " USING DISK"} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("heap=%s/seed=%d", heap, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				e := MustNew(Config{IFC: true})
				admin := e.NewSession(e.Admin())
				mustExec(t, admin, `CREATE TABLE a (id BIGINT PRIMARY KEY, v BIGINT)`+using)
				mustExec(t, admin, `CREATE TABLE b (id BIGINT PRIMARY KEY, aid BIGINT, v BIGINT,
					FOREIGN KEY (aid) REFERENCES a (id) ON DELETE CASCADE)`+using)
				mustExec(t, admin, `CREATE TABLE c (id BIGINT PRIMARY KEY, bid BIGINT, v BIGINT,
					FOREIGN KEY (bid) REFERENCES b (id) ON DELETE CASCADE)`+using)
				owner := e.CreatePrincipal("owner")
				sec, err := e.CreateTag(owner, "sec")
				if err != nil {
					t.Fatal(err)
				}
				integ, err := e.CreateTag(owner, "integ")
				if err != nil {
					t.Fatal(err)
				}
				// Four writers: secrecy {} or {sec}, integrity {} or {integ}.
				var writers []*Session
				for i := 0; i < 4; i++ {
					s := e.NewSession(owner)
					if i&1 != 0 {
						if err := s.AddSecrecy(sec); err != nil {
							t.Fatal(err)
						}
					}
					if i&2 != 0 {
						if err := s.Endorse(integ); err != nil {
							t.Fatal(err)
						}
					}
					writers = append(writers, s)
				}

				type version struct {
					xmax      storage.XID
					lbl, ilbl label.Label
				}
				tables := []string{"a", "b", "c"}
				snapshot := func() map[string]map[storage.TID]version {
					out := map[string]map[storage.TID]version{}
					for _, name := range tables {
						tab, _ := e.cat.Table(name)
						vs := map[storage.TID]version{}
						if err := tab.Heap.Scan(func(tid storage.TID, tv *storage.TupleVersion) bool {
							vs[tid] = version{tv.Xmax, tv.Label.Clone(), tv.ILabel.Clone()}
							return true
						}); err != nil {
							t.Fatal(err)
						}
						out[name] = vs
					}
					return out
				}

				var ok, refused, written, removed, cascaded int
				before := snapshot()
				for step := 0; step < steps; step++ {
					wi := rng.Intn(len(writers))
					w := writers[wi]
					tab := tables[rng.Intn(len(tables))]
					// A key is mostly in the writer's own range, so that a
					// parent is seldom polyinstantiated (which would spare
					// its children the cascade); a reference is anyone's.
					id, ref := wi*ids+rng.Intn(ids), rng.Intn(len(writers)*ids)
					if rng.Intn(4) == 0 {
						id = rng.Intn(len(writers) * ids)
					}
					var q string
					switch op := rng.Intn(10); {
					case op < 4 && tab == "a":
						q = fmt.Sprintf(`INSERT INTO a VALUES (%d, 0)`, id)
					case op < 4 && tab == "b":
						q = fmt.Sprintf(`INSERT INTO b VALUES (%d, %d, 0) DECLASSIFYING (sec)`, id, ref)
					case op < 4:
						q = fmt.Sprintf(`INSERT INTO c VALUES (%d, %d, 0) DECLASSIFYING (sec)`, id, ref)
					case op < 6:
						q = fmt.Sprintf(`UPDATE %s SET v = v + 1 WHERE id = %d`, tab, id)
					case op < 7:
						q = fmt.Sprintf(`UPDATE %s SET v = v + 1 WHERE id >= %d`, tab, id)
					default:
						q = fmt.Sprintf(`DELETE FROM %s WHERE id = %d`, tab, id)
					}
					// The statement runs in a transaction of its own, and the
					// versions are compared before it commits: the commit
					// label rule would otherwise abort some Write Rule
					// breaches and hide them from the comparison.
					mustExec(t, w, `BEGIN`)
					_, err := w.Exec(q)
					switch {
					case err == nil:
						ok++
					case errors.Is(err, ErrWriteRule):
						refused++
					}
					wl, wil := w.Label(), w.Integrity()
					after := snapshot()
					for _, name := range tables {
						for tid, v := range after[name] {
							old, existed := before[name][tid]
							switch {
							case !existed:
								written++
								if !v.lbl.Equal(wl) || !v.ilbl.Equal(wil) {
									t.Fatalf("step %d %q (%v): wrote %s version %v/%v as %v/%v", step, q, err, name, v.lbl, v.ilbl, wl, wil)
								}
							case v.xmax != old.xmax && v.xmax != storage.InvalidXID:
								removed++
								if name != tab {
									cascaded++
								}
								if !old.lbl.Equal(wl) || !old.ilbl.Equal(wil) {
									t.Fatalf("step %d %q (%v): replaced or deleted %s version %v/%v as %v/%v", step, q, err, name, old.lbl, old.ilbl, wl, wil)
								}
							}
						}
					}
					// An error has ended the transaction already; COMMIT may
					// also be refused by the commit label rule.
					_, _ = w.Exec(`COMMIT`)
					before = snapshot()
				}
				t.Logf("%d ok, %d refused by the Write Rule, %d versions written, %d removed, %d by a cascade", ok, refused, written, removed, cascaded)
				if ok == 0 || refused == 0 || written == 0 || removed == 0 || cascaded == 0 {
					t.Fatal("run exercised too little")
				}
			})
		}
	}
}
