package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ifdb/internal/authority"
	"ifdb/internal/label"
	"ifdb/internal/txn"
	"ifdb/internal/types"
)

// ifcFixture builds an IFC engine with two users and a labeled table.
type ifcFixture struct {
	e          *Engine
	alice, bob authority.Principal
	atag, btag label.Tag
	admin      *Session
}

func newIFC(t *testing.T) *ifcFixture {
	t.Helper()
	e := MustNew(Config{IFC: true})
	f := &ifcFixture{e: e}
	f.admin = e.NewSession(e.Admin())
	mustExec(t, f.admin, `CREATE TABLE records (
		id BIGINT PRIMARY KEY,
		owner TEXT,
		body TEXT
	)`)
	f.alice = e.CreatePrincipal("alice")
	f.bob = e.CreatePrincipal("bob")
	var err error
	if f.atag, err = e.CreateTag(f.alice, "alice_tag"); err != nil {
		t.Fatal(err)
	}
	if f.btag, err = e.CreateTag(f.bob, "bob_tag"); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *ifcFixture) session(t *testing.T, p authority.Principal, tags ...label.Tag) *Session {
	t.Helper()
	s := f.e.NewSession(p)
	for _, tg := range tags {
		if err := s.AddSecrecy(tg); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestLabelConfinementOnEveryPath: the seq scan, the index scan, the
// index join, an aggregate, a subquery and a streamed scan that sends
// its rows' stored bytes (on the disk heap) hide exactly what Label
// Confinement and its integrity dual hide, on both heaps, over rows of
// three labels interleaved across more than one scan batch; for readers
// covered directly, through a compound tag, and claiming an integrity
// label. The scan paths count each hidden tuple once in
// ifdb_ifc_label_denials_total, although each judges a label once.
func TestLabelConfinementOnEveryPath(t *testing.T) {
	const n, keys = 1500, 30
	for heap, using := range map[string]string{"mem": "", "disk": " USING DISK"} {
		t.Run("heap="+heap, func(t *testing.T) {
			e := MustNew(Config{IFC: true})
			admin := e.NewSession(e.Admin())
			mustExec(t, admin, `CREATE TABLE records (id BIGINT PRIMARY KEY, owner TEXT, body TEXT)`+using)
			mustExec(t, admin, `CREATE TABLE keys (id BIGINT PRIMARY KEY)`)
			alice, bob := e.CreatePrincipal("alice"), e.CreatePrincipal("bob")
			mustTag := func(owner authority.Principal, name string, compounds ...string) label.Tag {
				tg, err := e.CreateTag(owner, name, compounds...)
				if err != nil {
					t.Fatal(err)
				}
				return tg
			}
			staff := mustTag(e.Admin(), "staff")
			atag, btag := mustTag(alice, "alice_tag", "staff"), mustTag(bob, "bob_tag")
			vouched := mustTag(e.Admin(), "vouched")
			session := func(p authority.Principal, secrecy label.Tag, integrity label.Tag) *Session {
				s := e.NewSession(p)
				if secrecy != label.InvalidTag {
					if err := s.AddSecrecy(secrecy); err != nil {
						t.Fatal(err)
					}
				}
				if integrity != label.InvalidTag {
					if err := s.Endorse(integrity); err != nil {
						t.Fatal(err)
					}
				}
				return s
			}
			// Row i is alice's ({alice_tag}), bob's ({bob_tag}) or public
			// and vouched for (integrity {vouched}), in turn.
			writers := []*Session{session(alice, atag, label.InvalidTag), session(bob, btag, label.InvalidTag),
				session(e.Admin(), label.InvalidTag, vouched)}
			for i := 0; i < n; i++ {
				mustExec(t, writers[i%3], `INSERT INTO records VALUES ($1, 'o', 'body')`, types.NewInt(int64(i)))
			}
			for i := 0; i < keys; i++ {
				mustExec(t, writers[2], `INSERT INTO keys VALUES ($1)`, types.NewInt(int64(i)))
			}
			readers := []struct {
				name string
				s    *Session
				sees func(i int) bool
			}{
				{"alice", session(alice, atag, label.InvalidTag), func(i int) bool { return i%3 != 1 }},
				{"bob", session(bob, btag, label.InvalidTag), func(i int) bool { return i%3 != 0 }},
				{"staff, covering alice_tag as its compound", session(e.CreatePrincipal("carol"), staff, label.InvalidTag),
					func(i int) bool { return i%3 != 1 }},
				{"integrity {vouched}", session(e.Admin(), label.InvalidTag, vouched), func(i int) bool { return i%3 == 2 }},
			}
			// count runs q and returns its one value and the denials it
			// added.
			count := func(s *Session, q string, params ...types.Value) (string, int64) {
				before := mLabelDenials.Value()
				res := mustExec(t, s, q, params...)
				denied := mLabelDenials.Value() - before
				return strings.Join(rowStrings(res), " "), denied
			}
			for _, r := range readers {
				visible, sum := 0, 0
				for i := 0; i < n; i++ {
					if r.sees(i) {
						visible, sum = visible+1, sum+i
					}
				}
				if got, denied := count(r.s, `SELECT count(*), sum(id) FROM records WHERE body <> ''`); got != fmt.Sprintf("%d|%d", visible, sum) || denied != int64(n-visible) {
					t.Errorf("%s: seq scan %s with %d denials, want %d|%d with %d", r.name, got, denied, visible, sum, n-visible)
				}
				for i := 0; i < 3; i++ {
					want, wantDenied := "", int64(1)
					if r.sees(i) {
						want, wantDenied = fmt.Sprint(i), 0
					}
					if got, denied := count(r.s, `SELECT id FROM records WHERE id = $1`, types.NewInt(int64(i))); got != want || denied != wantDenied {
						t.Errorf("%s: index scan for %d: %q with %d denials, want %q with %d", r.name, i, got, denied, want, wantDenied)
					}
				}
				joined, joinSum := 0, 0
				for i := 0; i < keys; i++ {
					if r.sees(i) {
						joined, joinSum = joined+1, joinSum+i
					}
				}
				if got, denied := count(r.s, `SELECT count(*), sum(r.id) FROM keys k JOIN records r ON k.id = r.id`); got != fmt.Sprintf("%d|%d", joined, joinSum) || denied != int64(keys-joined) {
					t.Errorf("%s: index join %s with %d denials, want %d|%d with %d", r.name, got, denied, joined, joinSum, keys-joined)
				}
				if got, _ := count(r.s, `SELECT count(*) FROM keys WHERE id IN (SELECT id FROM records)`); got != fmt.Sprint(joined) {
					t.Errorf("%s: subquery %s, want %d", r.name, got, joined)
				}
				wantStored := int64(0) // a table in memory has no stored bytes
				if heap == "disk" {
					wantStored = int64(visible)
				}
				if got, denied, stored := streamEncoded(t, r.s, `SELECT * FROM records`); got != fmt.Sprintf("%d|%d", visible, sum) || denied != int64(n-visible) || stored != wantStored {
					t.Errorf("%s: streamed scan %s with %d denials and %d stored rows, want %d|%d with %d and %d",
						r.name, got, denied, stored, visible, sum, n-visible, wantStored)
				}
			}
			plan := strings.Join(rowStrings(mustExec(t, admin, `EXPLAIN SELECT count(*), sum(r.id) FROM keys k JOIN records r ON k.id = r.id`)), "\n")
			if !strings.Contains(plan, "join index") {
				t.Errorf("the join does not probe records' index:\n%s", plan)
			}
		})
	}
}

// streamEncoded drains q through an encoded-mode cursor, as the wire
// server does, and returns the count and sum of the first column of the
// rows it sent — their stored bytes decoded where they came as those —
// with the label denials and stored rows it added.
func streamEncoded(t *testing.T, s *Session, q string) (got string, denied, stored int64) {
	t.Helper()
	denied0, stored0 := mLabelDenials.Value(), mRowsStored.Value()
	cur, err := s.ExecStream(q)
	if err != nil {
		t.Fatal(err)
	}
	var n, sum int64
	for {
		rows, enc, _, err := cur.NextEncoded(100)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			break
		}
		for i, row := range rows {
			if enc != nil && enc[i] != nil {
				if row, _, err = types.DecodeRow(enc[i]); err != nil {
					t.Fatal(err)
				}
			}
			n, sum = n+1, sum+row[0].Int()
		}
	}
	return fmt.Sprintf("%d|%d", n, sum), mLabelDenials.Value() - denied0, mRowsStored.Value() - stored0
}

func TestWritesGetExactlyProcessLabel(t *testing.T) {
	f := newIFC(t)
	sa := f.session(t, f.alice, f.atag)
	mustExec(t, sa, `INSERT INTO records VALUES (1, 'alice', 'x')`)
	res := mustExec(t, sa, `SELECT _label FROM records WHERE id = 1`)
	if got := res.Rows[0][0].Label(); !got.Equal(label.New(f.atag)) {
		t.Fatalf("tuple label %v", got)
	}
	// RowLabels mirror the stored label.
	if !res.RowLabels[0].Equal(label.New(f.atag)) {
		t.Fatalf("row label %v", res.RowLabels[0])
	}
}

func TestExactLabelQueries(t *testing.T) {
	// §4.2/§5.2.1: applications can hide polyinstantiated "mistakes"
	// by constraining the _label column.
	f := newIFC(t)
	sa := f.session(t, f.alice, f.atag)
	mustExec(t, sa, `INSERT INTO records VALUES (1, 'alice', 'real')`)
	spub := f.e.NewSession(f.alice)
	mustExec(t, spub, `INSERT INTO records VALUES (1, 'alice', 'poly')`) // invisible conflict

	both := f.session(t, f.alice, f.atag)
	res := mustExec(t, both, `SELECT body FROM records WHERE id = 1 ORDER BY body`)
	expectRows(t, res, "poly", "real")
	// Exact-label filter keeps only the properly-tagged row.
	res = mustExec(t, both, `SELECT body FROM records WHERE id = 1 AND label_contains(_label, $1)`,
		types.NewInt(int64(uint64(f.atag))))
	expectRows(t, res, "real")
	res = mustExec(t, both, `SELECT body FROM records WHERE id = 1 AND label_size(_label) = 0`)
	expectRows(t, res, "poly")
}

func TestWriteRuleDelete(t *testing.T) {
	f := newIFC(t)
	spub := f.e.NewSession(f.alice)
	mustExec(t, spub, `INSERT INTO records VALUES (1, 'public', 'p')`)
	// Contaminated process cannot delete the lower-labeled tuple.
	sa := f.session(t, f.alice, f.atag)
	if _, err := sa.Exec(`DELETE FROM records WHERE id = 1`); !errors.Is(err, ErrWriteRule) {
		t.Fatalf("delete write rule: %v", err)
	}
	// But the public process can.
	mustExec(t, spub, `DELETE FROM records WHERE id = 1`)
}

func TestAuthorityStateRequiresEmptyLabel(t *testing.T) {
	f := newIFC(t)
	sa := f.session(t, f.alice, f.atag)
	if _, err := sa.CreateTag("newtag"); !errors.Is(err, ErrContaminated) {
		t.Fatalf("CreateTag: %v", err)
	}
	if _, err := sa.CreatePrincipal("p"); !errors.Is(err, ErrContaminated) {
		t.Fatalf("CreatePrincipal: %v", err)
	}
	if err := sa.Delegate(f.bob, f.atag); !errors.Is(err, ErrContaminated) {
		t.Fatalf("Delegate: %v", err)
	}
	if err := sa.Revoke(f.bob, f.atag); !errors.Is(err, ErrContaminated) {
		t.Fatalf("Revoke: %v", err)
	}
	// After declassifying, it all works.
	if err := sa.Declassify(f.atag); err != nil {
		t.Fatal(err)
	}
	if err := sa.Delegate(f.bob, f.atag); err != nil {
		t.Fatal(err)
	}
}

func TestClearanceRuleSerializable(t *testing.T) {
	f := newIFC(t)
	sa := f.e.NewSession(f.alice)
	// Snapshot isolation: raising to any tag is free.
	mustExec(t, sa, `BEGIN`)
	if err := sa.AddSecrecy(f.btag); err != nil {
		t.Fatal(err)
	}
	mustExec(t, sa, `ROLLBACK`)

	// Serializable: alice may not raise to bob's tag (no authority).
	sa2 := f.e.NewSession(f.alice)
	mustExec(t, sa2, `BEGIN SERIALIZABLE`)
	if err := sa2.AddSecrecy(f.btag); !errors.Is(err, ErrClearance) {
		t.Fatalf("clearance: %v", err)
	}
	// Her own tag is fine (she is authoritative).
	if err := sa2.AddSecrecy(f.atag); err != nil {
		t.Fatal(err)
	}
	mustExec(t, sa2, `ROLLBACK`)
}

func TestDeclassifyingViewStripsOnlyItsTags(t *testing.T) {
	f := newIFC(t)
	// records carry {atag, btag}: the view declassifies only atag, so
	// an empty-label reader still cannot see rows (btag remains).
	sa := f.session(t, f.alice, f.atag, f.btag)
	// alice needs authority for btag to write at that label... no:
	// raising is free, and writes need no authority. (Declassify does.)
	mustExec(t, sa, `INSERT INTO records VALUES (1, 'x', 'both-tags')`)

	// alice can create a view declassifying HER tag only.
	va := f.e.NewSession(f.alice)
	mustExec(t, va, `CREATE VIEW v_a AS SELECT id, body FROM records WITH DECLASSIFYING (alice_tag)`)

	reader := f.e.NewSession(f.bob)
	res := mustExec(t, reader, `SELECT * FROM v_a`)
	if len(res.Rows) != 0 {
		t.Fatal("view over-declassified")
	}
	// With btag contamination, the row appears, labeled {btag} only.
	if err := reader.AddSecrecy(f.btag); err != nil {
		t.Fatal(err)
	}
	res = mustExec(t, reader, `SELECT body FROM v_a`)
	expectRows(t, res, "both-tags")
	if !res.RowLabels[0].Equal(label.New(f.btag)) {
		t.Fatalf("view row label %v", res.RowLabels[0])
	}
}

func TestDeclassifyingViewWithCompound(t *testing.T) {
	f := newIFC(t)
	// A compound tag covering both users' tags; the app owns it.
	app := f.e.CreatePrincipal("app")
	appS := f.e.NewSession(app)
	if _, err := appS.CreateTag("all_tags"); err != nil {
		t.Fatal(err)
	}
	carol := f.e.CreatePrincipal("carol")
	cs := f.e.NewSession(carol)
	ctag, err := cs.CreateTag("carol_tag", "all_tags")
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.AddSecrecy(ctag); err != nil {
		t.Fatal(err)
	}
	mustExec(t, cs, `INSERT INTO records VALUES (9, 'carol', 'compound-covered')`)

	// The app's compound authority lets it declassify member tags via
	// a view naming only the compound.
	mustExec(t, appS, `CREATE VIEW v_all AS SELECT body FROM records WITH DECLASSIFYING (all_tags)`)
	reader := f.e.NewSession(f.bob)
	res := mustExec(t, reader, `SELECT * FROM v_all`)
	expectRows(t, res, "compound-covered")
	if !res.RowLabels[0].IsEmpty() {
		t.Fatalf("compound view label %v", res.RowLabels[0])
	}
}

func TestForeignKeyRuleSymmetricDifference(t *testing.T) {
	f := newIFC(t)
	mustExec(t, f.admin, `
	CREATE TABLE cars (carid BIGINT PRIMARY KEY, owner TEXT);
	CREATE TABLE drives (
		driveid BIGINT PRIMARY KEY,
		carid BIGINT REFERENCES cars (carid)
	)`)
	// Car labeled {alice_cars}; drive will be {alice_drives}.
	carsTag, err := f.e.CreateTag(f.alice, "alice_cars")
	if err != nil {
		t.Fatal(err)
	}
	drivesTag, err := f.e.CreateTag(f.alice, "alice_drives")
	if err != nil {
		t.Fatal(err)
	}
	sc := f.session(t, f.alice, carsTag)
	mustExec(t, sc, `INSERT INTO cars VALUES (1, 'alice')`)

	sd := f.session(t, f.alice, drivesTag)
	// Without the DECLASSIFYING clause: rejected (symdiff = {drives, cars}).
	if _, err := sd.Exec(`INSERT INTO drives VALUES (10, 1)`); !errors.Is(err, ErrFKAuthority) {
		t.Fatalf("undeclared FK insert: %v", err)
	}
	// Declaring only one of the two tags is still insufficient.
	if _, err := sd.Exec(`INSERT INTO drives VALUES (10, 1) DECLASSIFYING (alice_drives)`); !errors.Is(err, ErrFKAuthority) {
		t.Fatalf("half-declared FK insert: %v", err)
	}
	// The paper's exact clause works (alice owns both tags).
	mustExec(t, sd, `INSERT INTO drives VALUES (10, 1) DECLASSIFYING (alice_drives, alice_cars)`)

	// Bob lacks authority for the declared tags: rejected even with
	// the clause.
	sbd := f.session(t, f.bob, drivesTag) // bob contaminated with alice_drives? raising is free
	if _, err := sbd.Exec(`INSERT INTO drives VALUES (11, 1) DECLASSIFYING (alice_drives, alice_cars)`); !errors.Is(err, ErrFKAuthority) {
		t.Fatalf("unauthorized DECLASSIFYING: %v", err)
	}

	// An empty-label process cannot even see the cars tuple: the
	// DELETE silently affects nothing (§4.2).
	spub := f.e.NewSession(f.alice)
	res := mustExec(t, spub, `DELETE FROM cars WHERE carid = 1`)
	if res.Affected != 0 {
		t.Fatalf("invisible tuple deleted: %d", res.Affected)
	}
	// The deletion side of the rule: for a properly-labeled deleter,
	// the FK internals check referencing rows label-exempt, so the
	// delete is RESTRICTed by the {alice_drives} drive even though the
	// deleter cannot see it — the channel the insert-side declaration
	// vouched for (§5.2.2).
	sc2 := f.session(t, f.alice, carsTag)
	if _, err := sc2.Exec(`DELETE FROM cars WHERE carid = 1`); !errors.Is(err, ErrForeignKey) {
		t.Fatalf("restricted delete through labels: %v", err)
	}
}

func TestFKSameLabelNeedsNoDeclaration(t *testing.T) {
	f := newIFC(t)
	mustExec(t, f.admin, `
	CREATE TABLE parent (id BIGINT PRIMARY KEY);
	CREATE TABLE child (id BIGINT PRIMARY KEY, pid BIGINT REFERENCES parent (id))`)
	sa := f.session(t, f.alice, f.atag)
	mustExec(t, sa, `INSERT INTO parent VALUES (1)`)
	mustExec(t, sa, `INSERT INTO child VALUES (10, 1)`) // symdiff empty
}

func TestPolyinstantiationAndFKCandidates(t *testing.T) {
	f := newIFC(t)
	mustExec(t, f.admin, `
	CREATE TABLE parent (id BIGINT PRIMARY KEY);
	CREATE TABLE child (id BIGINT PRIMARY KEY, pid BIGINT REFERENCES parent (id))`)
	// Two polyinstantiated parents with id 1. Order matters: the
	// higher-labeled tuple must exist first so the public inserter's
	// conflict is invisible (a visible conflict is a plain violation).
	sa := f.session(t, f.alice, f.atag)
	mustExec(t, sa, `INSERT INTO parent VALUES (1)`)
	spub := f.e.NewSession(f.alice)
	mustExec(t, spub, `INSERT INTO parent VALUES (1)`)

	// A public process referencing id 1 matches the public candidate:
	// no declaration needed.
	mustExec(t, spub, `INSERT INTO child VALUES (10, 1)`)
	// The {atag} process matches the {atag} candidate the same way.
	mustExec(t, sa, `INSERT INTO child VALUES (11, 1)`)
}

func TestLabelConstraintContains(t *testing.T) {
	f := newIFC(t)
	mustExec(t, f.admin, `CREATE TABLE lc (
		id BIGINT PRIMARY KEY,
		tagcol BIGINT,
		LABEL CONTAINS (tagcol)
	)`)
	sa := f.session(t, f.alice, f.atag)
	// Label {atag} contains tagcol=atag: OK.
	mustExec(t, sa, `INSERT INTO lc VALUES (1, $1)`, types.NewInt(int64(uint64(f.atag))))
	// Label {atag} does not contain btag: violation.
	if _, err := sa.Exec(`INSERT INTO lc VALUES (2, $1)`, types.NewInt(int64(uint64(f.btag)))); !errors.Is(err, ErrLabelConstraint) {
		t.Fatalf("contains violation: %v", err)
	}
	// NULL tag expressions are skipped.
	mustExec(t, sa, `INSERT INTO lc VALUES (3, NULL)`)
}

func TestLabelConstraintPreventsPolyinstantiation(t *testing.T) {
	f := newIFC(t)
	mustExec(t, f.admin, `CREATE TABLE strict (
		id BIGINT PRIMARY KEY,
		tagcol BIGINT,
		LABEL EXACTLY (tagcol)
	)`)
	sa := f.session(t, f.alice, f.atag)
	mustExec(t, sa, `INSERT INTO strict VALUES (1, $1)`, types.NewInt(int64(uint64(f.atag))))
	// A lower-labeled process cannot polyinstantiate id=1: the label
	// constraint pins the required label, which it cannot write at.
	spub := f.e.NewSession(f.bob)
	if _, err := spub.Exec(`INSERT INTO strict VALUES (1, $1)`, types.NewInt(int64(uint64(f.atag)))); !errors.Is(err, ErrLabelConstraint) {
		t.Fatalf("polyinstantiation not prevented: %v", err)
	}
}

func TestDeferredTriggerRunsWithQueryLabel(t *testing.T) {
	// §5.2.3: a trigger deferred to commit observes the label of the
	// originating query, not the commit label.
	f := newIFC(t)
	mustExec(t, f.admin, `CREATE TABLE src (id BIGINT PRIMARY KEY)`)
	var sawLabel label.Label
	if err := f.e.RegisterProc("capture_label", func(ps *Session, _ []types.Value) (types.Value, error) {
		sawLabel = ps.Label()
		return types.Null, nil
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, f.admin, `CREATE TRIGGER cap AFTER INSERT ON src deferred EXECUTE PROCEDURE capture_label`)

	sa := f.e.NewSession(f.alice)
	mustExec(t, sa, `BEGIN`)
	if err := sa.AddSecrecy(f.atag); err != nil {
		t.Fatal(err)
	}
	mustExec(t, sa, `INSERT INTO src VALUES (1)`) // query label {atag}
	// Raise further before commit; the trigger must still see {atag}.
	if err := sa.AddSecrecy(f.btag); err != nil {
		t.Fatal(err)
	}
	// Commit label {atag,btag} ⊆ tuple {atag}? No! Declassify btag
	// first (alice lacks authority) — instead use a tag she owns:
	// roll back and redo with a cleaner shape.
	mustExec(t, sa, `ROLLBACK`)

	sa2 := f.e.NewSession(f.alice)
	mustExec(t, sa2, `BEGIN`)
	if err := sa2.AddSecrecy(f.atag); err != nil {
		t.Fatal(err)
	}
	mustExec(t, sa2, `INSERT INTO src VALUES (2)`)
	// Declassify before commit: commit label {} but query label {atag}.
	if err := sa2.Declassify(f.atag); err != nil {
		t.Fatal(err)
	}
	mustExec(t, sa2, `COMMIT`)
	if !sawLabel.Equal(label.New(f.atag)) {
		t.Fatalf("deferred trigger saw %v, want {atag}", sawLabel)
	}
	// And the session's label was restored after the deferred run.
	if !sa2.Label().IsEmpty() {
		t.Fatalf("session label after commit: %v", sa2.Label())
	}
}

func TestStoredAuthorityClosureTrigger(t *testing.T) {
	// A trigger registered as a stored authority closure runs with its
	// bound authority (§5.2.3) — here it declassifies what it reads.
	f := newIFC(t)
	mustExec(t, f.admin, `
	CREATE TABLE inbox (id BIGINT PRIMARY KEY, v BIGINT);
	CREATE TABLE summary (id BIGINT PRIMARY KEY, v BIGINT)`)
	if err := f.e.RegisterClosureProc("summarize", func(ps *Session, _ []types.Value) (types.Value, error) {
		ctx := ps.TriggerContext()
		// Declassify alice's tag (closure authority) so the summary
		// row is written public.
		if err := ps.Declassify(f.atag); err != nil {
			return types.Null, err
		}
		_, err := ps.Exec(`INSERT INTO summary VALUES ($1, $2)`, ctx.New[0], ctx.New[1])
		return types.Null, err
	}, f.alice, f.alice, label.New(f.atag)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, f.admin, `CREATE TRIGGER sum1 AFTER INSERT ON inbox EXECUTE PROCEDURE summarize`)

	sa := f.session(t, f.alice, f.atag)
	mustExec(t, sa, `INSERT INTO inbox VALUES (1, 42)`)
	// The commit label is {} after the closure declassified...
	// actually the closure's declassification applies to the session
	// label, so the inbox tuple is {atag} and summary {} — the commit
	// label (now empty) flows to both. Verify labels:
	reader := f.e.NewSession(f.bob)
	res := mustExec(t, reader, `SELECT v FROM summary`)
	expectRows(t, res, "42")
	res = mustExec(t, reader, `SELECT v FROM inbox`)
	if len(res.Rows) != 0 {
		t.Fatal("inbox leaked")
	}
}

func TestReducedAuthorityCall(t *testing.T) {
	f := newIFC(t)
	sa := f.session(t, f.alice, f.atag)
	err := sa.WithReducedAuthority(func() error {
		if err := sa.Declassify(f.atag); err == nil {
			return errors.New("declassified with no authority")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Authority restored after the call.
	if err := sa.Declassify(f.atag); err != nil {
		t.Fatalf("authority not restored: %v", err)
	}
}

func TestIFCOffBehavesLikePlainDB(t *testing.T) {
	e := MustNew(Config{IFC: false})
	s := e.NewSession(e.Admin())
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY)`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)
	// Label ops are no-ops; everything is visible; RowLabels nil.
	p := e.CreatePrincipal("p")
	s2 := e.NewSession(p)
	res := mustExec(t, s2, `SELECT * FROM t`)
	if len(res.Rows) != 1 || res.RowLabels != nil {
		t.Fatalf("ifc-off visibility: %d rows, labels %v", len(res.Rows), res.RowLabels)
	}
	// Duplicate key is a plain unique violation (no polyinstantiation).
	if _, err := s2.Exec(`INSERT INTO t VALUES (1)`); !errors.Is(err, ErrUnique) {
		t.Fatalf("ifc-off unique: %v", err)
	}
}

func TestSerializableModeRoundTrip(t *testing.T) {
	f := newIFC(t)
	sa := f.e.NewSession(f.alice)
	if err := sa.Begin(txn.Serializable); err != nil {
		t.Fatal(err)
	}
	mustExec(t, sa, `SELECT 1`)
	if err := sa.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSQLCallableIFCFunctions(t *testing.T) {
	f := newIFC(t)
	sa := f.e.NewSession(f.alice)
	// addsecrecy via SQL (the paper's PERFORM addsecrecy(...) pattern).
	mustExec(t, sa, `SELECT addsecrecy('alice_tag')`)
	if !sa.Label().Equal(label.New(f.atag)) {
		t.Fatalf("label after addsecrecy: %v", sa.Label())
	}
	res := mustExec(t, sa, `SELECT getlabel()`)
	if !res.Rows[0][0].Label().Equal(label.New(f.atag)) {
		t.Fatalf("getlabel: %v", res.Rows[0][0])
	}
	res = mustExec(t, sa, `SELECT has_authority('alice_tag'), has_authority('bob_tag')`)
	expectRows(t, res, "t|f")
	mustExec(t, sa, `SELECT declassify('alice_tag')`)
	if !sa.Label().IsEmpty() {
		t.Fatalf("label after declassify: %v", sa.Label())
	}
	// declassify without authority fails through SQL too.
	mustExec(t, sa, `SELECT addsecrecy('bob_tag')`)
	if _, err := sa.Exec(`SELECT declassify('bob_tag')`); err == nil {
		t.Fatal("SQL declassify without authority")
	}
	res = mustExec(t, sa, `SELECT tag('bob_tag')`)
	if res.Rows[0][0].Int() != int64(uint64(f.btag)) {
		t.Fatalf("tag(): %v", res.Rows[0][0])
	}
}
