package ifdb_test

import (
	"errors"
	"testing"

	"ifdb"
)

// TestSmoke exercises the paper's running examples end to end:
// Query by Label visibility, the Write Rule, declassification with
// authority, polyinstantiation, and the commit-label rule.
func TestSmoke(t *testing.T) {
	db := ifdb.MustOpen(ifdb.Config{IFC: true})
	admin := db.AdminSession()
	if _, err := admin.Exec(`CREATE TABLE hivpatients (
		patient_name TEXT,
		patient_dob  TEXT,
		notes        TEXT,
		PRIMARY KEY (patient_name, patient_dob)
	)`); err != nil {
		t.Fatalf("create table: %v", err)
	}

	alice := db.CreatePrincipal("alice")
	bob := db.CreatePrincipal("bob")
	aliceTag, err := db.CreateTag(alice, "alice_medical")
	if err != nil {
		t.Fatal(err)
	}
	bobTag, err := db.CreateTag(bob, "bob_medical")
	if err != nil {
		t.Fatal(err)
	}

	// Insert Bob's record at {bob_medical}.
	sb := db.NewSession(bob)
	if err := sb.AddSecrecy(bobTag); err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Exec(`INSERT INTO hivpatients VALUES ('Bob', '6/26/78', 'r1')`); err != nil {
		t.Fatalf("insert bob: %v", err)
	}

	// A process with label {bob_medical} sees Bob's tuple.
	res, err := sb.Exec(`SELECT * FROM hivpatients WHERE patient_name = 'Bob'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("bob-labeled session: got %d rows, want 1", len(res.Rows))
	}

	// An empty-label process sees nothing (Label Confinement Rule).
	sa := db.NewSession(alice)
	res, err = sa.Exec(`SELECT * FROM hivpatients WHERE patient_name = 'Bob'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("empty-label session: got %d rows, want 0", len(res.Rows))
	}

	// Alice raises to {alice_medical}; still cannot see Bob's row.
	if err := sa.AddSecrecy(aliceTag); err != nil {
		t.Fatal(err)
	}
	res, _ = sa.Exec(`SELECT * FROM hivpatients`)
	if len(res.Rows) != 0 {
		t.Fatalf("alice-labeled session sees bob's tuple")
	}

	// Polyinstantiation (§5.2.1): Alice, running with an empty label…
	// actually with {alice_medical}, inserts (Bob, 6/26/78) — the
	// conflicting tuple is invisible to her, so the insert must
	// succeed rather than leak its existence.
	if _, err := sa.Exec(`INSERT INTO hivpatients VALUES ('Bob', '6/26/78', 'dup')`); err != nil {
		t.Fatalf("polyinstantiated insert should succeed: %v", err)
	}

	// Bob, contaminated for both tags, sees both versions.
	if err := sb.AddSecrecy(aliceTag); err != nil {
		t.Fatal(err)
	}
	res, _ = sb.Exec(`SELECT * FROM hivpatients WHERE patient_name = 'Bob'`)
	if len(res.Rows) != 2 {
		t.Fatalf("polyinstantiation: got %d rows, want 2", len(res.Rows))
	}

	// A *visible* conflict still fails.
	sb2 := db.NewSession(bob)
	if err := sb2.AddSecrecy(bobTag); err != nil {
		t.Fatal(err)
	}
	if _, err := sb2.Exec(`INSERT INTO hivpatients VALUES ('Bob', '6/26/78', 'again')`); !errors.Is(err, ifdb.ErrUnique) {
		t.Fatalf("visible conflict: got %v, want ErrUnique", err)
	}

	// Write Rule: a process contaminated above a tuple's label cannot
	// update it.
	if _, err := sb.Exec(`UPDATE hivpatients SET notes = 'x' WHERE patient_name = 'Bob' AND notes = 'r1'`); !errors.Is(err, ifdb.ErrWriteRule) {
		t.Fatalf("write rule: got %v, want ErrWriteRule", err)
	}

	// Declassify: Bob has authority for bob_medical but not alice_medical.
	if err := sb.Declassify(bobTag); err != nil {
		t.Fatalf("declassify own tag: %v", err)
	}
	if err := sb.Declassify(aliceTag); !errors.Is(err, ifdb.ErrAuthority) {
		t.Fatalf("declassify foreign tag: got %v, want ErrAuthority", err)
	}
}

// TestCommitLabelRule reproduces the §5.1 attack verbatim and checks
// the commit-label rule stops it.
func TestCommitLabelRule(t *testing.T) {
	db := ifdb.MustOpen(ifdb.Config{IFC: true})
	admin := db.AdminSession()
	mustExec(t, admin, `CREATE TABLE foo (msg TEXT)`)
	mustExec(t, admin, `CREATE TABLE hivpatients (pname TEXT PRIMARY KEY)`)

	alice := db.CreatePrincipal("alice")
	aliceTag, _ := db.CreateTag(alice, "alice_medical")

	// Alice's record exists at {alice_medical}.
	sa := db.NewSession(alice)
	if err := sa.AddSecrecy(aliceTag); err != nil {
		t.Fatal(err)
	}
	mustExec(t, sa, `INSERT INTO hivpatients VALUES ('Alice')`)

	// The attacker (no authority) writes a public tuple, raises its
	// label, reads the secret, and tries to commit conditionally.
	mallory := db.CreatePrincipal("mallory")
	sm := db.NewSession(mallory)
	if _, err := sm.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	mustExec(t, sm, `INSERT INTO foo VALUES ('Alice has HIV')`)
	if err := sm.AddSecrecy(aliceTag); err != nil {
		t.Fatal(err)
	}
	res, err := sm.Exec(`SELECT * FROM hivpatients WHERE pname = 'Alice'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("contaminated attacker should see the row")
	}
	// Commit must fail: commit label {alice_medical} exceeds the empty
	// label of the tuple written to foo.
	if _, err := sm.Exec(`COMMIT`); err == nil {
		t.Fatal("commit-label rule: commit should have failed")
	}
	// And the public write must not have survived.
	s2 := db.NewSession(mallory)
	res, _ = s2.Exec(`SELECT * FROM foo`)
	if len(res.Rows) != 0 {
		t.Fatalf("aborted write leaked: %d rows", len(res.Rows))
	}
}

func mustExec(t testing.TB, s *ifdb.Session, q string, params ...ifdb.Value) *ifdb.Result {
	t.Helper()
	res, err := s.Exec(q, params...)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return res
}
