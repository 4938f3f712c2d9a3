package engine

import (
	"fmt"
	"strings"
	"testing"

	"ifdb/internal/label"
	"ifdb/internal/types"
)

// TestScanJudgesUnderOpeningLabel: a statement that changes the process
// label while it scans (addsecrecy, endorse in its select list) is
// answered under the labels its scan opened with, on a mem table and on
// a USING DISK table alike; the next statement sees the changed label.
// Each table holds 3 000 rows, half of them labeled, interleaved, so
// the change lands after the first scan batch and before the others.
func TestScanJudgesUnderOpeningLabel(t *testing.T) {
	const n = 3000
	for heap, using := range map[string]string{"mem": "", "disk": " USING DISK"} {
		t.Run("heap="+heap, func(t *testing.T) {
			e := MustNew(Config{IFC: true})
			admin := e.NewSession(e.Admin())
			alice := e.CreatePrincipal("alice")
			atag, err := e.CreateTag(alice, "alice_tag")
			if err != nil {
				t.Fatal(err)
			}
			itag, err := e.CreateTag(alice, "alice_vouches")
			if err != nil {
				t.Fatal(err)
			}
			mustExec(t, admin, `CREATE TABLE r (id BIGINT PRIMARY KEY)`+using)
			mustExec(t, admin, `CREATE TABLE ri (id BIGINT PRIMARY KEY)`+using)
			plain, secret, vouched := e.NewSession(alice), e.NewSession(alice), e.NewSession(alice)
			if err := secret.AddSecrecy(atag); err != nil {
				t.Fatal(err)
			}
			if err := vouched.Endorse(itag); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				id := types.NewInt(int64(i))
				if i%2 == 0 {
					mustExec(t, plain, `INSERT INTO r VALUES ($1)`, id)
					mustExec(t, plain, `INSERT INTO ri VALUES ($1)`, id)
				} else {
					mustExec(t, secret, `INSERT INTO r VALUES ($1)`, id)
					mustExec(t, vouched, `INSERT INTO ri VALUES ($1)`, id)
				}
			}
			count := func(s *Session, q string) string {
				res := mustExec(t, s, q)
				if strings.HasPrefix(q, "SELECT count") {
					return rowStrings(res)[0]
				}
				return fmt.Sprint(len(res.Rows))
			}

			// Raising secrecy mid-scan hides nothing more and reveals
			// nothing more: the scan keeps the empty label it opened with.
			s := e.NewSession(alice)
			if got := count(s, `SELECT addsecrecy('alice_tag'), id FROM r`); got != "1500" {
				t.Errorf("addsecrecy mid-scan: %s rows, want 1500 (the rows at the opening label)", got)
			}
			if !s.Label().Equal(label.New(atag)) {
				t.Fatalf("label after the statement %v", s.Label())
			}
			if got := count(s, `SELECT count(*) FROM r`); got != "3000" {
				t.Errorf("next statement, at {alice_tag}: %s rows, want 3000", got)
			}

			// Claiming integrity mid-scan does not hide the rows below it
			// from the running scan, only from the next statement.
			s = e.NewSession(alice)
			if got := count(s, `SELECT endorse('alice_vouches'), id FROM ri`); got != "3000" {
				t.Errorf("endorse mid-scan: %s rows, want 3000 (the rows at the opening integrity label)", got)
			}
			if got := count(s, `SELECT count(*) FROM ri`); got != "1500" {
				t.Errorf("next statement, claiming {alice_vouches}: %s rows, want 1500", got)
			}
		})
	}
}

// TestDeclassifyingScanAllocBudget: a scan through a declassifying view
// strips each distinct label once, when it first judges it, and hands
// every row of that label the one stripped label: ten times the rows
// costs no more allocations. The rows carry {alice_tag, bob_tag} and
// the view declassifies alice_tag, so what remains, {bob_tag}, is a
// label of its own, which a per-row strip would allocate per row.
func TestDeclassifyingScanAllocBudget(t *testing.T) {
	const slack = 4
	allocs := func(rows int) float64 {
		e := MustNew(Config{IFC: true})
		admin := e.NewSession(e.Admin())
		mustExec(t, admin, `CREATE TABLE records (id BIGINT PRIMARY KEY, body TEXT)`)
		alice, bob := e.CreatePrincipal("alice"), e.CreatePrincipal("bob")
		atag, err := e.CreateTag(alice, "alice_tag")
		if err != nil {
			t.Fatal(err)
		}
		btag, err := e.CreateTag(bob, "bob_tag")
		if err != nil {
			t.Fatal(err)
		}
		w := e.NewSession(alice)
		for _, tg := range []label.Tag{atag, btag} {
			if err := w.AddSecrecy(tg); err != nil {
				t.Fatal(err)
			}
		}
		for lo := 0; lo < rows; lo += 500 {
			var b strings.Builder
			b.WriteString(`INSERT INTO records VALUES `)
			for i := lo; i < min(lo+500, rows); i++ {
				if i > lo {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "(%d, 'b')", i)
			}
			mustExec(t, w, b.String())
		}
		mustExec(t, e.NewSession(alice), `CREATE VIEW v_a AS SELECT id, body FROM records WITH DECLASSIFYING (alice_tag)`)
		reader := e.NewSession(bob)
		if err := reader.AddSecrecy(btag); err != nil {
			t.Fatal(err)
		}
		const q = `SELECT count(*) FROM v_a`
		if got := rowStrings(mustExec(t, reader, q))[0]; got != fmt.Sprint(rows) {
			t.Fatalf("%s: %s at %d rows", q, got, rows)
		}
		return testing.AllocsPerRun(10, func() { mustExec(t, reader, q) })
	}
	small, large := allocs(1_000), allocs(10_000)
	if large > small+slack {
		t.Errorf("count(*) over a declassifying view: %.0f allocations at 1 000 rows, %.0f at 10 000 (slack %d)", small, large, slack)
	} else {
		t.Logf("count(*) over a declassifying view: %.0f allocations at 1 000 rows, %.0f at 10 000", small, large)
	}
}
