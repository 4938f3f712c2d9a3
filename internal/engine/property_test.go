package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ifdb/internal/label"
	"ifdb/internal/types"
)

// The headline security property of Query by Label, checked under
// randomized data: no query — seq scan, index scan, join, aggregate,
// or view — ever returns a row whose label does not flow to the
// process label.

func TestQuickNoQueryLeaksLabels(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := MustNew(Config{IFC: true})
		admin := e.NewSession(e.Admin())
		if _, err := admin.Exec(`
			CREATE TABLE data (id BIGINT PRIMARY KEY, grp BIGINT, v BIGINT);
			CREATE TABLE grps (grp BIGINT PRIMARY KEY, name TEXT);
			CREATE INDEX data_grp ON data (grp)`); err != nil {
			t.Fatal(err)
		}
		owner := e.CreatePrincipal("owner")
		// A pool of tags.
		tags := make([]label.Tag, 4)
		for i := range tags {
			tg, err := e.CreateTag(owner, fmt.Sprintf("t%d-%d", seed, i))
			if err != nil {
				t.Fatal(err)
			}
			tags[i] = tg
		}
		randomLabelTags := func() []label.Tag {
			var out []label.Tag
			for _, tg := range tags {
				if rng.Intn(2) == 0 {
					out = append(out, tg)
				}
			}
			return out
		}

		// Group 3 has no data rows: a LEFT JOIN pads it.
		for g := int64(0); g < 4; g++ {
			if _, err := admin.Exec(`INSERT INTO grps VALUES ($1, $2)`,
				types.NewInt(g), types.NewText(fmt.Sprintf("g%d", g))); err != nil {
				t.Fatal(err)
			}
		}
		// Insert rows under random labels.
		for i := int64(0); i < 30; i++ {
			s := e.NewSession(owner)
			for _, tg := range randomLabelTags() {
				if err := s.AddSecrecy(tg); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Exec(`INSERT INTO data VALUES ($1, $2, $3)`,
				types.NewInt(i), types.NewInt(i%3), types.NewInt(rng.Int63n(100))); err != nil {
				t.Fatal(err)
			}
		}

		// A reader with a random label issues a battery of queries;
		// every returned row label must flow to the reader's label.
		reader := e.NewSession(owner)
		for _, tg := range randomLabelTags() {
			if err := reader.AddSecrecy(tg); err != nil {
				t.Fatal(err)
			}
		}
		rl := reader.Label()
		// The grps-data join in each strategy, INNER and LEFT. Each
		// form must answer what its index-join form answers.
		joins := [][3]string{{
			`SELECT d.id, g.name FROM grps g JOIN data d ON d.grp = g.grp`,
			`SELECT d.id, g.name FROM grps g JOIN (SELECT * FROM data) d ON d.grp = g.grp`,
			`SELECT d.id, g.name FROM grps g JOIN data d ON d.grp <= g.grp AND d.grp >= g.grp`,
		}, {
			`SELECT g.name, d.id FROM grps g LEFT JOIN data d ON d.grp = g.grp`,
			`SELECT g.name, d.id FROM grps g LEFT JOIN (SELECT * FROM data) d ON d.grp = g.grp`,
			`SELECT g.name, d.id FROM grps g LEFT JOIN data d ON d.grp <= g.grp AND d.grp >= g.grp`,
		}}
		queries := []string{
			`SELECT id FROM data`,
			`SELECT id FROM data WHERE id = 7`,
			`SELECT id FROM data WHERE grp = 1`,
			`SELECT grp, COUNT(*), SUM(v) FROM data GROUP BY grp`,
			`SELECT id FROM data WHERE v > 50 ORDER BY v DESC LIMIT 5`,
			`SELECT id FROM data WHERE grp IN (SELECT grp FROM grps WHERE name <> 'g9')`,
		}
		for _, forms := range joins {
			queries = append(queries, forms[:]...)
		}
		// answers maps each query to its rows with their labels, sorted.
		answers := map[string][]string{}
		for _, q := range queries {
			res, err := reader.Exec(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			for i, row := range rowStrings(res) {
				if !res.RowLabels[i].SubsetOf(rl) {
					t.Fatalf("seed %d: %s leaked row with label %v to process %v",
						seed, q, res.RowLabels[i], rl)
				}
				answers[q] = append(answers[q], row+" "+res.RowLabels[i].String())
			}
			slices.Sort(answers[q])
		}
		for _, forms := range joins {
			for i, strategy := range []string{"join index", "join hash", "join loop"} {
				plan, err := reader.Exec("EXPLAIN " + forms[i])
				if err != nil {
					t.Fatal(err)
				}
				if got := strings.Join(rowStrings(plan), "\n"); !strings.Contains(got, strategy) {
					t.Fatalf("%s: plan is not a %s:\n%s", forms[i], strategy, got)
				}
				if !slices.Equal(answers[forms[i]], answers[forms[0]]) {
					t.Fatalf("seed %d: %s answered\n%v\nits index-join form answered\n%v",
						seed, forms[i], answers[forms[i]], answers[forms[0]])
				}
			}
		}

		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickVisibilityCompleteness: the reader sees *exactly* the rows
// whose labels flow to its label — Query by Label is a filter, not a
// lossy approximation.
func TestQuickVisibilityCompleteness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := MustNew(Config{IFC: true})
		admin := e.NewSession(e.Admin())
		if _, err := admin.Exec(`CREATE TABLE d (id BIGINT PRIMARY KEY)`); err != nil {
			t.Fatal(err)
		}
		owner := e.CreatePrincipal("o")
		tags := make([]label.Tag, 3)
		for i := range tags {
			tg, err := e.CreateTag(owner, fmt.Sprintf("c%d-%d", seed, i))
			if err != nil {
				t.Fatal(err)
			}
			tags[i] = tg
		}
		labels := make([]label.Label, 20)
		for i := int64(0); i < 20; i++ {
			s := e.NewSession(owner)
			var lt []label.Tag
			for _, tg := range tags {
				if rng.Intn(2) == 0 {
					lt = append(lt, tg)
				}
			}
			labels[i] = label.New(lt...)
			for _, tg := range lt {
				if err := s.AddSecrecy(tg); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Exec(`INSERT INTO d VALUES ($1)`, types.NewInt(i)); err != nil {
				t.Fatal(err)
			}
		}
		reader := e.NewSession(owner)
		var rt []label.Tag
		for _, tg := range tags {
			if rng.Intn(2) == 0 {
				rt = append(rt, tg)
			}
		}
		rl := label.New(rt...)
		for _, tg := range rt {
			if err := reader.AddSecrecy(tg); err != nil {
				t.Fatal(err)
			}
		}
		res, err := reader.Exec(`SELECT id FROM d`)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, l := range labels {
			if l.SubsetOf(rl) {
				want++
			}
		}
		if len(res.Rows) != want {
			t.Fatalf("seed %d: reader %v saw %d rows, want %d", seed, rl, len(res.Rows), want)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPolyinstantiationInvariant: under random insert attempts at
// random labels, polyinstantiated tuples for one key always have
// pairwise *distinct* labels — the §5.2.1 guarantee ("polyinstantiated
// tuples must have different labels", which is what makes exact-label
// queries able to disambiguate them). Comparable-but-unequal duplicates
// are legal: the paper's third example insert creates exactly that.
func TestQuickPolyinstantiationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := MustNew(Config{IFC: true})
		admin := e.NewSession(e.Admin())
		if _, err := admin.Exec(`CREATE TABLE p (k BIGINT PRIMARY KEY, who BIGINT)`); err != nil {
			t.Fatal(err)
		}
		owner := e.CreatePrincipal("o")
		tags := make([]label.Tag, 3)
		for i := range tags {
			tg, err := e.CreateTag(owner, fmt.Sprintf("p%d-%d", seed, i))
			if err != nil {
				t.Fatal(err)
			}
			tags[i] = tg
		}
		for attempt := 0; attempt < 40; attempt++ {
			s := e.NewSession(owner)
			for _, tg := range tags {
				if rng.Intn(2) == 0 {
					if err := s.AddSecrecy(tg); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Inserts may fail with unique violations; that's the point.
			_, _ = s.Exec(`INSERT INTO p VALUES ($1, $2)`,
				types.NewInt(rng.Int63n(5)), types.NewInt(int64(attempt)))
		}
		// Gather live tuples per key with an omniscient reader.
		omni := e.NewSession(owner)
		for _, tg := range tags {
			if err := omni.AddSecrecy(tg); err != nil {
				t.Fatal(err)
			}
		}
		res, err := omni.Exec(`SELECT k FROM p ORDER BY k`)
		if err != nil {
			t.Fatal(err)
		}
		byKey := map[int64][]label.Label{}
		for i, row := range res.Rows {
			k := row[0].Int()
			byKey[k] = append(byKey[k], res.RowLabels[i])
		}
		for k, ls := range byKey {
			for i := 0; i < len(ls); i++ {
				for j := i + 1; j < len(ls); j++ {
					if ls[i].Equal(ls[j]) {
						t.Fatalf("seed %d: key %d has two tuples at the same label %v",
							seed, k, ls[i])
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
