// Ablation benchmarks for the design's mechanisms: each isolates one
// so its cost (or saving) is visible, complementing the paper-figure
// benchmarks in bench_test.go (the experiments E1–E7 of cmd/ifdb-bench's
// package doc).
package ifdb_test

import (
	"fmt"
	"testing"

	"ifdb"
	"ifdb/internal/label"
)

// BenchmarkAblationLabelCheck measures the raw visibility predicate:
// subset checks at various label sizes, with and without compound
// subsumption in play. This is the per-tuple cost Query by Label adds
// to every scan.
func BenchmarkAblationLabelCheck(b *testing.B) {
	for _, k := range []int{1, 2, 5, 10} {
		tags := make([]label.Tag, k)
		for i := range tags {
			tags[i] = label.Tag(i + 1)
		}
		tuple := label.New(tags...)
		process := tuple.Add(label.Tag(100)) // superset
		b.Run(fmt.Sprintf("subset-k%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !tuple.SubsetOf(process) {
					b.Fatal("subset check failed")
				}
			}
		})
		hier := label.NewHierarchy()
		compound := label.Tag(1000)
		for _, t := range tags {
			if err := hier.Declare(t, compound); err != nil {
				b.Fatal(err)
			}
		}
		compLabel := label.New(compound)
		b.Run(fmt.Sprintf("compound-k%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !hier.Flows(tuple, compLabel) {
					b.Fatal("compound flow failed")
				}
			}
		})
	}
}

// BenchmarkAblationAuthorityChain measures one authority check at the
// end of an 8-link delegation chain: what every declassification pays,
// through a session or a platform Process alike.
func BenchmarkAblationAuthorityChain(b *testing.B) {
	db := ifdb.MustOpen(ifdb.Config{IFC: true})
	owner := db.CreatePrincipal("owner")
	// A delegation chain so the walk has real work to do.
	tg, err := db.CreateTag(owner, "deep_tag")
	if err != nil {
		b.Fatal(err)
	}
	prev := owner
	var leaf ifdb.Principal
	for i := 0; i < 8; i++ {
		p := db.CreatePrincipal(fmt.Sprintf("link%d", i))
		if err := db.Delegate(prev, p, tg); err != nil {
			b.Fatal(err)
		}
		prev = p
		leaf = p
	}
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !db.HasAuthority(leaf, tg) {
				b.Fatal("authority lost")
			}
		}
	})
}

// BenchmarkAblationStatementCache quantifies the prepared-statement
// cache by comparing a repeated query against unique query texts that
// always miss.
func BenchmarkAblationStatementCache(b *testing.B) {
	db := ifdb.MustOpen(ifdb.Config{IFC: true})
	s := db.AdminSession()
	if _, err := s.Exec(`CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)`); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Exec(`INSERT INTO t VALUES (1, 10)`); err != nil {
		b.Fatal(err)
	}
	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Exec(`SELECT v FROM t WHERE id = $1`, ifdb.Int(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := fmt.Sprintf(`SELECT v FROM t WHERE id = %d`, i%2+1)
			// Vary whitespace so every iteration is a distinct text.
			q += fmt.Sprintf(" -- %d", i)
			if _, err := s.Exec(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationIndexJoin contrasts the index nested-loop join
// against the hash-join fallback on the same query shape (the planner
// feature that keeps Fig. 4's baseline honest).
func BenchmarkAblationIndexJoin(b *testing.B) {
	db := ifdb.MustOpen(ifdb.Config{})
	s := db.AdminSession()
	if _, err := s.Exec(`
		CREATE TABLE a (id BIGINT PRIMARY KEY, x BIGINT);
		CREATE TABLE bb (id BIGINT PRIMARY KEY, aid BIGINT, y BIGINT);
		CREATE INDEX bb_aid ON bb (aid)`); err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < 500; i++ {
		if _, err := s.Exec(`INSERT INTO a VALUES ($1, $2)`, ifdb.Int(i), ifdb.Int(i*2)); err != nil {
			b.Fatal(err)
		}
		for j := int64(0); j < 4; j++ {
			if _, err := s.Exec(`INSERT INTO bb VALUES ($1, $2, $3)`,
				ifdb.Int(i*4+j), ifdb.Int(i), ifdb.Int(j)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("index-probe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Equi-join on bb.aid (indexed): index nested-loop path.
			res, err := s.Exec(`SELECT COUNT(*) FROM a JOIN bb ON bb.aid = a.id WHERE a.id = $1`,
				ifdb.Int(int64(i%500)))
			if err != nil || res.Rows[0][0].Int() != 4 {
				b.Fatalf("%v %v", res, err)
			}
		}
	})
	b.Run("hash-fallback", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Join on the unindexed y column: hash-join path over the
			// whole inner relation.
			res, err := s.Exec(`SELECT COUNT(*) FROM a JOIN bb ON bb.y = a.x WHERE a.id = $1`,
				ifdb.Int(int64(i%500)))
			if err != nil || len(res.Rows) != 1 {
				b.Fatalf("%v %v", res, err)
			}
		}
	})
}

// BenchmarkAblationOnDiskVsMemory isolates the paged-heap overhead on
// identical point-update workloads.
func BenchmarkAblationOnDiskVsMemory(b *testing.B) {
	for _, disk := range []bool{false, true} {
		name := "memory"
		ddl := `CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)`
		if disk {
			name = "disk"
			ddl += ` USING DISK`
		}
		b.Run(name, func(b *testing.B) {
			db := ifdb.MustOpen(ifdb.Config{BufferPoolPages: 16})
			s := db.AdminSession()
			if _, err := s.Exec(ddl); err != nil {
				b.Fatal(err)
			}
			for i := int64(0); i < 2000; i++ {
				if _, err := s.Exec(`INSERT INTO t VALUES ($1, 0)`, ifdb.Int(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := ifdb.Int(int64(i % 2000))
				if _, err := s.Exec(`UPDATE t SET v = v + 1 WHERE id = $1`, id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
