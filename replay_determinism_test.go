package ifdb_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ifdb"
)

// TestWALReplayDeterminism is the property both crash recovery and
// replication stand on: replaying one WAL (plus snapshot and heap
// files) into a fresh engine is deterministic, and a follower that
// applied the same log as it shipped agrees with it. A random workload
// runs against a durable database with a follower attached, the
// follower converges, the process "crashes" with one transaction in
// flight, and the data directory is copied and recovered twice — the
// two recovered engines and the follower must expose identical visible
// state, every seed.
func TestWALReplayDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			db, err := ifdb.Open(ifdb.Config{DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			addr, srv, _ := serveNode(t, db, "")
			defer srv.Close()
			follower, err := ifdb.Open(ifdb.Config{DataDir: t.TempDir(), ReplicaOf: addr})
			if err != nil {
				t.Fatal(err)
			}
			defer follower.Close()

			next := runRandomWorkload(t, db, rand.New(rand.NewSource(seed)))
			if err := db.Engine().WAL().Sync(); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(10 * time.Second); follower.ReplicaAppliedLSN() < db.WALEnd(); {
				if err := follower.ReplicationErr(); err != nil {
					t.Fatalf("follower failed: %v", err)
				}
				if time.Now().After(deadline) {
					t.Fatalf("follower stuck at %d, want %d", follower.ReplicaAppliedLSN(), db.WALEnd())
				}
				time.Sleep(2 * time.Millisecond)
			}
			replicated := dumpSQL(t, follower)

			// One transaction left in flight at the crash.
			s2 := db.AdminSession()
			mustSQL(t, s2, `BEGIN`)
			mustSQL(t, s2, fmt.Sprintf(`INSERT INTO tm VALUES (%d, 0)`, next))
			db.Crash()

			dumps := make([]string, 2)
			for i := range dumps {
				cp := t.TempDir()
				copyDataDir(t, dir, cp)
				rdb, err := ifdb.Open(ifdb.Config{DataDir: cp})
				if err != nil {
					t.Fatalf("replay %d: %v", i, err)
				}
				dumps[i] = dumpSQL(t, rdb)
				if err := rdb.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if dumps[0] != dumps[1] {
				t.Fatalf("replay diverged:\nfirst:\n%s\nsecond:\n%s", dumps[0], dumps[1])
			}
			if dumps[0] != replicated {
				t.Fatalf("follower and recovery diverged:\nfollower:\n%s\nrecovered:\n%s", replicated, dumps[0])
			}
			if !strings.Contains(dumps[0], "tid=") {
				t.Fatalf("replayed state suspiciously empty:\n%s", dumps[0])
			}
		})
	}
}

// runRandomWorkload drives inserts, updates, deletes, explicit
// transactions (committed and rolled back), a table dropped and
// re-created under an open writer, checkpoints, and sequence
// allocations across mem and disk tables. It returns the next unused
// id.
func runRandomWorkload(t *testing.T, db *ifdb.DB, rng *rand.Rand) int {
	t.Helper()
	s := db.AdminSession()
	mustSQL(t, s, `CREATE TABLE tm (id BIGINT PRIMARY KEY, v BIGINT)`)
	mustSQL(t, s, `CREATE TABLE td (id BIGINT PRIMARY KEY, v BIGINT) USING DISK`)
	mustSQL(t, s, `CREATE TABLE scratch (id BIGINT PRIMARY KEY, v BIGINT)`)
	mustSQL(t, s, `SELECT create_sequence('ids')`)
	next := 0
	live := []int{}
	for op := 0; op < 400; op++ {
		table, using := "tm", ""
		if rng.Intn(2) == 0 {
			table, using = "td", " USING DISK"
		}
		switch r := rng.Intn(11); {
		case r < 5: // insert
			mustSQL(t, s, fmt.Sprintf(`INSERT INTO %s VALUES (%d, %d)`, table, next, rng.Intn(1000)))
			live = append(live, next)
			next++
		case r < 7 && len(live) > 0: // update
			id := live[rng.Intn(len(live))]
			mustSQL(t, s, fmt.Sprintf(`UPDATE tm SET v = %d WHERE id = %d`, rng.Intn(1000), id))
		case r < 8 && len(live) > 0: // delete
			id := live[rng.Intn(len(live))]
			mustSQL(t, s, fmt.Sprintf(`DELETE FROM td WHERE id = %d`, id))
		case r < 9: // explicit txn, committed or rolled back
			mustSQL(t, s, `BEGIN`)
			mustSQL(t, s, fmt.Sprintf(`INSERT INTO %s VALUES (%d, nextval('ids'))`, table, next))
			if rng.Intn(2) == 0 {
				mustSQL(t, s, `COMMIT`)
				live = append(live, next)
			} else {
				mustSQL(t, s, `ROLLBACK`)
			}
			next++
		case r < 10: // scratch dropped and re-created before its writer commits
			w := db.AdminSession()
			mustSQL(t, w, `BEGIN`)
			mustSQL(t, w, fmt.Sprintf(`INSERT INTO scratch VALUES (%d, 0)`, next))
			mustSQL(t, s, `DROP TABLE scratch`)
			mustSQL(t, s, `CREATE TABLE scratch (id BIGINT PRIMARY KEY, v BIGINT)`+using)
			mustSQL(t, w, `COMMIT`)
			next++
		default: // checkpoint mid-stream
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return next
}

func mustSQL(t *testing.T, s *ifdb.Session, q string) {
	t.Helper()
	if _, err := s.Exec(q); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
}

// dumpSQL serializes the visible state through the public API.
func dumpSQL(t *testing.T, db *ifdb.DB) string {
	t.Helper()
	var b strings.Builder
	s := db.AdminSession()
	for _, table := range []string{"tm", "td", "scratch"} {
		res, err := s.Exec(fmt.Sprintf(`SELECT id, v FROM %s ORDER BY id`, table))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "table %s rows=%d\n", table, len(res.Rows))
		for _, row := range res.Rows {
			fmt.Fprintf(&b, "  tid=%d v=%d\n", row[0].Int(), row[1].Int())
		}
	}
	return b.String()
}

func copyDataDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if ent.Name() == "LOCK" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
