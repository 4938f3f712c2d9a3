package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ifdb/internal/catalog"
	"ifdb/internal/types"
)

// seedDisk fills USING DISK table d (k BIGINT PRIMARY KEY, grp BIGINT,
// pad TEXT) with n rows, 500 to a statement.
func seedDisk(t *testing.T, s *Session, n int) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE d (k BIGINT PRIMARY KEY, grp BIGINT, pad TEXT) USING DISK`)
	for lo := 0; lo < n; lo += 500 {
		var b strings.Builder
		b.WriteString(`INSERT INTO d VALUES `)
		for k := lo; k < min(lo+500, n); k++ {
			if k > lo {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "(%d,%d,'pad-%030d')", k, k%7, k)
		}
		mustExec(t, s, b.String())
	}
}

// TestSelectFailsOnCorruptPage: a heap page that fails its checksum
// fails the statement that scans it, buffered or streamed. Before the
// scan returned an error the page read as empty and the count came back
// short.
func TestSelectFailsOnCorruptPage(t *testing.T) {
	dir := t.TempDir()
	e, err := New(Config{DataDir: dir, BufferPoolPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := e.NewSession(e.Admin())
	seedDisk(t, s, 2000)
	if err := e.Checkpoint(); err != nil { // every page on disk; the pool keeps the last two
		t.Fatal(err)
	}
	path := filepath.Join(dir, "d.heap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[4096] ^= 0xFF // the middle of page 0
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(`SELECT count(*) FROM d`)
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("count over a corrupt page returned %v, err %v; want checksum mismatch", res, err)
	}
	c, err := s.ExecStream(`SELECT k FROM d`)
	if err == nil {
		_, _, err = c.NextBatch(100)
	}
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("stream over a corrupt page: err %v; want checksum mismatch", err)
	}
}

// TestClosedEngineIsCollectable: nothing process-wide keeps a closed
// engine's tables alive (the per-table unique-check locks once lived in
// a package-level map keyed by table).
func TestClosedEngineIsCollectable(t *testing.T) {
	freed := make(chan struct{})
	func() {
		e := MustNew(Config{})
		s := e.NewSession(e.Admin())
		mustExec(t, s, `CREATE TABLE u (k BIGINT PRIMARY KEY, v BIGINT UNIQUE)`)
		mustExec(t, s, `INSERT INTO u VALUES (1, 1), (2, 2)`)
		mustExec(t, s, `UPDATE u SET v = 3 WHERE k = 1`)
		tab, _ := e.Catalog().Table("u")
		runtime.SetFinalizer(tab, func(*catalog.Table) { close(freed) })
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("closed engine's table is still reachable after 20 collections")
}

// TestCursorBatchesStayValid: the rows of every batch a cursor returned
// are still intact, and equal the materialized result, after the cursor
// is exhausted — the cursor reuses its outer slices and the scan its
// page scratch, never the rows. The table is several times its pool.
func TestCursorBatchesStayValid(t *testing.T) {
	e := MustNew(Config{BufferPoolPages: 4})
	s := e.NewSession(e.Admin())
	seedDisk(t, s, 5000)
	for _, q := range []string{
		`SELECT k, grp, pad FROM d`,
		`SELECT pad, k FROM d`,
		`SELECT k + 1, pad FROM d WHERE grp < 5`,
		`SELECT pad, k FROM d ORDER BY grp, k DESC`,
		`SELECT DISTINCT grp FROM d`,
	} {
		c, err := s.ExecStream(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !c.Streaming() {
			t.Fatalf("%s: not streaming", q)
		}
		var kept [][]types.Value
		for {
			rows, _, err := c.NextBatch(256)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if len(rows) == 0 {
				break
			}
			kept = append(kept, rows...) // the rows, not the batch slice
		}
		want := mustExec(t, s, q).Rows
		if !reflect.DeepEqual(kept, want) {
			t.Fatalf("%s: rows kept across %d batches differ from the materialized result (%d rows)", q, (len(kept)+255)/256, len(want))
		}
	}
}
