package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ifdb/internal/types"
)

// seedBig fills table big with n single-column rows via multi-row
// inserts (1000 literals per statement).
func seedBig(t *testing.T, s *Session, n int) {
	t.Helper()
	if _, err := s.Exec(`CREATE TABLE big (k BIGINT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < n; lo += 1000 {
		hi := lo + 1000
		if hi > n {
			hi = n
		}
		var b strings.Builder
		b.WriteString(`INSERT INTO big VALUES `)
		for k := lo; k < hi; k++ {
			if k > lo {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "(%d)", k)
		}
		if _, err := s.Exec(b.String()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCursorCancelWithinOneBatch: a cancel that lands mid-stream must
// interrupt the scan within one iterator refill batch — the scan polls
// the cancel flag per tuple, so after the rows already buffered (at
// most one batch) drain, the very next refill fails with ErrCanceled.
func TestCursorCancelWithinOneBatch(t *testing.T) {
	const rows = 200_000
	e := MustNew(Config{})
	s := e.NewSession(e.Admin())
	seedBig(t, s, rows)

	c, err := s.ExecStream(`SELECT k FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Streaming() {
		t.Fatal("keyless SELECT did not open a streaming cursor")
	}
	first, _, err := c.NextBatch(100)
	if err != nil || len(first) != 100 {
		t.Fatalf("first batch: %d rows, err %v", len(first), err)
	}

	s.Cancel()
	t0 := time.Now()
	extra := 0
	for {
		batch, _, err := c.NextBatch(500)
		if err != nil {
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("stream failed with %v, want ErrCanceled", err)
			}
			break
		}
		if len(batch) == 0 {
			t.Fatalf("stream drained all %d rows without noticing the cancel", rows+extra)
		}
		extra += len(batch)
	}
	// Bound: the rows buffered by the in-flight refill (≤1024) plus one
	// NextBatch granule of slack.
	if extra > 2048 {
		t.Fatalf("cancel landed after %d rows, want within one scan batch (≤2048)", extra)
	}
	if lat := time.Since(t0); lat > 2*time.Second {
		t.Fatalf("cancel-to-error latency %v", lat)
	}

	// The failed statement's autocommit transaction was aborted and the
	// session recovers once the flag clears.
	if s.InTxn() {
		t.Fatal("statement transaction still open after canceled stream")
	}
	s.ResetCancel()
	if _, err := s.Exec(`SELECT COUNT(*) FROM big WHERE k = 0`); err != nil {
		t.Fatalf("session dead after canceled cursor: %v", err)
	}
}

// TestCursorLifecycle covers the cursor's transaction handling around
// normal exhaustion, abandonment, DML fallback, and explicit
// transactions.
func TestCursorLifecycle(t *testing.T) {
	e := MustNew(Config{})
	s := e.NewSession(e.Admin())
	seedBig(t, s, 3000)

	// Exhaustion commits the autocommit transaction and frees the session.
	c, err := s.ExecStream(`SELECT k FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		rows, _, err := c.NextBatch(700)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			break
		}
		total += len(rows)
	}
	if total != 3000 {
		t.Fatalf("streamed %d rows, want 3000", total)
	}
	if s.InTxn() {
		t.Fatal("session still in txn after exhausted cursor")
	}

	// Abandonment: Close mid-stream aborts; the session stays usable.
	c, err = s.ExecStream(`SELECT k FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.NextBatch(10); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if s.InTxn() {
		t.Fatal("abandoned cursor left its transaction open")
	}
	if _, err := s.Exec(`SELECT COUNT(*) FROM big`); err != nil {
		t.Fatalf("session dead after abandoned cursor: %v", err)
	}

	// DML falls back to a materialized cursor with the affected count.
	c, err = s.ExecStream(`UPDATE big SET k = k WHERE k < 5`)
	if err != nil {
		t.Fatal(err)
	}
	if c.Streaming() {
		t.Fatal("DML opened a streaming cursor")
	}
	if c.Affected() != 5 {
		t.Fatalf("affected %d, want 5", c.Affected())
	}

	// Explicit transaction: the cursor rides it and leaves it open.
	if _, err := s.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`INSERT INTO big VALUES (999999)`); err != nil {
		t.Fatal(err)
	}
	c, err = s.ExecStream(`SELECT k FROM big WHERE k > 2990`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		rows, _, err := c.NextBatch(4)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			break
		}
		n += len(rows)
	}
	if n != 10 { // 2991..2999 plus the uncommitted 999999
		t.Fatalf("in-txn stream saw %d rows, want 10", n)
	}
	if !s.InTxn() {
		t.Fatal("exhausted in-txn cursor closed the explicit transaction")
	}
	if _, err := s.Exec(`ROLLBACK`); err != nil {
		t.Fatal(err)
	}
}

// TestCursorOwnsItsParams: a cursor runs on its own copy of the
// parameters it opened with. A caller that rewrites its slice after
// ExecStream or ExecPreparedStream returns — the way a loop reuses one
// slice for every execution — does not change the rows the rest of the
// stream yields.
func TestCursorOwnsItsParams(t *testing.T) {
	const rows = 20_000
	e := MustNew(Config{})
	s := e.NewSession(e.Admin())
	mustExec(t, s, `CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT)`)
	var b strings.Builder
	for lo := 0; lo < rows; lo += 1000 {
		b.Reset()
		b.WriteString(`INSERT INTO kv VALUES `)
		for k := lo; k < lo+1000; k++ {
			if k > lo {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "(%d, %d)", k, k%4)
		}
		mustExec(t, s, b.String())
	}
	const q = `SELECT k, v FROM kv WHERE v = $1`
	p, err := s.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, open := range []struct {
		name string
		fn   func(params []types.Value) (*Cursor, error)
	}{
		{"ExecStream", func(params []types.Value) (*Cursor, error) { return s.ExecStream(q, params...) }},
		{"ExecPreparedStream", func(params []types.Value) (*Cursor, error) { return s.ExecPreparedStream(p, params...) }},
	} {
		t.Run(open.name, func(t *testing.T) {
			params := []types.Value{types.NewInt(3)}
			c, err := open.fn(params)
			if err != nil {
				t.Fatal(err)
			}
			if !c.Streaming() {
				t.Fatal("the SELECT did not open a streaming cursor")
			}
			params[0] = types.NewInt(2)
			n := 0
			for {
				batch, _, err := c.NextBatch(100)
				if err != nil {
					t.Fatal(err)
				}
				if len(batch) == 0 {
					break
				}
				for _, r := range batch {
					if r[1].Int() != 3 {
						t.Fatalf("row k=%d does not match v = 3", r[0].Int())
					}
				}
				n += len(batch)
			}
			if n != rows/4 {
				t.Fatalf("%d rows, want %d", n, rows/4)
			}
		})
	}
}
