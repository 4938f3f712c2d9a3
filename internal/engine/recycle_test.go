package engine

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ifdb/internal/label"
	"ifdb/internal/plan"
	"ifdb/internal/txn"
	"ifdb/internal/types"
)

// TestRecycledTreeIsolation: a cached plan's iterator trees are reused
// from statement to statement (plan.Plan.Open), and nothing of one
// opening reaches the next. A Handle closed twice releases nothing the
// second time; a reopened scan judges labels afresh, under the labels
// its own session holds; the rows of a Result stay as they were when
// the tree that produced them runs again; and sessions sharing one
// cached plan concurrently each get what a freshly built plan answers.
func TestRecycledTreeIsolation(t *testing.T) {
	for heap, using := range map[string]string{"mem": "", "disk": " USING DISK"} {
		t.Run("heap="+heap, func(t *testing.T) {
			e := MustNew(Config{IFC: true})
			admin := e.NewSession(e.Admin())
			mustExec(t, admin, `CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT)`+using)
			for k := int64(0); k < 10; k++ {
				mustExec(t, admin, `INSERT INTO kv VALUES ($1, $2)`, types.NewInt(k), types.NewInt(k*k))
			}
			t.Run("double close", func(t *testing.T) { testDoubleClose(t, admin) })
			t.Run("labels judged per opening", func(t *testing.T) { testVerdictPerOpening(t, e, using) })
			t.Run("results outlive the tree", func(t *testing.T) { testResultsOutliveTree(t, admin) })
			t.Run("re-entrant opening", func(t *testing.T) { testReentrantOpening(t, e, admin) })
			t.Run("closed tree holds no rows", func(t *testing.T) { testClosedTreeHoldsNoRows(t, e, using) })
			t.Run("shared plan", func(t *testing.T) { testSharedPlan(t, e, using) })
		})
	}
}

// testDoubleClose opens one cached plan three times inside one
// statement: h1 runs and is closed twice, h2 takes the tree h1 gave
// back, and h3 opens while h2 is mid-stream. Had h1's second Close
// handed h2's tree back, h3 would take it and re-point it at its own
// parameter under h2's feet.
func testDoubleClose(t *testing.T, s *Session) {
	stmts, err := s.eng.parseCached(`SELECT k FROM kv WHERE k >= $1`)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(txn.SnapshotIsolation); err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	tx, scope := s.enterStmt()
	defer s.exitStmt(tx, scope, nil)
	ent, err := s.planFor(stmts[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	open := func(from int64) plan.Handle {
		qc := s.frame([]types.Value{types.NewInt(from)})
		h, err := ent.p.Open(s.planRuntime(qc))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	next := func(h *plan.Handle) string {
		r, err := h.Next()
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			return "end"
		}
		return r.Vals[0].String()
	}
	drain := func(h *plan.Handle) string {
		var out []string
		for v := next(h); v != "end"; v = next(h) {
			out = append(out, v)
		}
		return strings.Join(out, " ")
	}

	h1 := open(0)
	if got := drain(&h1); got != "0 1 2 3 4 5 6 7 8 9" {
		t.Fatalf("h1: %q", got)
	}
	h1.Close()
	h2 := open(5)
	if got := next(&h2); got != "5" {
		t.Fatalf("h2's first row: %q", got)
	}
	h1.Close()
	if got := next(&h1); got != "end" {
		t.Errorf("a closed handle still reads: %q", got)
	}
	h3 := open(8)
	if got := drain(&h3); got != "8 9" {
		t.Errorf("h3: %q", got)
	}
	if got := drain(&h2); got != "6 7 8 9" {
		t.Errorf("h2 after h1's second Close and h3: %q", got)
	}
	h2.Close()
	h3.Close()
}

// testVerdictPerOpening runs one cached statement on a session whose
// label rises between runs, then on one whose label does not: each
// opening's scan judges the tag's rows under its own session's labels,
// so neither verdict outlives its opening.
func testVerdictPerOpening(t *testing.T, e *Engine, using string) {
	admin := e.NewSession(e.Admin())
	mustExec(t, admin, `CREATE TABLE sec (k BIGINT PRIMARY KEY, v BIGINT)`+using)
	tag, err := e.CreateTag(e.Admin(), "recycle_sec")
	if err != nil {
		t.Fatal(err)
	}
	w := e.NewSession(e.Admin())
	if err := w.AddSecrecy(tag); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 5; k++ {
		mustExec(t, w, `INSERT INTO sec VALUES ($1, $2)`, types.NewInt(k), types.NewInt(k))
	}
	const q = `SELECT k, v FROM sec WHERE v >= $1`
	count := func(s *Session) int {
		return len(mustExec(t, s, q, types.NewInt(0)).Rows)
	}
	s := e.NewSession(e.Admin())
	if n := count(s); n != 0 {
		t.Fatalf("unlabeled session sees %d labeled rows", n)
	}
	if err := s.AddSecrecy(tag); err != nil {
		t.Fatal(err)
	}
	if n := count(s); n != 5 {
		t.Errorf("after raising its label the session sees %d rows, want 5: a refusal outlived its opening", n)
	}
	if n := count(e.NewSession(e.Admin())); n != 0 {
		t.Errorf("an unlabeled session sees %d labeled rows: an admission outlived its opening", n)
	}
}

// testResultsOutliveTree: the rows of a Result are the statement's,
// whatever the tree that produced them does next — a projection carves
// new rows for every opening, and a disk scan decodes into an arena of
// its opening's own.
func testResultsOutliveTree(t *testing.T, s *Session) {
	for _, q := range []string{`SELECT v, k FROM kv WHERE k >= $1`, `SELECT * FROM kv WHERE k >= $1`} {
		res1 := mustExec(t, s, q, types.NewInt(0))
		before := strings.Join(rowStrings(res1), " ")
		for from := int64(1); from < 10; from++ {
			mustExec(t, s, q, types.NewInt(from))
		}
		if after := strings.Join(rowStrings(res1), " "); after != before {
			t.Errorf("%s: the first Result's rows changed when the tree ran again:\n before %s\n after  %s", q, before, after)
		}
	}
}

// testReentrantOpening: a stored procedure called for each row of a
// statement runs that same statement, so the plan opens again while its
// first opening is mid-scan, and each opening answers for its own
// parameters.
func testReentrantOpening(t *testing.T, e *Engine, s *Session) {
	const q = `SELECT k, nested(k, $2) FROM kv WHERE k <= $1`
	if err := e.RegisterProc("nested", func(ps *Session, args []types.Value) (types.Value, error) {
		if args[1].Int() != 0 {
			return types.NewInt(-1), nil
		}
		res, err := ps.Exec(q, args[0], types.NewInt(1))
		if err != nil {
			return types.Null, err
		}
		return types.NewInt(int64(len(res.Rows))), nil
	}); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, s, q, types.NewInt(3), types.NewInt(0))
	if got, want := strings.Join(rowStrings(res), " "), "0|1 1|2 2|3 3|4"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

// testClosedTreeHoldsNoRows: a statement's rows — a sort's whole
// input, a scan's last batch and, on disk, the rows it decoded — are
// unreachable once it ends, though its tree waits in the plan for the
// next opening: what a statement read is garbage when it ends, as it
// was when every opening built a tree.
func testClosedTreeHoldsNoRows(t *testing.T, e *Engine, using string) {
	const rows = 20000
	s := e.NewSession(e.Admin())
	mustExec(t, s, `CREATE TABLE wide (k BIGINT PRIMARY KEY, pad TEXT)`+using)
	pad := types.NewText(strings.Repeat("p", 200))
	for k := 0; k < rows; k += 100 {
		if err := s.Begin(txn.SnapshotIsolation); err != nil {
			t.Fatal(err)
		}
		for i := k; i < k+100; i++ {
			mustExec(t, s, `INSERT INTO wide VALUES ($1, $2)`, types.NewInt(int64(i)), pad)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	mustExec(t, s, `SELECT count(*) FROM wide`) // pages the table in
	for _, q := range []string{`SELECT k, pad FROM wide ORDER BY k DESC`, `SELECT * FROM wide`} {
		before := heap()
		for run := 0; run < 2; run++ {
			if n := len(mustExec(t, s, q).Rows); n != rows {
				t.Fatalf("%s: %d rows, want %d", q, n, rows)
			}
		}
		if grew := heap() - before; grew > 256<<10 {
			t.Errorf("%s: the heap kept %d KB after the statement ended: its closed tree holds rows", q, grew>>10)
		}
	}
}

// testSharedPlan: eight sessions of four labels run one cached
// statement at once, each with its own parameter, and every run answers
// what the same statement answered on a freshly built plan.
func testSharedPlan(t *testing.T, e *Engine, using string) {
	const sessions, runs = 8, 50
	admin := e.NewSession(e.Admin())
	mustExec(t, admin, `CREATE TABLE shared (k BIGINT PRIMARY KEY, v BIGINT)`+using)
	tags := make([]label.Tag, 4)
	for i := range tags {
		tg, err := e.CreateTag(e.Admin(), fmt.Sprintf("recycle_tenant%d", i))
		if err != nil {
			t.Fatal(err)
		}
		tags[i] = tg
	}
	labeled := func(i int) *Session {
		s := e.NewSession(e.Admin())
		if err := s.AddSecrecy(tags[i%len(tags)]); err != nil {
			t.Fatal(err)
		}
		return s
	}
	for k := 0; k < 200; k++ {
		mustExec(t, labeled(k), `INSERT INTO shared VALUES ($1, $2)`, types.NewInt(int64(k)), types.NewInt(int64(k%7)))
	}
	const q = `SELECT k, v FROM shared WHERE k >= $1 AND v <> $2`
	ss := make([]*Session, sessions)
	params := make([][]types.Value, sessions)
	want := make([]string, sessions)
	for i := range ss {
		ss[i] = labeled(i)
		params[i] = []types.Value{types.NewInt(int64(10 * i)), types.NewInt(int64(i % 7))}
		e.invalidatePlans() // each answer from a plan built for it
		want[i] = strings.Join(rowStrings(mustExec(t, ss[i], q, params[i]...)), " ")
	}
	plans := mPlans.Value()
	var wg sync.WaitGroup
	errs := make(chan string, sessions)
	for i := range ss {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < runs; r++ {
				res, err := ss[i].Exec(q, params[i]...)
				if err != nil {
					errs <- fmt.Sprintf("session %d: %v", i, err)
					return
				}
				if got := strings.Join(rowStrings(res), " "); got != want[i] {
					errs <- fmt.Sprintf("session %d, run %d:\n got %s\nwant %s", i, r, got, want[i])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if n := mPlans.Value() - plans; n != 0 {
		t.Errorf("%d plans built while the sessions ran: they did not share one", n)
	}
}
