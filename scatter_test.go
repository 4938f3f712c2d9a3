package ifdb_test

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"ifdb"
	"ifdb/client"
	"ifdb/internal/distplan"
	"ifdb/internal/types"
	"ifdb/internal/wire"
)

// What a keyless read over a sharded cluster returns — every statement
// of the scatter battery, on a 3-shard Router against the single
// node's answer — is internal/suite's to check. Here are the scatter
// path's other properties: labels through partial aggregates, the
// distributed EXPLAIN, prepared and streamed fan-outs, and per-session
// read-your-writes.

// startIFCShard is startShard with information flow control enabled.
func startIFCShard(t *testing.T, mapFn func() *wire.ShardMap, sid uint32) (string, *ifdb.DB) {
	t.Helper()
	db := ifdb.MustOpen(ifdb.Config{IFC: true})
	sequentialIDs(db)
	db.Engine().SetShardGuard(shardGuardFor(mapFn, sid))
	srv := wire.NewServer(db.Engine(), "")
	srv.ShardMap = mapFn
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); db.Close() })
	return ln.Addr().String(), db
}

// sequentialIDs makes a node's principal/tag IDs deterministic so the
// same creation order yields the same IDs on every node. (A real
// deployment aligns tag IDs through the coordinator; the test
// recreates the invariant by construction and asserts it.)
func sequentialIDs(db *ifdb.DB) {
	var n uint64
	db.Engine().Authority().SetIDSourceForTest(func() uint64 { n++; return n })
}

// alignTag creates the same principal and tag on a node, in the same
// order, so the numeric tag IDs agree across every shard and the
// oracle.
func alignTag(t *testing.T, addr string) client.Tag {
	t.Helper()
	c, err := client.Dial(addr, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, err := c.CreatePrincipal("owner")
	if err != nil {
		t.Fatal(err)
	}
	c.SetPrincipal(p)
	tg, err := c.CreateTag("sekrit")
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

// renderResult canonicalizes a result for comparison: columns, then
// one line per row carrying each value's kind and text plus the row
// label. Statements that impose no order get their rows sorted.
func renderResult(res *client.Result, ordered, withLabels bool) string {
	rows := make([]string, 0, len(res.Rows))
	for i, r := range res.Rows {
		var sb strings.Builder
		for _, v := range r {
			fmt.Fprintf(&sb, "%v:%s|", v.Kind(), v.String())
		}
		if withLabels && res.RowLabels != nil && i < len(res.RowLabels) && len(res.RowLabels[i]) > 0 {
			fmt.Fprintf(&sb, "L%v", res.RowLabels[i])
		}
		rows = append(rows, sb.String())
	}
	if !ordered {
		sort.Strings(rows)
	}
	return strings.Join(res.Cols, ",") + "\n" + strings.Join(rows, "\n")
}

// execIsDrainedQuery is the Exec ≡ Query column of the routing
// batteries: it streams the statement through query, buffers the
// stream by hand, and requires Exec's result to be exactly that —
// columns, rows (as a multiset unless ordered) and, when withLabels,
// row labels — under the one RowLabels rule: nil unless some row
// carried a non-empty label, else one entry per row.
func execIsDrainedQuery(t *testing.T, what string, exec *client.Result, query func() (client.Rows, error), ordered, withLabels bool) {
	t.Helper()
	rows, err := query()
	if err != nil {
		t.Fatalf("%s: Exec succeeded, Query failed: %v", what, err)
	}
	drained := &client.Result{}
	labeled := false
	for rows.Next() {
		drained.Rows = append(drained.Rows, append([]client.Value(nil), rows.Row()...))
		drained.RowLabels = append(drained.RowLabels, rows.RowLabel())
		labeled = labeled || len(rows.RowLabel()) > 0
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("%s: Exec succeeded, the drained Query failed: %v", what, err)
	}
	drained.Cols = rows.Columns()
	if g, w := renderResult(exec, ordered, withLabels), renderResult(drained, ordered, withLabels); g != w {
		t.Fatalf("%s: Exec is not the drained Query\nExec:\n%s\nQuery:\n%s", what, g, w)
	}
	switch {
	case !labeled && exec.RowLabels != nil:
		t.Fatalf("%s: no row is labeled, yet Exec's RowLabels is %v, want nil", what, exec.RowLabels)
	case labeled && len(exec.RowLabels) != len(exec.Rows):
		t.Fatalf("%s: %d rows, some labeled, but %d RowLabels", what, len(exec.Rows), len(exec.RowLabels))
	}
}

// TestScatterPreparedAndExplain: the split path serves prepared and
// streamed reads, and EXPLAIN of a keyless splittable SELECT renders
// the distributed plan where a keyed one is the owning shard's.
func TestScatterPreparedAndExplain(t *testing.T) {
	smap := &wire.ShardMap{Version: 1, Keys: map[string]string{"kv": "k"}}
	mapFn := func() *wire.ShardMap { return smap }
	addr0, _ := startIFCShard(t, mapFn, 0)
	addr1, _ := startIFCShard(t, mapFn, 1)
	addr2, _ := startIFCShard(t, mapFn, 2)
	smap.Shards = []wire.Shard{
		{ID: 0, Primary: addr0}, {ID: 1, Primary: addr1}, {ID: 2, Primary: addr2},
	}
	router, err := client.OpenRouter(client.RouterConfig{Addrs: []string{addr0, addr1, addr2}, MaxFanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if _, err := router.Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, g TEXT, v BIGINT)`); err != nil {
		t.Fatal(err)
	}
	groups := []string{"red", "green", "blue", "cyan", "plum"}
	for i := 0; i < 30; i++ {
		if _, err := router.Exec(`INSERT INTO kv VALUES ($1, $2, $3)`,
			ifdb.Int(int64(i)), ifdb.Text(groups[i%len(groups)]), ifdb.Int(int64(i*3+1))); err != nil {
			t.Fatal(err)
		}
	}

	// The same split path serves prepared and streaming reads.
	st, err := router.Prepare(`SELECT g, count(*) FROM kv GROUP BY g ORDER BY g`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rows, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	var streamed int
	for rows.Next() {
		streamed++
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if streamed != len(groups) {
		t.Fatalf("prepared scatter stream: %d rows, want one a group (%d)", streamed, len(groups))
	}

	// Keyless EXPLAIN renders the distributed plan; keyed EXPLAIN
	// routes to the owning shard and returns the engine's plan.
	res, err := router.Exec(`EXPLAIN SELECT g, count(*) FROM kv GROUP BY g`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || !strings.HasPrefix(res.Rows[0][0].Text(), "Scatter [shards=3") {
		t.Fatalf("distributed EXPLAIN: %v", res.Rows)
	}
	var sawFragment bool
	for _, r := range res.Rows {
		if strings.Contains(r[0].Text(), "Fragment (each shard):") {
			sawFragment = true
		}
	}
	if !sawFragment {
		t.Fatalf("distributed EXPLAIN lacks the fragment line: %v", res.Rows)
	}
	res, err = router.Exec(`EXPLAIN SELECT v FROM kv WHERE k = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || strings.HasPrefix(res.Rows[0][0].Text(), "Scatter") {
		t.Fatalf("keyed EXPLAIN should be the owning shard's engine plan: %v", res.Rows)
	}
}

// TestScatterRefusesUnmergeable: a keyless read whose answer needs a
// merge the gateway cannot do — a positional ORDER BY under a star, an
// ORDER BY or an aggregate over a view — is refused with one typed
// error, where concatenating the shards' answers would return a LIMIT 2
// as up to six rows in shard order and a count(*) as three counts. A
// read with nothing to merge still takes the union, and EXPLAIN of a
// refused read still shows each shard's plan.
func TestScatterRefusesUnmergeable(t *testing.T) {
	smap := &wire.ShardMap{Version: 1, Keys: map[string]string{"t": "k"}}
	mapFn := func() *wire.ShardMap { return smap }
	addr0, _ := startIFCShard(t, mapFn, 0)
	addr1, _ := startIFCShard(t, mapFn, 1)
	addr2, _ := startIFCShard(t, mapFn, 2)
	smap.Shards = []wire.Shard{
		{ID: 0, Primary: addr0}, {ID: 1, Primary: addr1}, {ID: 2, Primary: addr2},
	}
	router, err := client.OpenRouter(client.RouterConfig{Addrs: []string{addr0, addr1, addr2}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	for _, q := range []string{
		`CREATE TABLE t (k BIGINT PRIMARY KEY, v BIGINT)`,
		`CREATE VIEW tv AS SELECT k, v FROM t`,
	} {
		if _, err := router.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	const n = 30
	for i := 0; i < n; i++ {
		if _, err := router.Exec(`INSERT INTO t VALUES ($1, $2)`, ifdb.Int(int64(i)), ifdb.Int(int64(100-i))); err != nil {
			t.Fatal(err)
		}
	}

	for _, q := range []string{
		`SELECT * FROM t ORDER BY 2 LIMIT 2`,
		`SELECT k, v FROM tv ORDER BY v`,
		`SELECT count(*) FROM tv`,
	} {
		var ue *distplan.ErrUnmergeable
		res, err := router.Exec(q)
		if !errors.As(err, &ue) {
			t.Fatalf("Exec(%s) = %v, %v; want an ErrUnmergeable", q, res, err)
		}
		if _, err := router.Query(q); !errors.As(err, &ue) {
			t.Fatalf("Query(%s) = %v; want an ErrUnmergeable", q, err)
		}
	}

	res, err := router.Exec(`SELECT k, v FROM tv`)
	if err != nil || len(res.Rows) != n {
		t.Fatalf("a view read with nothing to merge: %v rows, %v; want the union's %d", res, err, n)
	}
	res, err = router.Exec(`EXPLAIN SELECT * FROM t ORDER BY 2 LIMIT 2`)
	if err != nil || len(res.Rows) == 0 || strings.HasPrefix(res.Rows[0][0].Text(), "Scatter") {
		t.Fatalf("EXPLAIN of a refused read: %v, %v; want the shards' plans", res, err)
	}
}

// TestScatterAggregateNoLeak is the IFC invariant for partial
// aggregation: a secret-labeled row must not leak through a partial
// aggregate to a gateway session that could not have read the row
// directly — Label Confinement runs in the fragment executor on each
// shard, under that session's label, before any partial state crosses
// the wire. A session carrying the tag sees the row's contribution and
// the merged aggregate keeps the tag in its label.
func TestScatterAggregateNoLeak(t *testing.T) {
	smap := &wire.ShardMap{Version: 1, Keys: map[string]string{"kv": "k"}}
	mapFn := func() *wire.ShardMap { return smap }
	addr0, _ := startIFCShard(t, mapFn, 0)
	addr1, _ := startIFCShard(t, mapFn, 1)
	smap.Shards = []wire.Shard{{ID: 0, Primary: addr0}, {ID: 1, Primary: addr1}}

	tag0, tag1 := alignTag(t, addr0), alignTag(t, addr1)
	if tag0 != tag1 {
		t.Fatalf("tag IDs diverged: %d vs %d", tag0, tag1)
	}
	tag := tag0

	pub, err := client.OpenRouter(client.RouterConfig{Addrs: []string{addr0, addr1}})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sec, err := client.OpenRouter(client.RouterConfig{
		Addrs: []string{addr0, addr1}, Secrecy: []client.Tag{tag},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sec.Close()

	if _, err := pub.Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, g TEXT, v BIGINT)`); err != nil {
		t.Fatal(err)
	}
	const public = 10
	for i := 0; i < public; i++ {
		if _, err := pub.Exec(`INSERT INTO kv VALUES ($1, 'a', $2)`,
			ifdb.Int(int64(i)), ifdb.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// One secret row, enormous v so any leak into SUM/MAX is loud.
	if _, err := sec.Exec(`INSERT INTO kv VALUES ($1, 'a', $2)`,
		ifdb.Int(public), ifdb.Int(1_000_000)); err != nil {
		t.Fatal(err)
	}

	// The unprivileged gateway session: COUNT, SUM, MAX, GROUP BY —
	// none may reflect the secret row, and no result row may carry the
	// tag (there is nothing left to label once the row is confined).
	for _, q := range []string{
		`SELECT count(*) FROM kv`,
		`SELECT sum(v) FROM kv`,
		`SELECT max(v) FROM kv`,
		`SELECT g, count(*), sum(v) FROM kv GROUP BY g`,
	} {
		res, err := pub.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for i, r := range res.Rows {
			for _, v := range r {
				if v.Kind() == types.KindInt && v.Int() >= 1_000_000 {
					t.Fatalf("%s: secret row leaked into %v", q, r)
				}
			}
			if res.RowLabels != nil && i < len(res.RowLabels) && res.RowLabels[i].Has(tag) {
				t.Fatalf("%s: unprivileged result carries the secret tag: %v", q, res.RowLabels[i])
			}
		}
	}
	res, err := pub.Exec(`SELECT count(*) FROM kv`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != public {
		t.Fatalf("unprivileged count(*) = %d, want %d", got, public)
	}

	// The tagged session sees the row and the merged aggregate's label
	// unions the tag in — the gateway must not strip it.
	res, err = sec.Exec(`SELECT count(*), max(v) FROM kv`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != public+1 {
		t.Fatalf("tagged count(*) = %d, want %d", got, public+1)
	}
	if got := res.Rows[0][1].Int(); got != 1_000_000 {
		t.Fatalf("tagged max(v) = %d, want the secret row's value", got)
	}
	if len(res.RowLabels) != 1 || !res.RowLabels[0].Has(tag) {
		t.Fatalf("tagged aggregate label %v, want it to carry tag %d", res.RowLabels, tag)
	}
}

// TestRouterSessionReadYourWrites pins the per-session token scope: a
// write in one RouterSession must not force other sessions (or the
// Router's default scope) off a lagging replica — before this change
// the token was Router-global and any session's write degraded every
// caller's reads to the primary.
func TestRouterSessionReadYourWrites(t *testing.T) {
	const token = "tok"
	prim, err := ifdb.Open(ifdb.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	primAddr, primSrv, _ := serveNode(t, prim, token)
	defer primSrv.Close()
	// The replica follows a second server over the primary, so closing
	// that one cuts its stream while the primary keeps serving clients.
	feedAddr, feedSrv, _ := serveNode(t, prim, token)

	replica, err := ifdb.Open(ifdb.Config{
		DataDir: t.TempDir(), ReplicaOf: feedAddr, ReplToken: token,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	replSrv, _ := nodeServer(replica, token)
	replSrv.WaitTimeout = 250 * time.Millisecond
	replLn := listenLocal(t)
	go replSrv.Serve(replLn)
	defer replSrv.Close()
	replAddr := replLn.Addr().String()

	router, err := client.OpenRouter(client.RouterConfig{
		Addrs: []string{primAddr, replAddr}, Token: token,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	if _, err := router.Exec(`CREATE TABLE t (id BIGINT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	if _, err := router.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for replica.ReplicaAppliedLSN() < prim.WALEnd() {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %d, want %d", replica.ReplicaAppliedLSN(), prim.WALEnd())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Freeze the replica where it stands: no further WAL reaches it.
	feedSrv.Close()

	sessA := router.Session()
	sessB := router.Session()
	if _, err := sessA.Exec(`INSERT INTO t VALUES (2)`); err != nil {
		t.Fatal(err)
	}

	countVia := func(q func(string, ...client.Value) (*client.Result, error)) int64 {
		res, err := q(`SELECT count(*) FROM t`)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].Int()
	}
	// Session B and the default scope never wrote row 2: their tokens
	// stop at the replicated LSN, so the frozen replica serves them —
	// the stale count proves they did not inherit session A's token.
	// (They run first: session A's read below marks the timed-out
	// replica down.)
	if got := countVia(sessB.Exec); got != 1 {
		t.Fatalf("session B read %d rows, want the replica's 1 (token must be per-session)", got)
	}
	if got := countVia(router.Exec); got != 1 {
		t.Fatalf("default-scope read %d rows, want the replica's 1", got)
	}
	// Session A's own token demands its write: the replica times out
	// the wait and the read falls through to the primary.
	if got := countVia(sessA.Exec); got != 2 {
		t.Fatalf("session A read %d rows, want its own write visible (read-your-writes)", got)
	}
}

// TestRouterLimitThenGroupBy alternates a gateway ORDER BY … LIMIT,
// whose merge closes its shard streams early, with a keyless GROUP BY
// on one Router over 3 shards, so each statement borrows the pooled
// connections the other just returned. No statement may fail for
// another's cancellation, and every answer stays the first one.
func TestRouterLimitThenGroupBy(t *testing.T) {
	smap := &wire.ShardMap{Version: 1, Keys: map[string]string{"sales": "id"}}
	mapFn := func() *wire.ShardMap { return smap }
	var addrs []string
	for sid := uint32(0); sid < 3; sid++ {
		addr, _, _ := startShard(t, mapFn, sid)
		addrs = append(addrs, addr)
		smap.Shards = append(smap.Shards, wire.Shard{ID: sid, Primary: addr})
	}
	r, err := client.OpenRouter(client.RouterConfig{Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Exec(`CREATE TABLE sales (id BIGINT PRIMARY KEY, region TEXT, v BIGINT)`); err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 600; id++ {
		if _, err := r.Exec(`INSERT INTO sales VALUES ($1, $2, $3)`,
			ifdb.Int(id), ifdb.Text(fmt.Sprintf("r%d", id%12)), ifdb.Int(id*7919%1000)); err != nil {
			t.Fatal(err)
		}
	}
	top, err := r.Prepare(`SELECT id, v FROM sales ORDER BY v DESC, id LIMIT 50`)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := r.Prepare(`SELECT region, count(*), sum(v) FROM sales GROUP BY region`)
	if err != nil {
		t.Fatal(err)
	}
	var want [2]string
	for i := 0; i < 500; i++ {
		for j, st := range []*client.RouterStmt{top, agg} {
			res, err := st.Exec()
			if err != nil {
				t.Fatalf("op %d, %s: %v", i, st.SQL(), err)
			}
			got := renderResult(res, j == 0, false)
			if i == 0 {
				want[j] = got
			} else if got != want[j] {
				t.Fatalf("op %d, %s answered\n%s\nwant\n%s", i, st.SQL(), got, want[j])
			}
		}
	}
	if n := len(strings.Split(want[0], "\n")); n < 50 {
		t.Fatalf("LIMIT 50 answered %d lines:\n%s", n, want[0])
	}
}
