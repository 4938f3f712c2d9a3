package ifdb_test

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"ifdb"
	"ifdb/client"
	"ifdb/internal/repl"
	"ifdb/internal/types"
	"ifdb/internal/wire"
)

// The scatter-gather equivalence suite: every statement in the battery
// runs against a 3-shard cluster — through the distplan split/merge
// path — and against a single-node oracle holding the same rows, and
// the results are compared byte-for-byte (columns, values with their
// kinds, row labels, error text). The only sanctioned divergences are
// row order where the statement imposes none (normalized by sorting)
// and the per-shard error prefix the Router wraps around fan-out
// failures (stripped before comparison).
//
// IFDB_SCATTER_SEEDS selects the data seeds (comma-separated); the CI
// race job runs a small matrix.

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

var fanoutPrefix = regexp.MustCompile(`client: fan-out read on shard \d+: `)

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

// scatterSeeds parses IFDB_SCATTER_SEEDS (default one seed).
func scatterSeeds(t *testing.T) []int64 {
	env := os.Getenv("IFDB_SCATTER_SEEDS")
	if env == "" {
		return []int64{1}
	}
	var seeds []int64
	for _, s := range strings.Split(env, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			t.Fatalf("IFDB_SCATTER_SEEDS: %v", err)
		}
		seeds = append(seeds, n)
	}
	return seeds
}

// scatterBattery is the equivalence battery. ordered marks statements
// whose result order is fully determined (unique sort keys); the rest
// are compared as multisets. repLabels marks DISTINCT row statements,
// where duplicates may carry different labels and which
// representative survives dedup is consumption-order-dependent (the
// engine keeps the first seen; the gateway sees shards' firsts in
// merge order) — values still compare exactly, labels do not.
var scatterBattery = []struct {
	sql       string
	ordered   bool
	repLabels bool
}{
	{`SELECT count(*) FROM kv`, false, false},
	{`SELECT count(v) FROM kv`, false, false},
	{`SELECT sum(v) FROM kv`, false, false},
	{`SELECT avg(v) FROM kv`, false, false},
	{`SELECT min(v), max(v) FROM kv`, false, false},
	{`SELECT min(g) FROM kv`, false, false},
	{`SELECT g, count(*) FROM kv GROUP BY g`, false, false},
	{`SELECT g, sum(v) AS s FROM kv GROUP BY g HAVING count(*) > 3 ORDER BY g`, true, false},
	{`SELECT g, avg(v) FROM kv GROUP BY g ORDER BY g`, true, false},
	{`SELECT g, min(v), max(v), count(*) FROM kv GROUP BY g ORDER BY g`, true, false},
	{`SELECT v FROM kv ORDER BY v LIMIT 5`, true, false},
	{`SELECT v FROM kv ORDER BY v DESC LIMIT 5 OFFSET 3`, true, false},
	{`SELECT DISTINCT g FROM kv ORDER BY g`, true, true},
	{`SELECT count(DISTINCT g) FROM kv`, false, false},
	{`SELECT g, count(*) FROM kv WHERE v > 50 GROUP BY g ORDER BY g`, true, false},
	{`SELECT k + v FROM kv ORDER BY k LIMIT 10`, true, false},
	{`SELECT g, v FROM kv ORDER BY g, v`, true, false},
	{`SELECT sum(v) FROM kv WHERE g = 'zz'`, false, false},
	{`SELECT v FROM kv WHERE k < 0 ORDER BY v`, true, false},
	// Bounds and glue evaluated at the gateway, in both merge shapes:
	// the single node's answer or its error text.
	{`SELECT v FROM kv ORDER BY v LIMIT -1`, true, false},
	{`SELECT v FROM kv ORDER BY v LIMIT 3 OFFSET 1.5`, true, false},
	{`SELECT v FROM kv ORDER BY v OFFSET 1000`, true, false},
	{`SELECT g, count(*) FROM kv GROUP BY g ORDER BY g LIMIT -1`, true, false},
	{`SELECT g, count(*) FROM kv GROUP BY g ORDER BY g LIMIT 3 OFFSET 1.5`, true, false},
	{`SELECT g, count(*) FROM kv GROUP BY g ORDER BY g OFFSET 1000`, true, false},
	// HAVING glue that fails only at the gateway: arithmetic on TEXT.
	{`SELECT g, count(*) FROM kv GROUP BY g HAVING g + 1 > 0`, false, false},
	{`SELECT sum(g) FROM kv`, false, false}, // type error: both sides must refuse identically
	// The sort under LIMIT keeps limit + offset rows — on the shards
	// (pushed literal bounds) and at the gateway (over an aggregate's
	// groups) — and must answer as the single node's does: mixed
	// directions over NULL groups, bounds of nothing, past the end and
	// from a parameter (scatterArgs), and DISTINCT, which takes the
	// bound away.
	{`SELECT g, v FROM kv ORDER BY g DESC, v LIMIT 7`, true, false},
	{`SELECT g, v FROM kv ORDER BY g, v DESC LIMIT 5 OFFSET 4`, true, false},
	{`SELECT v FROM kv ORDER BY v LIMIT 0`, true, false},
	{`SELECT v FROM kv ORDER BY v DESC LIMIT 1000`, true, false},
	{`SELECT v FROM kv ORDER BY v DESC LIMIT $1`, true, false},
	{`SELECT v FROM kv ORDER BY v LIMIT $1 OFFSET $2`, true, false},
	// Ties only: which rows fill the LIMIT is arrival order's choice, but
	// every candidate shows the same value.
	{`SELECT g FROM kv ORDER BY g LIMIT 9`, true, true},
	{`SELECT DISTINCT g FROM kv ORDER BY g LIMIT 2`, true, true},
	{`SELECT DISTINCT g FROM kv ORDER BY g DESC LIMIT 2 OFFSET 1`, true, true},
	{`SELECT g, count(*) AS c FROM kv GROUP BY g ORDER BY c DESC, g LIMIT 2`, true, false},
	{`SELECT g, sum(v) FROM kv GROUP BY g ORDER BY sum(v) DESC LIMIT $1 OFFSET $2`, true, false},
	{`SELECT g, min(v) FROM kv GROUP BY g ORDER BY min(v) LIMIT 0`, true, false},
	{`SELECT count(*), sum(v), min(g) FROM kv WHERE k < 0`, false, false},
	{`SELECT g, count(*) FROM kv WHERE k < 0 GROUP BY g`, false, false},
	{`SELECT g, count(*) FROM kv WHERE k < 0 GROUP BY g ORDER BY g LIMIT 3`, true, false},
	// Unsplittable keyless reads — nothing for the gateway to merge, so
	// the shards' streams are concatenated (distplan.Union) — one of
	// them with labeled rows in the answer under the secrecy Routers.
	{`SELECT k, g, v FROM kv`, false, false},
	{`SELECT k, v FROM kv WHERE v > 100`, false, false},
}

// scatterArgs holds the parameters of the battery's parameterized
// statements.
var scatterArgs = map[string][]client.Value{
	`SELECT v FROM kv ORDER BY v DESC LIMIT $1`:                                   {ifdb.Int(4)},
	`SELECT v FROM kv ORDER BY v LIMIT $1 OFFSET $2`:                              {ifdb.Int(3), ifdb.Int(2)},
	`SELECT g, sum(v) FROM kv GROUP BY g ORDER BY sum(v) DESC LIMIT $1 OFFSET $2`: {ifdb.Int(2), ifdb.Int(1)},
}

// TestScatterEquivalence runs the battery over a 3-shard IFC cluster
// at three privilege/config levels — an unprivileged Router with a
// narrow fan-out window, a secrecy-carrying Router, and a Router with
// partial-aggregate pushdown disabled (the ship-all-rows baseline) —
// each against the matching single-node oracle session.
func TestScatterEquivalence(t *testing.T) {
	for _, seed := range scatterSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { scatterEquivalenceSeed(t, seed) })
	}
}

func scatterEquivalenceSeed(t *testing.T, seed int64) {
	smap := &wire.ShardMap{Version: 1, Keys: map[string]string{"kv": "k"}}
	mapFn := func() *wire.ShardMap { return smap }
	addr0, _ := startIFCShard(t, mapFn, 0)
	addr1, _ := startIFCShard(t, mapFn, 1)
	addr2, _ := startIFCShard(t, mapFn, 2)
	smap.Shards = []wire.Shard{
		{ID: 0, Primary: addr0}, {ID: 1, Primary: addr1}, {ID: 2, Primary: addr2},
	}

	// Single-node oracle with IFC, same schema, same rows.
	oracle := ifdb.MustOpen(ifdb.Config{IFC: true})
	sequentialIDs(oracle)
	osrv := wire.NewServer(oracle.Engine(), "")
	oln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go osrv.Serve(oln)
	t.Cleanup(func() { osrv.Close(); oracle.Close() })
	oracleAddr := oln.Addr().String()

	// One tag, identical ID everywhere (asserted, not assumed).
	tags := make([]client.Tag, 0, 4)
	for _, a := range []string{addr0, addr1, addr2, oracleAddr} {
		tags = append(tags, alignTag(t, a))
	}
	for _, tg := range tags[1:] {
		if tg != tags[0] {
			t.Fatalf("tag IDs diverged across nodes: %v", tags)
		}
	}
	tag := tags[0]

	routers := map[string]*client.Router{}
	for name, cfg := range map[string]client.RouterConfig{
		"public":  {Addrs: []string{addr0, addr1, addr2}, MaxFanout: 2},
		"secrecy": {Addrs: []string{addr0, addr1, addr2}, Secrecy: []client.Tag{tag}},
		"shiprows": {Addrs: []string{addr0, addr1, addr2}, Secrecy: []client.Tag{tag},
			DisableAggPushdown: true},
	} {
		r, err := client.OpenRouter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		routers[name] = r
	}

	connPub, err := client.Dial(oracleAddr, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer connPub.Close()
	connSec, err := client.Dial(oracleAddr, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer connSec.Close()
	connSec.AddSecrecy(tag)

	if _, err := routers["public"].Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, g TEXT, v BIGINT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := connPub.Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, g TEXT, v BIGINT)`); err != nil {
		t.Fatal(err)
	}

	// Seeded data: unique v (deterministic ties), small group space with
	// a NULL group, every tenth-ish row written under the secrecy tag.
	rng := rand.New(rand.NewSource(seed))
	groups := []string{"red", "green", "blue", "cyan", "plum"}
	const n = 60
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		g := groups[rng.Intn(len(groups))]
		v := int64(perm[i]*3 + 1)
		params := []client.Value{ifdb.Int(int64(i)), ifdb.Text(g), ifdb.Int(v)}
		if i%13 == 5 {
			params[1] = ifdb.Null
		}
		secret := i%10 == 7
		var rerr, oerr error
		if secret {
			_, rerr = routers["secrecy"].Exec(`INSERT INTO kv VALUES ($1, $2, $3)`, params...)
			_, oerr = connSec.Exec(`INSERT INTO kv VALUES ($1, $2, $3)`, params...)
		} else {
			_, rerr = routers["public"].Exec(`INSERT INTO kv VALUES ($1, $2, $3)`, params...)
			_, oerr = connPub.Exec(`INSERT INTO kv VALUES ($1, $2, $3)`, params...)
		}
		if rerr != nil || oerr != nil {
			t.Fatalf("insert %d: cluster=%v oracle=%v", i, rerr, oerr)
		}
	}

	oracleFor := map[string]*client.Conn{"public": connPub, "secrecy": connSec, "shiprows": connSec}
	for name, router := range routers {
		for _, bc := range scatterBattery {
			got, gerr := router.Exec(bc.sql, scatterArgs[bc.sql]...)
			want, werr := oracleFor[name].Exec(bc.sql, scatterArgs[bc.sql]...)
			if (gerr != nil) != (werr != nil) {
				t.Fatalf("[%s] %s: cluster err %v, oracle err %v", name, bc.sql, gerr, werr)
			}
			if gerr != nil {
				g := fanoutPrefix.ReplaceAllString(gerr.Error(), "")
				if g != werr.Error() {
					t.Fatalf("[%s] %s: error text diverged\ncluster: %s\noracle:  %s", name, bc.sql, g, werr)
				}
				continue
			}
			if g, w := renderResult(got, bc.ordered, !bc.repLabels), renderResult(want, bc.ordered, !bc.repLabels); g != w {
				t.Fatalf("[%s] %s: results diverged\ncluster:\n%s\noracle:\n%s", name, bc.sql, g, w)
			}
			execIsDrainedQuery(t, "["+name+"] "+bc.sql, got, func() (client.Rows, error) {
				return router.Query(bc.sql, scatterArgs[bc.sql]...)
			}, bc.ordered, !bc.repLabels)
		}
	}

	// The same split path serves prepared and streaming reads.
	st, err := routers["public"].Prepare(`SELECT g, count(*) FROM kv GROUP BY g ORDER BY g`)
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
	want, err := connPub.Exec(`SELECT g, count(*) FROM kv GROUP BY g ORDER BY g`)
	if err != nil {
		t.Fatal(err)
	}
	if streamed != len(want.Rows) {
		t.Fatalf("prepared scatter stream: %d rows, oracle %d", streamed, len(want.Rows))
	}

	// Keyless EXPLAIN renders the distributed plan; keyed EXPLAIN
	// routes to the owning shard and returns the engine's plan.
	res, err := routers["public"].Exec(`EXPLAIN SELECT g, count(*) FROM kv GROUP BY g`)
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
	res, err = routers["public"].Exec(`EXPLAIN SELECT v FROM kv WHERE k = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || strings.HasPrefix(res.Rows[0][0].Text(), "Scatter") {
		t.Fatalf("keyed EXPLAIN should be the owning shard's engine plan: %v", res.Rows)
	}
}

// TestScatterTupleKeyBoundaries: two rows that differ only in where the
// column boundary falls — a key of kind ‖ string ‖ NUL per column
// renders both the same, 3 being the kind byte of TEXT — live on
// different shards, so only the gateway's DISTINCT and GROUP BY can
// tell them apart. Pushdown on (partial aggregates) and off (gather).
func TestScatterTupleKeyBoundaries(t *testing.T) {
	smap := &wire.ShardMap{Version: 1, Keys: map[string]string{"pairs": "k"}}
	mapFn := func() *wire.ShardMap { return smap }
	addr0, _, _ := startShard(t, mapFn, 0)
	addr1, _, _ := startShard(t, mapFn, 1)
	smap.Shards = []wire.Shard{{ID: 0, Primary: addr0}, {ID: 1, Primary: addr1}}

	for _, noPush := range []bool{false, true} {
		r, err := client.OpenRouter(client.RouterConfig{Addrs: []string{addr0, addr1}, DisableAggPushdown: noPush})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if !noPush {
			if _, err := r.Exec(`CREATE TABLE pairs (k BIGINT PRIMARY KEY, a TEXT, b TEXT)`); err != nil {
				t.Fatal(err)
			}
			for sid, ab := range [][2]string{{"a\x00\x03b", "c"}, {"a", "b\x00\x03c"}} {
				if _, err := r.Exec(`INSERT INTO pairs VALUES ($1, $2, $3)`,
					ifdb.Int(keyForShard(smap, uint32(sid))), ifdb.Text(ab[0]), ifdb.Text(ab[1])); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, q := range []string{
			`SELECT DISTINCT a, b FROM pairs`,
			`SELECT a, b, count(*) FROM pairs GROUP BY a, b`,
		} {
			res, err := r.Exec(q)
			if err != nil {
				t.Fatalf("pushdown off=%v: %s: %v", noPush, q, err)
			}
			if len(res.Rows) != 2 {
				t.Errorf("pushdown off=%v: %s: %d rows %v, want the 2 distinct rows", noPush, q, len(res.Rows), res.Rows)
			}
		}
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
	primSrv := wire.NewServer(prim.Engine(), token)
	primLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	primAddr := primLn.Addr().String()
	primRepl := repl.NewPrimary(prim.Engine(), token)
	primReplLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go primRepl.Serve(primReplLn)
	go primSrv.Serve(primLn)
	defer primSrv.Close()

	replica, err := ifdb.Open(ifdb.Config{
		DataDir: t.TempDir(), ReplicaOf: primReplLn.Addr().String(), ReplToken: token,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	replSrv := wire.NewServer(replica.Engine(), token)
	replSrv.WaitTimeout = 250 * time.Millisecond
	replLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
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
	primRepl.Close()

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
