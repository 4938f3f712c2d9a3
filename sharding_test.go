package ifdb_test

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ifdb"
	"ifdb/client"
	"ifdb/internal/catalog"
	"ifdb/internal/cluster"
	"ifdb/internal/engine"
	"ifdb/internal/repl"
	"ifdb/internal/types"
	"ifdb/internal/wire"
)

// shardGuardFor builds the per-server ownership guard ifdb-server
// installs with -shard-id: rows whose shard key hashes elsewhere are
// refused.
func shardGuardFor(mapFn func() *wire.ShardMap, sid uint32) engine.ShardGuard {
	return func(t *catalog.Table, row []types.Value) error {
		m := mapFn()
		keyCol := m.KeyColumn(t.Name)
		if keyCol == "" {
			return nil
		}
		for i, col := range t.Columns {
			if strings.EqualFold(col.Name, keyCol) {
				if own := m.ShardOf(row[i].String()); own != sid {
					return fmt.Errorf("%w: key %s hashes to shard %d, this is shard %d",
						engine.ErrShardOwnership, row[i], own, sid)
				}
				return nil
			}
		}
		return nil
	}
}

// keyForShard finds a small non-negative key owned by shard sid.
func keyForShard(m *wire.ShardMap, sid uint32, not ...int64) int64 {
	for k := int64(0); ; k++ {
		skip := false
		for _, n := range not {
			if k == n {
				skip = true
			}
		}
		if !skip && m.ShardOf(strconv.FormatInt(k, 10)) == sid {
			return k
		}
	}
}

// startShard stands up one in-memory shard server with the ownership
// guard and the shard-map hook installed before it serves.
func startShard(t *testing.T, mapFn func() *wire.ShardMap, sid uint32) (string, *ifdb.DB, *wire.Server) {
	t.Helper()
	db := ifdb.MustOpen(ifdb.Config{})
	db.Engine().SetShardGuard(shardGuardFor(mapFn, sid))
	srv := wire.NewServer(db.Engine(), "")
	srv.ShardMap = mapFn
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); db.Close() })
	return ln.Addr().String(), db, srv
}

// TestShardedRouterRoutesByKey is the sharding happy path over real
// sockets: DDL fans out, single-key statements land on the owning
// shard (each shard's ownership guard would refuse strays), fan-out
// reads merge every shard's rows.
func TestShardedRouterRoutesByKey(t *testing.T) {
	smap := &wire.ShardMap{Version: 1, Keys: map[string]string{"kv": "k"}}
	mapFn := func() *wire.ShardMap { return smap }
	addr0, db0, _ := startShard(t, mapFn, 0)
	addr1, db1, _ := startShard(t, mapFn, 1)
	smap.Shards = []wire.Shard{{ID: 0, Primary: addr0}, {ID: 1, Primary: addr1}}

	router, err := client.OpenRouter(client.RouterConfig{Addrs: []string{addr0, addr1}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	// The Router discovered the map from a node's SHARDMAP frame (no
	// cfg.ShardMap was given): DDL must fan out to both shards.
	if _, err := router.Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}

	const rows = 40
	for i := 0; i < rows; i++ {
		if _, err := router.Exec(`INSERT INTO kv VALUES ($1, $2)`,
			ifdb.Int(int64(i)), ifdb.Text(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	// Partitioning really happened: rows divide across the shards and
	// every row passed its shard's ownership guard on the way in.
	count := func(db *ifdb.DB) int {
		res, err := db.AdminSession().Exec(`SELECT k FROM kv`)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}
	n0, n1 := count(db0), count(db1)
	if n0+n1 != rows {
		t.Fatalf("rows split %d+%d, want %d total", n0, n1, rows)
	}
	if n0 == 0 || n1 == 0 {
		t.Fatalf("degenerate split %d+%d: expected both shards to own keys", n0, n1)
	}
	for i := 0; i < rows; i++ {
		own := smap.ShardOf(strconv.Itoa(i))
		db := db0
		if own == 1 {
			db = db1
		}
		res, err := db.AdminSession().Exec(`SELECT v FROM kv WHERE k = $1`, ifdb.Int(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("key %d: %d rows on its owning shard %d", i, len(res.Rows), own)
		}
	}

	// Single-key reads route; shard-agnostic reads fan out and merge.
	for _, i := range []int{0, 7, 19, 33} {
		res, err := router.Exec(`SELECT v FROM kv WHERE k = $1`, ifdb.Int(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Text() != fmt.Sprintf("v%d", i) {
			t.Fatalf("routed read of key %d: %v", i, res.Rows)
		}
	}
	res, err := router.Exec(`SELECT k FROM kv`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != rows {
		t.Fatalf("fan-out read merged %d rows, want %d", len(res.Rows), rows)
	}

	// A write the Router cannot confine to one shard is refused, not
	// guessed at.
	if _, err := router.Exec(`UPDATE kv SET v = 'x'`); err == nil ||
		!strings.Contains(err.Error(), "cannot derive a shard key") {
		t.Fatalf("keyless sharded write: err = %v, want shard-key refusal", err)
	}
}

// TestStaleShardMapWriteRefused asserts the version fence: a write
// routed under an outdated map version is refused by the server with
// the current map attached, and a Router holding the stale map adopts
// the attachment and re-routes without surfacing the error.
func TestStaleShardMapWriteRefused(t *testing.T) {
	cur := &wire.ShardMap{Version: 2, Keys: map[string]string{"kv": "k"}}
	mapFn := func() *wire.ShardMap { return cur }
	addr0, _, _ := startShard(t, mapFn, 0)
	addr1, _, _ := startShard(t, mapFn, 1)
	cur.Shards = []wire.Shard{{ID: 0, Primary: addr0}, {ID: 1, Primary: addr1}}

	// Schema on both shards (shard-unaware conns carry version 0 and
	// are accepted; the ownership guard alone vets them).
	for _, a := range []string{addr0, addr1} {
		c, err := client.Dial(a, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT)`); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}

	// Raw connection: a statement stamped with version 1 is refused and
	// the refusal carries the server's version-2 map.
	conn, err := client.Dial(addr0, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	k0 := keyForShard(cur, 0)
	_, err = conn.ExecShard(0, 1, `INSERT INTO kv VALUES ($1, $2)`, ifdb.Int(k0), ifdb.Int(1))
	if err == nil || !strings.Contains(err.Error(), wire.StaleShardMapErr) {
		t.Fatalf("stale-version write: err = %v, want %q", err, wire.StaleShardMapErr)
	}
	attached := client.StaleShardMap(err)
	if attached == nil || attached.Version != 2 {
		t.Fatalf("stale refusal attached map %+v, want the server's version-2 map", attached)
	}

	// The fence is asymmetric: a client AHEAD of the server (the normal
	// transient after a failover bumps the map in the coordinator's
	// process before other servers hear) is accepted — the ownership
	// guard still vets placement. Refusing ahead clients would deadlock
	// healthy shards cluster-wide.
	if _, err := conn.ExecShard(0, 3, `INSERT INTO kv VALUES ($1, $2)`, ifdb.Int(k0), ifdb.Int(1)); err != nil {
		t.Fatalf("ahead-of-server shard version refused: %v", err)
	}

	// A Router opened with the stale version-1 map self-heals: the
	// refusal's attachment is adopted mid-write and the statement lands.
	stale := cur.Clone()
	stale.Version = 1
	router, err := client.OpenRouter(client.RouterConfig{
		Addrs: []string{addr0, addr1}, ShardMap: stale,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if _, err := router.Exec(`INSERT INTO kv VALUES ($1, $2)`, ifdb.Int(keyForShard(cur, 1)), ifdb.Int(2)); err != nil {
		t.Fatalf("router under stale map should adopt and retry, got %v", err)
	}
}

// TestShardOwnershipGuard asserts the engine-level backstop: a
// shard-unaware client (plain Conn, no shard version) writing a key
// another shard owns is refused by the ownership guard.
func TestShardOwnershipGuard(t *testing.T) {
	smap := &wire.ShardMap{Version: 1, Keys: map[string]string{"kv": "k"}}
	mapFn := func() *wire.ShardMap { return smap }
	addr0, _, _ := startShard(t, mapFn, 0)
	smap.Shards = []wire.Shard{
		{ID: 0, Primary: addr0},
		{ID: 1, Primary: "127.0.0.1:1"}, // never dialed
	}

	conn, err := client.Dial(addr0, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT)`); err != nil {
		t.Fatal(err)
	}
	owned := keyForShard(smap, 0)
	if _, err := conn.Exec(`INSERT INTO kv VALUES ($1, $2)`, ifdb.Int(owned), ifdb.Int(1)); err != nil {
		t.Fatalf("insert of owned key %d: %v", owned, err)
	}
	stray := keyForShard(smap, 1)
	if _, err := conn.Exec(`INSERT INTO kv VALUES ($1, $2)`, ifdb.Int(stray), ifdb.Int(1)); err == nil ||
		!strings.Contains(err.Error(), "shard ownership") {
		t.Fatalf("insert of shard-1 key %d on shard 0: err = %v, want ownership refusal", stray, err)
	}
	// An UPDATE rewriting the key column to another shard's key would
	// scatter the key just as surely as a misrouted insert: the guard
	// vets the new row version too.
	if _, err := conn.Exec(`UPDATE kv SET k = $1 WHERE k = $2`, ifdb.Int(stray), ifdb.Int(owned)); err == nil ||
		!strings.Contains(err.Error(), "shard ownership") {
		t.Fatalf("key-rewriting update to shard-1 key %d: err = %v, want ownership refusal", stray, err)
	}
	// Updates that keep the key in place are unaffected.
	if _, err := conn.Exec(`UPDATE kv SET v = 2 WHERE k = $1`, ifdb.Int(owned)); err != nil {
		t.Fatalf("key-preserving update: %v", err)
	}
}

// TestFencedPrimaryRejectsWrites is the write-side epoch fence
// regression test (ROADMAP: "a fenced primary still accepts direct
// client writes until stopped"). A replica hello carrying a newer
// epoch proves a failover moved past this primary; from that moment
// direct client writes are refused, while reads keep serving.
func TestFencedPrimaryRejectsWrites(t *testing.T) {
	db, err := ifdb.Open(ifdb.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	admin := db.AdminSession()
	if _, err := admin.Exec(`CREATE TABLE t (id BIGINT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}

	p := repl.NewPrimary(db.Engine(), "tok")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go p.Serve(ln)
	defer p.Close()

	// A follower that streamed under epoch+1 says hello: this primary
	// is the stale side of a failover it never heard about.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := &wire.ReplHello{Token: "tok", From: 0, Epoch: db.Epoch() + 1}
	if err := wire.WriteFrame(conn, wire.MsgReplHello, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgReplErr {
		t.Fatalf("newer-epoch hello answered with %s, want ReplErr", wire.ReplFrameName(typ))
	}
	if e, _ := wire.DecodeReplErr(payload); !strings.Contains(e.Msg, "fenced") {
		t.Fatalf("hello refusal = %q, want a fence", e.Msg)
	}

	// The write side is now fenced too: before this PR the insert below
	// succeeded, growing a history the failover already discarded.
	_, err = admin.Exec(`INSERT INTO t VALUES (2)`)
	if !errors.Is(err, engine.ErrFenced) {
		t.Fatalf("write on fenced primary: err = %v, want ErrFenced", err)
	}
	// DDL and authority mutations are fenced with it.
	if _, err := admin.Exec(`CREATE TABLE t2 (id BIGINT)`); !errors.Is(err, engine.ErrFenced) {
		t.Fatalf("DDL on fenced primary: err = %v, want ErrFenced", err)
	}
	// Reads still serve (the node's data is intact, merely stale).
	res, err := admin.Exec(`SELECT id FROM t`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("read on fenced primary: %v (%d rows)", err, len(res.Rows))
	}
}

// TestRouterShardFailoverPerShard drives a per-shard failover through
// the whole stack over real sockets: shard 0 is a durable
// primary/replica pair, shard 1 a lone primary; shard 0's primary
// crashes; the sharded coordinator promotes the replica *within shard
// 0* and bumps the map version; the Router follows the promotion for
// shard 0 — adopting the new map off the version fence — while shard
// 1 keeps serving throughout.
func TestRouterShardFailoverPerShard(t *testing.T) {
	const token = "tok"

	// --- Shard 0: durable primary + streaming replica.
	prim, err := ifdb.Open(ifdb.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
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

	replica, err := ifdb.Open(ifdb.Config{
		DataDir: t.TempDir(), ReplicaOf: primReplLn.Addr().String(), ReplToken: token,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	replSrv := wire.NewServer(replica.Engine(), token)
	replSrv.StatusErr = replica.ReplicationErr
	replSrv.Promote = replica.Promote
	replLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	replAddr := replLn.Addr().String()

	// --- Shard 1: lone in-memory primary.
	other := ifdb.MustOpen(ifdb.Config{})
	defer other.Close()
	otherSrv := wire.NewServer(other.Engine(), token)
	otherLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	otherAddr := otherLn.Addr().String()

	// --- Shard map + coordinator (per-shard health and failover).
	smap := &wire.ShardMap{
		Version: 1,
		Keys:    map[string]string{"kv": "k"},
		Shards: []wire.Shard{
			{ID: 0, Primary: primAddr, Replicas: []string{replAddr}},
			{ID: 1, Primary: otherAddr},
		},
	}
	coord, err := cluster.New(cluster.Config{
		Token:         token,
		ProbeInterval: 50 * time.Millisecond,
		FailAfter:     2,
		AutoPromote:   true,
		DialTimeout:   time.Second,
		ShardMap:      smap,
	})
	if err != nil {
		t.Fatal(err)
	}
	mapFn := coord.ShardMap
	for _, s := range []*wire.Server{primSrv, replSrv, otherSrv} {
		s.ShardMap = mapFn
	}
	// Hooks installed; now serve.
	go primSrv.Serve(primLn)
	go replSrv.Serve(replLn)
	defer replSrv.Close()
	go otherSrv.Serve(otherLn)
	defer otherSrv.Close()
	stopCoord := make(chan struct{})
	defer close(stopCoord)
	go coord.Run(stopCoord)

	router, err := client.OpenRouter(client.RouterConfig{
		Addrs: []string{primAddr, replAddr, otherAddr}, Token: token,
		FailoverTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	if _, err := router.Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT)`); err != nil {
		t.Fatal(err)
	}
	k0 := keyForShard(smap, 0)
	k1 := keyForShard(smap, 1)
	var k0Commit uint64 // the commit token of shard 0's insert
	for _, k := range []int64{k0, k1} {
		res, err := router.Exec(`INSERT INTO kv VALUES ($1, $2)`, ifdb.Int(k), ifdb.Int(1))
		if err != nil {
			t.Fatalf("pre-crash insert %d: %v", k, err)
		}
		if k == k0 {
			k0Commit = res.LSN
		}
	}

	// Replication is asynchronous: a crash right behind the insert's
	// acknowledgement can beat its shipment, and the failover then
	// rightly discards it (ARCHITECTURE.md § Failover & epochs, Known
	// limitations) — leaving the UPDATE below nothing to match. This
	// test is about routing across a promotion, not about that window,
	// so the replica gets to apply the insert before the primary dies.
	for deadline := time.Now().Add(10 * time.Second); replica.ReplicaAppliedLSN() < k0Commit; {
		if err := replica.ReplicationErr(); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %d, shard 0's insert committed at %d", replica.ReplicaAppliedLSN(), k0Commit)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// --- Crash shard 0's primary.
	primSrv.Close()
	primRepl.Close()
	prim.Crash()

	// The coordinator notices, promotes the replica within shard 0, and
	// bumps the map. (The engine flips to primary a moment before the
	// coordinator records the promotion, so poll the map, not the role.)
	deadline := time.Now().Add(15 * time.Second)
	for {
		if m := coord.ShardMap(); m.Version >= 2 {
			if m.Shards[0].Primary != replAddr {
				t.Fatalf("post-failover map %+v, want shard 0 primary %s", m, replAddr)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator did not promote shard 0's replica (map %+v, replica=%v)",
				coord.ShardMap(), replica.IsReplica())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if replica.IsReplica() {
		t.Fatal("map recorded a promotion but the replica is still a replica")
	}

	// Shard 1 was never disturbed; shard 0 writes follow the promotion
	// (the Router adopts the bumped map off the first version-fence
	// refusal and chases shard 0's new primary).
	if _, err := router.Exec(`UPDATE kv SET v = 2 WHERE k = $1`, ifdb.Int(k1)); err != nil {
		t.Fatalf("shard 1 write during shard 0 failover: %v", err)
	}
	if _, err := router.Exec(`UPDATE kv SET v = 2 WHERE k = $1`, ifdb.Int(k0)); err != nil {
		t.Fatalf("shard 0 write after promotion: %v", err)
	}
	res, err := replica.AdminSession().Exec(`SELECT v FROM kv WHERE k = $1`, ifdb.Int(k0))
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Fatalf("shard 0 write did not land on the promoted replica: %v %v", err, res)
	}
}

// TestShardedPreparedStatements covers prepared statements through a
// sharded Router: the shard-key derivation is computed once at
// prepare time by the SQL parser, every execution routes off it with
// that execution's parameters (the ownership guards would refuse any
// misroute), executions never re-parse (asserted via the engines'
// parse counters), IN lists route when single-shard, and a fan-out
// streaming read survives a stale-map refusal that lands mid-merge —
// after one shard's rows already streamed.
func TestShardedPreparedStatements(t *testing.T) {
	var mu sync.Mutex
	cur := &wire.ShardMap{Version: 1, Keys: map[string]string{"kv": "k"}}
	mapFn := func() *wire.ShardMap { mu.Lock(); defer mu.Unlock(); return cur }
	addr0, db0, _ := startShard(t, mapFn, 0)
	addr1, db1, _ := startShard(t, mapFn, 1)
	cur.Shards = []wire.Shard{{ID: 0, Primary: addr0}, {ID: 1, Primary: addr1}}

	router, err := client.OpenRouter(client.RouterConfig{Addrs: []string{addr0, addr1}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if _, err := router.Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}

	// Prepared sharded inserts: one plan, routed per-execution by $1.
	ins, err := router.Prepare(`INSERT INTO kv VALUES ($1, $2)`)
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	const rows = 40
	for i := 0; i < rows; i++ {
		if _, err := ins.Exec(ifdb.Int(int64(i)), ifdb.Text(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("prepared insert %d: %v", i, err)
		}
	}
	count := func(db *ifdb.DB) int {
		res, err := db.AdminSession().Exec(`SELECT k FROM kv`)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}
	n0, n1 := count(db0), count(db1)
	if n0+n1 != rows || n0 == 0 || n1 == 0 {
		t.Fatalf("prepared inserts split %d+%d, want %d across both shards", n0, n1, rows)
	}

	// Prepared single-key reads route to the owning shard, and — once
	// each shard's pooled conn holds the handles — executions stop
	// invoking either engine's parser entirely.
	sel, err := router.Prepare(`SELECT v FROM kv WHERE k = $1`)
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	for _, i := range []int{0, 7, 19, 33} { // warm both shards' handles
		if res, err := sel.Exec(ifdb.Int(int64(i))); err != nil || len(res.Rows) != 1 ||
			res.Rows[0][0].Text() != fmt.Sprintf("v%d", i) {
			t.Fatalf("prepared read of key %d: %v %v", i, res, err)
		}
	}
	base0, base1 := db0.Engine().ParseCount(), db1.Engine().ParseCount()
	for round := 0; round < 3; round++ {
		for i := 0; i < rows; i++ {
			if _, err := sel.Exec(ifdb.Int(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if g0, g1 := db0.Engine().ParseCount(), db1.Engine().ParseCount(); g0 != base0 || g1 != base1 {
		t.Fatalf("prepared executions re-parsed: shard0 %d->%d, shard1 %d->%d", base0, g0, base1, g1)
	}

	// IN lists: same-shard lists route (the guard on the other shard
	// would refuse a misroute); cross-shard lists fan out — both
	// return exactly the matching rows.
	k0a := keyForShard(cur, 0)
	k0b := keyForShard(cur, 0, k0a)
	k1 := keyForShard(cur, 1)
	selIn, err := router.Prepare(`SELECT v FROM kv WHERE k IN ($1, $2)`)
	if err != nil {
		t.Fatal(err)
	}
	defer selIn.Close()
	if res, err := selIn.Exec(ifdb.Int(k0a), ifdb.Int(k0b)); err != nil || len(res.Rows) != 2 {
		t.Fatalf("same-shard IN list: %v %v", res, err)
	}
	if res, err := selIn.Exec(ifdb.Int(k0a), ifdb.Int(k1)); err != nil || len(res.Rows) != 2 {
		t.Fatalf("cross-shard IN list (fan-out): %v %v", res, err)
	}

	// Streaming fan-out with a stale-map refusal MID-MERGE: consume
	// shard 0's rows, bump the servers' map version, and let the merge
	// hit shard 1 under the now-stale version — the refusal's attached
	// map is adopted and shard 1 re-routed, rows intact.
	keyless, err := router.Prepare(`SELECT k FROM kv`)
	if err != nil {
		t.Fatal(err)
	}
	defer keyless.Close()
	stream, err := keyless.Query()
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for stream.Next() {
		got++
		if got == 3 {
			// Shard 0's stream is open and partially consumed; shard
			// 1 has not been contacted. Reconfigure now.
			mu.Lock()
			bumped := cur.Clone()
			bumped.Version = 3
			cur = bumped
			mu.Unlock()
		}
	}
	if err := stream.Close(); err != nil {
		t.Fatalf("fan-out stream across map bump: %v", err)
	}
	if got != rows {
		t.Fatalf("fan-out stream merged %d rows, want %d", got, rows)
	}

	// The Router adopted version 3 mid-stream: a prepared write now
	// routes under it without another refusal round trip.
	if _, err := ins.Exec(ifdb.Int(int64(rows)), ifdb.Text("post-bump")); err != nil {
		t.Fatalf("prepared write after adopted map: %v", err)
	}
}
