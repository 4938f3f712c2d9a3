package ifdb_test

import (
	"net"
	"sync"
	"testing"

	"ifdb"
	"ifdb/client"
	"ifdb/internal/obs"
	"ifdb/internal/wire"
)

// TestTraceIDPropagation drives statements through the full stack —
// client EXECUTE frame with a client-generated trace ID, server-side
// per-statement timing — and reads each breakdown from the statement's
// own reply (client.Result.Stats): statement A, then B, on one Conn.
// B's reply carries B's trace ID, and B is one frame each way: no
// second request asks for the breakdown.
func TestTraceIDPropagation(t *testing.T) {
	// The registry hands back the series the server registered.
	framesIn := obs.NewCounter("ifdb_server_frames_in_total", "")
	framesOut := obs.NewCounter("ifdb_server_frames_out_total", "")
	db := ifdb.MustOpen(ifdb.Config{})
	defer db.Close()
	admin := db.AdminSession()
	if _, err := admin.Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT)`); err != nil {
		t.Fatal(err)
	}

	srv := wire.NewServer(db.Engine(), "")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	c, err := client.Dial(ln.Addr().String(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	a, err := c.Exec(`INSERT INTO kv VALUES ($1, $2)`, ifdb.Int(1), ifdb.Int(2))
	if err != nil {
		t.Fatal(err)
	}
	want := c.LastTraceID()
	if want == 0 {
		t.Fatal("client did not stamp a trace ID")
	}
	if st := a.Stats; st.TraceID != want {
		t.Fatalf("server recorded trace %016x, client sent %016x", st.TraceID, want)
	}
	if st := a.Stats; st.ParseNs <= 0 || st.ExecNs <= 0 {
		t.Fatalf("timing breakdown not filled: %+v", st)
	}
	if st := a.Stats; st.PlanNs < 0 || st.StreamNs < 0 {
		t.Fatalf("negative timing: %+v", st)
	}

	// A second statement gets a fresh ID, and its reply carries it.
	in0, out0 := framesIn.Value(), framesOut.Value()
	b, err := c.Exec(`SELECT v FROM kv WHERE k = $1`, ifdb.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.LastTraceID() == want {
		t.Fatal("trace ID reused across statements")
	}
	if b.Stats.TraceID != c.LastTraceID() {
		t.Fatalf("stats trace %016x, want latest %016x", b.Stats.TraceID, c.LastTraceID())
	}
	if in, out := framesIn.Value()-in0, framesOut.Value()-out0; in != 1 || out != 1 {
		t.Fatalf("statement B took %d frames in and %d out, want 1 and 1", in, out)
	}
}

// TestRouterCountsStreamedReads: the routing counters advance on
// streamed reads exactly as on buffered ones, because there is one
// read loop. A single-key RouterStmt.Query counts one statement routed
// to its shard, a scatter over N shards counts one per shard, and a
// map bump that lands mid-merge — after shard 0's rows already
// streamed — counts the refusal shard 1 answers the stale version
// with, and the re-route that follows.
func TestRouterCountsStreamedReads(t *testing.T) {
	// The registry hands back the series the client registered.
	routed := obs.NewCounterVec("ifdb_router_shard_routed_total", "", "shard")
	refusals := obs.NewCounter("ifdb_router_stale_map_refusals_total", "")
	retries := obs.NewCounter("ifdb_router_retries_total", "")

	var mu sync.Mutex
	cur := &wire.ShardMap{Version: 1, Keys: map[string]string{"kv": "k"}}
	mapFn := func() *wire.ShardMap { mu.Lock(); defer mu.Unlock(); return cur }
	addr0, _, _ := startShard(t, mapFn, 0)
	addr1, _, _ := startShard(t, mapFn, 1)
	cur.Shards = []wire.Shard{{ID: 0, Primary: addr0}, {ID: 1, Primary: addr1}}

	// A window of one: shard 1's stream opens only once shard 0's is
	// exhausted, so the bump below provably precedes it.
	router, err := client.OpenRouter(client.RouterConfig{Addrs: []string{addr0, addr1}, MaxFanout: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if _, err := router.Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT)`); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 20; k++ {
		if _, err := router.Exec(`INSERT INTO kv VALUES ($1, $2)`, ifdb.Int(k), ifdb.Int(k)); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := func() [2]int64 { return [2]int64{routed.With("0").Value(), routed.With("1").Value()} }
	drain := func(rows client.Rows, err error) int {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		return n
	}

	// Single key: one statement to the owning shard, none to the other.
	sel, err := router.Prepare(`SELECT v FROM kv WHERE k = $1`)
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	k1 := keyForShard(cur, 1)
	before := snapshot()
	if n := drain(sel.Query(ifdb.Int(k1))); n != 1 {
		t.Fatalf("single-key stream: %d rows", n)
	}
	if after := snapshot(); after[0] != before[0] || after[1] != before[1]+1 {
		t.Fatalf("single-key streamed read on shard 1: shard_routed %v -> %v, want +0/+1", before, after)
	}

	// Scatter, split (gateway merge) and unsplit (union): one per shard.
	for _, q := range []string{`SELECT count(*) FROM kv`, `SELECT k FROM kv`} {
		st, err := router.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		before = snapshot()
		drain(st.Query())
		st.Close()
		if after := snapshot(); after[0] != before[0]+1 || after[1] != before[1]+1 {
			t.Fatalf("%s streamed over 2 shards: shard_routed %v -> %v, want +1/+1", q, before, after)
		}
	}

	// The map moves while shard 0's rows are streaming.
	before, refusedBefore, retriedBefore := snapshot(), refusals.Value(), retries.Value()
	stream, err := router.Query(`SELECT k FROM kv`)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for stream.Next() {
		if got++; got == 1 {
			mu.Lock()
			bumped := cur.Clone()
			bumped.Version = 2
			cur = bumped
			mu.Unlock()
		}
	}
	if err := stream.Close(); err != nil || got != 20 {
		t.Fatalf("stream across the map bump: %d rows, %v", got, err)
	}
	if n := refusals.Value() - refusedBefore; n != 1 {
		t.Fatalf("stale_map_refusals advanced by %d across a mid-merge bump, want 1", n)
	}
	if n := retries.Value() - retriedBefore; n != 1 {
		t.Fatalf("router_retries advanced by %d across a mid-merge bump, want 1", n)
	}
	// Shard 1 was tried twice: refused under version 1, served under 2.
	if after := snapshot(); after[0] != before[0]+1 || after[1] != before[1]+2 {
		t.Fatalf("shard_routed across the bump %v -> %v, want +1/+2", before, after)
	}
}
