// Coordinator tests: probe sweeps, promotion-candidate selection, and
// automatic failover over a real in-process cluster (sockets and all).
package cluster

import (
	"fmt"
	"net"
	"testing"
	"time"

	"ifdb/client"
	"ifdb/internal/engine"
	"ifdb/internal/repl"
	"ifdb/internal/wire"
)

// node is one in-process cluster member: an engine, its wire server
// (clients and followers share its one address), and (for replicas)
// the follower whose promotion SELECT promote() triggers.
type node struct {
	eng  *engine.Engine
	srv  *wire.Server
	addr string
	f    *repl.Follower
}

func startNode(t *testing.T, eng *engine.Engine, f *repl.Follower) *node {
	t.Helper()
	srv := wire.NewServer(eng, "")
	srv.Replicate = repl.NewPrimary(eng, "").Stream
	if f != nil {
		srv.Promote = f.Promote
		srv.StatusErr = f.Err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return &node{eng: eng, srv: srv, addr: ln.Addr().String(), f: f}
}

// startCluster brings up a durable primary and n replicas following
// it at its address, all converged.
func startCluster(t *testing.T, replicas int) (*node, []*node) {
	t.Helper()
	eng, err := engine.New(engine.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	prim := startNode(t, eng, nil)

	s := eng.NewSession(eng.Admin())
	if _, err := s.Exec(`CREATE TABLE t (id BIGINT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d, 'seed')`, i)); err != nil {
			t.Fatal(err)
		}
	}

	var reps []*node
	for i := 0; i < replicas; i++ {
		f, err := repl.Open(repl.Config{
			Addr: prim.addr, DataDir: t.TempDir(),
			RetryInterval: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		reps = append(reps, startNode(t, f.Engine(), f))
	}
	// Converge everyone.
	if err := eng.WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	target := eng.WAL().End()
	deadline := time.Now().Add(10 * time.Second)
	for _, r := range reps {
		for r.f.AppliedLSN() < target {
			if time.Now().After(deadline) {
				t.Fatalf("replica %s stuck at %d, want %d", r.addr, r.f.AppliedLSN(), target)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return prim, reps
}

func addrs(prim *node, reps []*node) []string {
	out := []string{prim.addr}
	for _, r := range reps {
		out = append(out, r.addr)
	}
	return out
}

// TestProbeSweep: the coordinator sees roles, epochs, and lag.
func TestProbeSweep(t *testing.T) {
	prim, reps := startCluster(t, 2)
	c, err := New(Config{Nodes: addrs(prim, reps), DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sweep := c.Probe()
	if len(sweep) != 3 {
		t.Fatalf("sweep size %d", len(sweep))
	}
	if !sweep[0].Ok || sweep[0].Replica {
		t.Fatalf("primary probe: %+v", sweep[0])
	}
	for _, n := range sweep[1:] {
		if !n.Ok || !n.Replica || n.Epoch != 1 {
			t.Fatalf("replica probe: %+v", n)
		}
		if n.Lag != 0 {
			t.Fatalf("converged replica reports lag %d", n.Lag)
		}
	}
	// PromoteBest refuses while the primary is healthy.
	if _, err := c.PromoteBest(false); err == nil {
		t.Fatal("promoted despite a healthy primary")
	}
}

// TestPromoteRefusals: the unsharded cluster and each shard are groups
// promoted by one path, and each entry point keeps its own refusal.
// None of them promotes, and a shard refusal leaves the map unchanged.
func TestPromoteRefusals(t *testing.T) {
	prim, reps := startCluster(t, 1)
	whole, err := New(Config{Nodes: addrs(prim, reps), DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := New(Config{DialTimeout: time.Second, ShardMap: &wire.ShardMap{
		Version: 1, Shards: []wire.Shard{{ID: 0, Primary: prim.addr, Replicas: []string{reps[0].addr}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		run  func() (string, error)
		want string
	}{
		{"PromoteBest, primary up", func() (string, error) { return whole.PromoteBest(false) },
			"cluster: a primary is still reachable; not promoting (use force for a planned switchover)"},
		{"PromoteBestShard, unsharded", func() (string, error) { return whole.PromoteBestShard(0, false) },
			"cluster: no shard 0"},
		{"PromoteBest, sharded", func() (string, error) { return sharded.PromoteBest(false) },
			"cluster: sharded coordinator: promote per shard with PromoteBestShard"},
		{"PromoteBestShard, no such shard", func() (string, error) { return sharded.PromoteBestShard(1, false) },
			"cluster: no shard 1"},
		{"PromoteBestShard, primary up", func() (string, error) { return sharded.PromoteBestShard(0, false) },
			"cluster: shard 0 still has a reachable primary; not promoting"},
	} {
		if addr, err := c.run(); err == nil || err.Error() != c.want {
			t.Errorf("%s: %q, %v; want the refusal %q", c.what, addr, err, c.want)
		}
	}
	if v := sharded.ShardMap().Version; v != 1 || !reps[0].eng.IsReplica() {
		t.Fatalf("a refusal promoted: map version %d, replica still a replica: %v", v, reps[0].eng.IsReplica())
	}
}

// TestPickBest: selection prefers the highest applied LSN at the
// newest replica epoch, breaking ties by address, skipping unhealthy
// and non-replica nodes.
func TestPickBest(t *testing.T) {
	sweep := []NodeStatus{
		{Addr: "p", Ok: true, Status: client.Status{WALEnd: 900}},
		{Addr: "dead", Ok: false, Status: client.Status{Replica: true, AppliedLSN: 999}},
		{Addr: "b", Ok: true, Status: client.Status{Replica: true, Epoch: 1, AppliedLSN: 500}},
		{Addr: "a", Ok: true, Status: client.Status{Replica: true, Epoch: 1, AppliedLSN: 700}},
	}
	if best := pickBest(sweep); best == nil || best.Addr != "a" {
		t.Fatalf("pickBest = %+v, want a", best)
	}
	// Tie: lowest address wins.
	sweep[2].AppliedLSN = 700
	if best := pickBest(sweep); best == nil || best.Addr != "a" {
		t.Fatalf("tie pickBest = %+v, want a", best)
	}
	// A newer-epoch replica outranks a higher LSN from an older epoch
	// (cross-epoch LSNs are incomparable).
	sweep = append(sweep, NodeStatus{Addr: "z", Ok: true, Status: client.Status{Replica: true, Epoch: 2, AppliedLSN: 10}})
	if best := pickBest(sweep); best == nil || best.Addr != "z" {
		t.Fatalf("epoch pickBest = %+v, want z", best)
	}
	if pickBest(sweep[:2]) != nil {
		t.Fatal("picked an unhealthy node")
	}
}

// TestAutoFailover: the primary dies; the coordinator notices after
// FailAfter sweeps and promotes the most-caught-up replica, which then
// accepts writes at epoch 2 while the other node stays a replica.
func TestAutoFailover(t *testing.T) {
	prim, reps := startCluster(t, 2)
	c, err := New(Config{
		Nodes:         addrs(prim, reps),
		ProbeInterval: 20 * time.Millisecond,
		FailAfter:     2,
		AutoPromote:   true,
		DialTimeout:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	go c.Run(stop)

	// Let a few healthy sweeps pass (no spurious promotion).
	time.Sleep(100 * time.Millisecond)
	for _, r := range reps {
		if !r.eng.IsReplica() {
			t.Fatal("replica promoted while the primary was healthy")
		}
	}

	// Kill the primary: its server (clients and streams), its engine.
	prim.srv.Close()
	prim.eng.Crash()

	deadline := time.Now().Add(10 * time.Second)
	var promoted *node
	for promoted == nil {
		if time.Now().After(deadline) {
			t.Fatal("automatic failover never promoted a replica")
		}
		for _, r := range reps {
			if !r.eng.IsReplica() {
				promoted = r
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := promoted.eng.Epoch(); got != 2 {
		t.Fatalf("promoted epoch = %d, want 2", got)
	}
	s := promoted.eng.NewSession(promoted.eng.Admin())
	if _, err := s.Exec(`INSERT INTO t VALUES (100, 'after-failover')`); err != nil {
		t.Fatalf("write on promoted node: %v", err)
	}
	// Exactly one promotion: the other node is still a replica.
	for _, r := range reps {
		if r != promoted && !r.eng.IsReplica() {
			t.Fatal("both replicas were promoted")
		}
	}
}
