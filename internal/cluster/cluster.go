// Package cluster implements the failover coordinator for a
// replicated IFDB deployment: a health checker that probes every
// node's replication role (its ifdb_node row), detects primary
// failure, and promotes the most-caught-up replica (SELECT promote()) —
// manually (PromoteBest, what operators' runbooks call; ifdb-cli's
// \promote instead promotes the node it is connected to) or
// automatically (Config.AutoPromote, after FailAfter consecutive failed
// primary probes).
//
// The coordinator is deliberately an *observer with one verb*: all
// safety lives below it. Promotion bumps the WAL epoch on the promoted
// node, and epoch fencing in internal/repl guarantees a stale primary
// — one the coordinator gave up on that was merely partitioned — can
// never feed bytes to the promoted side or its replicas. The worst a
// confused coordinator can do is promote a lagging replica, losing the
// unshipped tail of an asynchronous stream; it cannot corrupt or fork
// a node's history. (It is also a single observer: see ARCHITECTURE.md
// § Failover & epochs, "Known limitations", before running two.)
//
// The coordinator watches replication groups, as the Router routes
// over them: an unsharded cluster is one group of Config.Nodes, and
// with Config.ShardMap each shard is its own epoch-fenced group. Health
// is tracked per group, and a failover promotes the most-caught-up
// replica *within the dead primary's group*. A shard's failover then
// bumps the shard map's version with the new primary recorded, so
// routers following the map (which nodes serve as SQL's shard_map())
// re-route that shard while every other shard keeps its assignment.
// Version fencing of statements mirrors epoch fencing one level up;
// see ARCHITECTURE.md § Sharding.
package cluster

import (
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"time"

	"ifdb/client"
	"ifdb/internal/obs"
	"ifdb/internal/wire"
)

// Config configures a Coordinator.
type Config struct {
	// Nodes are the client addresses of every cluster node (primary
	// and replicas); Token authenticates probes (the platform token).
	Nodes []string
	Token string

	// ProbeInterval paces health probes (default 1s).
	ProbeInterval time.Duration

	// FailAfter is how many consecutive sweeps without a reachable
	// primary trigger automatic failover (default 3).
	FailAfter int

	// AutoPromote enables automatic failover. Off, the coordinator
	// only observes; promotion happens through PromoteBest.
	AutoPromote bool

	// DialTimeout bounds each probe connection (default 2s).
	DialTimeout time.Duration

	// Logger, when set, receives probe and failover diagnostics.
	Logger *slog.Logger

	// ShardMap, when set, runs the coordinator in sharded mode: health
	// and failover are per shard, and a promotion rewrites the map (new
	// primary recorded, version bumped). Nodes may be left empty — the
	// map's members are the node set.
	ShardMap *wire.ShardMap
}

// NodeStatus is one node's health as seen by a probe sweep: its row
// of ifdb_node, whose Err is the probe's own error when !Ok.
type NodeStatus struct {
	Addr string
	// Ok reports the probe reached the node and read its ifdb_node row.
	Ok bool
	client.Status
	// Lag is WALEnd(primary) - AppliedLSN(this replica), when a
	// primary was reachable in the same sweep (LSN spaces only compare
	// within one epoch, so it is set only for same-epoch replicas).
	Lag uint64
}

// Coordinator watches a cluster and promotes on failure. Run it from
// one place (an operator box, or alongside one of the servers); it
// holds no state the cluster depends on — restarting it is free.
type Coordinator struct {
	cfg Config

	// shardFails counts consecutive sweeps with no reachable primary,
	// per group slot. Touched only by the Run goroutine.
	shardFails map[int]int

	// smap is the live shard map: copy-on-write (a failover installs
	// an edited clone under mu), so ShardMap callers — the wire
	// server's shard_map() and stale-map fences — can hold a returned
	// pointer without observing a half-edit.
	mu   sync.Mutex
	smap *wire.ShardMap
}

// New creates a coordinator.
func New(cfg Config) (*Coordinator, error) {
	if cfg.ShardMap != nil {
		if err := cfg.ShardMap.Validate(); err != nil {
			return nil, err
		}
		if len(cfg.Nodes) == 0 {
			for _, sh := range cfg.ShardMap.Shards {
				cfg.Nodes = append(cfg.Nodes, sh.Primary)
				cfg.Nodes = append(cfg.Nodes, sh.Replicas...)
			}
		}
	}
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one node")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 3
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	c := &Coordinator{cfg: cfg, shardFails: make(map[int]int)}
	if cfg.ShardMap != nil {
		c.smap = cfg.ShardMap.Clone()
	}
	return c, nil
}

// ShardMap returns the coordinator's current shard map (nil when
// unsharded). The returned map is immutable — failovers install a
// fresh clone — so it is safe to encode concurrently; wire.Server's
// ShardMap hook serves it to routers and peers.
func (c *Coordinator) ShardMap() *wire.ShardMap {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.smap
}

func (c *Coordinator) logger() *slog.Logger {
	if c.cfg.Logger != nil {
		return c.cfg.Logger
	}
	return obs.Nop()
}

// Probe sweeps every node once and returns their statuses, with
// replica lag computed against the highest-epoch reachable primary.
// Nodes are probed concurrently: sweep latency bounds failover time,
// so an unreachable (black-holed) node must cost one DialTimeout for
// the whole sweep, not one per node.
func (c *Coordinator) Probe() []NodeStatus {
	return c.probeAddrs(c.cfg.Nodes)
}

// probeAddrs is Probe over an explicit address set (a group's
// members).
func (c *Coordinator) probeAddrs(addrs []string) []NodeStatus {
	out := make([]NodeStatus, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			ns := NodeStatus{Addr: addr}
			defer func() { out[i] = ns }()
			conn, err := client.DialConfig(client.Config{
				Addr: addr, Token: c.cfg.Token, DialTimeout: c.cfg.DialTimeout,
			})
			if err != nil {
				ns.Err = err.Error()
				mProbeFailures.Inc()
				return
			}
			st, err := conn.Status()
			conn.Close()
			if err != nil {
				ns.Err = err.Error()
				mProbeFailures.Inc()
				return
			}
			ns.Ok, ns.Status = true, *st
		}(i, addr)
	}
	wg.Wait()
	// Lag: against the primary at the highest epoch seen this sweep.
	var primary *NodeStatus
	for i := range out {
		n := &out[i]
		if n.Ok && !n.Replica && (primary == nil || n.Epoch > primary.Epoch) {
			primary = n
		}
	}
	if primary != nil {
		for i := range out {
			n := &out[i]
			if n.Ok && n.Replica && n.Epoch == primary.Epoch && primary.WALEnd > n.AppliedLSN {
				n.Lag = primary.WALEnd - n.AppliedLSN
			}
		}
	}
	return out
}

// hasPrimary reports whether a sweep saw a live primary *at the
// highest epoch any reachable node knows*. A fenced stale primary —
// one a failover already moved past, still running because nobody
// stopped it — answers probes as a primary at an older epoch; counting
// it would suppress failover forever after the real primary dies.
func hasPrimary(sweep []NodeStatus) bool {
	var maxEpoch uint64
	for _, n := range sweep {
		if n.Ok && n.Epoch > maxEpoch {
			maxEpoch = n.Epoch
		}
	}
	for _, n := range sweep {
		if n.Ok && !n.Replica && n.Epoch == maxEpoch {
			return true
		}
	}
	return false
}

// pickBest selects the promotion candidate: the healthy replica with
// the highest applied LSN — the least data lost to the asynchronous
// tail — at the highest replica epoch seen (applied positions only
// compare within one epoch chain). Ties break by address for
// determinism. A replica whose stream died fatally still qualifies:
// its applied position is real, and the primary it lost is exactly the
// one being failed away from.
func pickBest(sweep []NodeStatus) *NodeStatus {
	var epoch uint64
	for i := range sweep {
		if n := &sweep[i]; n.Ok && n.Replica && n.Epoch > epoch {
			epoch = n.Epoch
		}
	}
	var best *NodeStatus
	for i := range sweep {
		n := &sweep[i]
		if !n.Ok || !n.Replica || n.Epoch != epoch {
			continue
		}
		if best == nil || n.AppliedLSN > best.AppliedLSN ||
			(n.AppliedLSN == best.AppliedLSN && n.Addr < best.Addr) {
			best = n
		}
	}
	return best
}

// group is one replication group the coordinator watches: a shard of
// the map, or the whole unsharded cluster (slot wholeCluster), which
// is the group of cfg.Nodes. Health, failure counts and promotion are
// each written once, over a group.
type group struct {
	slot    int      // the shard id, or wholeCluster
	members []string // a shard's map-assigned primary first
}

// wholeCluster is the slot of the unsharded cluster.
const wholeCluster = -1

func (g group) String() string {
	if g.slot == wholeCluster {
		return "the cluster"
	}
	return "shard " + strconv.Itoa(g.slot)
}

// groups lists the groups to watch under the current map.
func (c *Coordinator) groups() []group {
	m := c.ShardMap()
	if m == nil {
		return []group{{slot: wholeCluster, members: c.cfg.Nodes}}
	}
	gs := make([]group, len(m.Shards))
	for i, sh := range m.Shards {
		gs[i] = group{slot: int(sh.ID), members: append([]string{sh.Primary}, sh.Replicas...)}
	}
	return gs
}

// PromoteBest promotes the most-caught-up healthy replica (ties broken
// by address, for determinism) and returns its address. It refuses to
// act while a primary is still reachable, unless force is set — the
// manual override for planned switchovers where the operator stops the
// old primary themselves. In sharded mode use PromoteBestShard: "the
// cluster" has no single primary to reason about.
func (c *Coordinator) PromoteBest(force bool) (string, error) {
	g := c.groups()[0]
	if g.slot != wholeCluster {
		return "", fmt.Errorf("cluster: sharded coordinator: promote per shard with PromoteBestShard")
	}
	return c.promoteGroup(g, force)
}

// PromoteBestShard promotes the most-caught-up healthy replica of one
// shard and rewrites the shard map: the promoted node becomes the
// shard's primary, the old primary is kept as a (future) replica —
// it rejoins by re-bootstrapping under the new epoch — and the map
// version is bumped so routers re-route on their next statement.
func (c *Coordinator) PromoteBestShard(sid uint32, force bool) (string, error) {
	gs := c.groups()
	if gs[0].slot == wholeCluster || int(sid) >= len(gs) {
		return "", fmt.Errorf("cluster: no shard %d", sid)
	}
	return c.promoteGroup(gs[sid], force)
}

// promoteGroup promotes the best candidate of a fresh sweep of g,
// unless (without force) g still has a reachable primary. A shard
// group records its new primary in the map.
func (c *Coordinator) promoteGroup(g group, force bool) (string, error) {
	sweep := c.probeAddrs(g.members)
	if !force && hasPrimary(sweep) {
		if g.slot == wholeCluster {
			return "", fmt.Errorf("cluster: a primary is still reachable; not promoting (use force for a planned switchover)")
		}
		return "", fmt.Errorf("cluster: shard %d still has a reachable primary; not promoting", g.slot)
	}
	best := pickBest(sweep)
	if best == nil {
		return "", fmt.Errorf("cluster: no healthy replica to promote")
	}
	conn, err := client.DialConfig(client.Config{
		Addr: best.Addr, Token: c.cfg.Token, DialTimeout: c.cfg.DialTimeout,
	})
	if err != nil {
		return "", fmt.Errorf("cluster: dial %s for promotion: %w", best.Addr, err)
	}
	defer conn.Close()
	st, err := conn.PromoteNode()
	if err != nil {
		return "", fmt.Errorf("cluster: promote %s: %w", best.Addr, err)
	}
	mFailovers.Inc()
	gEpoch.Set(int64(st.Epoch))
	c.logger().Info("cluster: promoted replica to primary", "addr", best.Addr, "epoch", st.Epoch)
	if g.slot != wholeCluster {
		c.recordShardPrimary(uint32(g.slot), best.Addr)
	}
	return best.Addr, nil
}

// recordShardPrimary installs a fresh map clone with addr as shard
// sid's primary and the version bumped.
func (c *Coordinator) recordShardPrimary(sid uint32, addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.smap.Clone()
	sh := &m.Shards[sid]
	members := append([]string{sh.Primary}, sh.Replicas...)
	sh.Primary = addr
	sh.Replicas = sh.Replicas[:0]
	for _, a := range members {
		if a != addr {
			sh.Replicas = append(sh.Replicas, a)
		}
	}
	m.Version++
	c.smap = m
	c.logger().Info("cluster: shard map updated", "version", m.Version, "shard", sid, "primary", addr)
}

// Run probes on the configured interval until stop closes, counting
// each group's consecutive primary-less sweeps and (with AutoPromote)
// promoting the most-caught-up replica of a group once FailAfter is
// reached. Groups fail independently: one shard mid-failover never
// blocks another's health accounting.
func (c *Coordinator) Run(stop <-chan struct{}) {
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		for _, g := range c.groups() {
			if hasPrimary(c.probeAddrs(g.members)) {
				c.shardFails[g.slot] = 0
				continue
			}
			c.shardFails[g.slot]++
			c.logger().Warn("cluster: no reachable primary", "group", g,
				"sweeps", c.shardFails[g.slot], "fail_after", c.cfg.FailAfter)
			if !c.cfg.AutoPromote || c.shardFails[g.slot] < c.cfg.FailAfter {
				continue
			}
			addr, err := c.promoteGroup(g, false)
			if err != nil {
				c.logger().Error("cluster: automatic failover failed", "group", g, "err", err)
				continue
			}
			c.logger().Warn("cluster: automatic failover complete", "group", g, "primary", addr)
			c.shardFails[g.slot] = 0
		}
	}
}
