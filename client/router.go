// The routing client: a concurrency-safe pool over per-node Conns
// that sends writes to the current primary, load-balances reads across
// replicas, follows promotions when the primary fails over, and
// preserves read-your-writes through commit-LSN tokens.
//
// The token flow is the part worth spelling out. Every primary write
// returns (epoch, LSN) — the primary's WAL position covering the
// write's commit. The Router keeps the freshest such pair; a read
// routed to a replica carries the LSN as Query.WaitLSN, so the replica
// delays the read until its applied position covers the client's last
// acknowledged write. LSN spaces are only comparable within one epoch
// chain, so after a failover (new epoch) the stale token is not applied
// to replicas: reads fall back to the primary until a write under the
// new epoch re-bases the token. With asynchronous replication a
// failover may lose the tail of acknowledged writes — the token makes
// reads monotone with respect to what *this* Router observed, it
// cannot resurrect commits the failover discarded.
//
// Structure: every statement runs against one replication *group* —
// the whole cluster when unsharded, one shard of the map otherwise —
// and each mechanism is written once, over a group: primaryOf (the
// election), replicasOf (read candidates), read (the candidate loop),
// write (the deadline loop), sessTokens.note (the token update) and
// open (borrow a connection, start the statement, return the
// connection when its stream ends). Everything is a stream: a buffered
// read is its stream drained (rows.go: drain), a write is a one-chunk
// stream drained, a fan-out read (scatter.go) is read once per shard
// under a gateway merge.
//
// Label discipline: the Router multiplexes statements from many
// goroutines over pooled connections, so it only suits workloads whose
// process label stays empty (the common case for web-style read
// scale-out). A statement that contaminates its connection — e.g.
// SELECT addsecrecy(...) — poisons label state the next borrower must
// not inherit; such connections are closed instead of repooled, and
// label-changing statements are routed to the primary like writes
// (a *sharded* Router refuses them outright: there is no single
// primary to pin label state to). Workloads that manage labels
// should dial their own Conn.

package client

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// routedStmt is one statement as the routing paths see it: its text,
// its (cached) analysis, and whether to execute it through prepared
// handles — the Router prepares a statement at most once per pooled
// connection, so repeated executions ship only a handle and
// parameters.
type routedStmt struct {
	sqlText  string
	plan     *stmtPlan
	prepared bool
	// toks, when set, scopes read-your-writes to one RouterSession;
	// nil uses the Router's shared default scope.
	toks *sessTokens
}

// RouterConfig configures a Router.
type RouterConfig struct {
	// Addrs are the client addresses of every cluster node (primary
	// and replicas, in any order); Token and Principal as in Config.
	Addrs     []string
	Token     string
	Principal uint64

	// PoolSize caps idle pooled connections per node (default 4).
	PoolSize int

	// FailoverTimeout bounds how long a write waits for a new primary
	// to appear after the current one fails (default 10s).
	FailoverTimeout time.Duration

	// DialTimeout bounds each probe/pool connection attempt
	// (default 2s).
	DialTimeout time.Duration

	// AllowStaleReads drops the read-your-writes guarantee: reads
	// carry no commit-LSN token, so a replica answers immediately from
	// whatever it has applied — eventual consistency in exchange for
	// not paying replication lag on every read after a write. The
	// guarantee is per-Router either way; workloads that need both pick
	// per call by running two Routers over the same addresses.
	AllowStaleReads bool

	// ShardMap shards the Router explicitly (see shard.go and
	// ARCHITECTURE.md § Sharding). Nil asks every configured address
	// for its SHARDMAP at open and adopts the first answer; when no
	// node is sharded either, the Router runs in the classic
	// one-replication-group mode.
	ShardMap *ShardMap

	// MaxFanout bounds how many shard streams a fan-out read holds in
	// flight at once (default 8): the gateway merge consumes shards in
	// order while up to MaxFanout fragment streams fill their buffers
	// concurrently.
	MaxFanout int

	// DisableAggPushdown turns off partial-aggregate pushdown for
	// split fan-out reads: aggregate statements ship their matching
	// rows and aggregate entirely at the gateway. It exists for
	// internal/suite's router-gather backend, which checks that path
	// against the single node's answers on every aggregate case.
	DisableAggPushdown bool

	// Secrecy, when set, gives every pooled connection a static
	// process label made of these tags: dials adopt the tags before
	// first use, and the repool check expects exactly this label
	// instead of the empty one. That lets one Router serve a tenant
	// cohort that runs contaminated by construction (reads confined by
	// Query by Label, writes stamped with the cohort's tags) while
	// keeping the discipline that a statement which *changes* the label
	// retires its connection. The tag IDs must be valid on every node
	// the Router reaches — on a sharded Router that means creating
	// principals and tags in the same order on every shard.
	Secrecy []Tag
}

// Router routes statements across a replicated IFDB cluster. Safe for
// concurrent use by any number of goroutines.
type Router struct {
	cfg RouterConfig
	// baseLabel is the label every pooled connection is expected to
	// carry: cfg.Secrecy's tags, or empty.
	baseLabel Label

	mu    sync.Mutex
	nodes map[string]*routerNode
	// order lists every node address in registration order (configured
	// addresses, then members adopted maps named). Replaced on growth,
	// never mutated: a returned slice is a stable snapshot.
	order  []string
	smap   *ShardMap
	closed bool

	rr        atomic.Uint64 // read round-robin cursor
	lastProbe atomic.Int64  // unix nanos of the last Reprobe (rate limit)

	// toks is the default read-your-writes scope, shared by every
	// caller that doesn't carve out its own with Session().
	toks *sessTokens
}

// group is one replication group as the routing loops see it: the
// member addresses a statement may run on, the shard-map version it is
// stamped with, and the slot its read-your-writes token lives in. An
// unsharded cluster is the group of every node; shard sid is
// m.Shards[sid]. Election, replica selection, the read loop, the write
// loop and the token update are each written once, over a group.
type group struct {
	members []string // a shard's map-assigned primary first
	ver     uint64   // 0 = unsharded: servers never version-fence it
	slot    int      // the shard id, or wholeCluster
}

// wholeCluster is the token slot (and identity) of the unsharded group.
const wholeCluster = -1

func (g group) String() string {
	if g.slot == wholeCluster {
		return "the cluster"
	}
	return "shard " + strconv.Itoa(g.slot)
}

// routed counts one statement sent to a shard's member.
func (g group) routed() {
	if g.slot != wholeCluster {
		mShardRouted.With(strconv.Itoa(g.slot)).Inc()
	}
}

// shardGroup cuts shard sid's group out of m.
func shardGroup(m *ShardMap, sid uint32) group {
	sh := m.Shards[sid]
	return group{members: append([]string{sh.Primary}, sh.Replicas...), ver: m.Version, slot: int(sid)}
}

// target derives the group a statement addresses from the map an
// attempt holds (nil when unsharded). Every retry re-derives: a
// stale-map refusal's adopted map may have a different shard count, so
// a key may hash elsewhere, an IN list that spanned one shard may span
// several, and a shard id may be gone — which fails the statement
// rather than splitting or guessing.
type target func(m *ShardMap) (group, error)

// cluster is the unsharded cluster as a group: every node.
func (r *Router) cluster() group {
	return group{members: r.addrs(), slot: wholeCluster}
}

// anyNode targets the unsharded cluster.
func (r *Router) anyNode(*ShardMap) (group, error) { return r.cluster(), nil }

// keyTarget targets the one shard owning keys.
func keyTarget(keys []string) target {
	return func(m *ShardMap) (group, error) {
		sid, single := singleShardOf(m, keys)
		if !single {
			return group{}, fmt.Errorf("client: the statement's keys no longer map to one shard under map version %d", m.Version)
		}
		return shardGroup(m, sid), nil
	}
}

// shardTarget targets a shard by id (DDL fan-out, scatter fragments).
func shardTarget(sid uint32) target {
	return func(m *ShardMap) (group, error) {
		if int(sid) >= len(m.Shards) {
			return group{}, fmt.Errorf("client: shard %d no longer exists (map version %d)", sid, m.Version)
		}
		return shardGroup(m, sid), nil
	}
}

// rwTok is the read-your-writes token: the primary WAL position of the
// last acknowledged write to one group, with the epoch that position
// lives in.
type rwTok struct {
	epoch uint64
	lsn   uint64
}

// sessTokens is one read-your-writes scope: the freshest acknowledged
// write position per group slot — each group is its own epoch chain
// and LSN space, so positions are incomparable across shards. The
// Router's default scope is shared by every caller: any caller's
// write advances the token every other caller's reads wait on.
// Session() carves out private scopes so one session's writes don't
// make unrelated sessions pay its replication-lag wait.
type sessTokens struct {
	mu   sync.Mutex
	toks map[int]rwTok
}

func newSessTokens() *sessTokens {
	return &sessTokens{toks: make(map[int]rwTok)}
}

func (t *sessTokens) get(slot int) *rwTok {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tok, ok := t.toks[slot]; ok {
		return &tok
	}
	return nil
}

// note advances slot's token to the result of a primary write: forward
// within an epoch, re-based on the first write of a newer epoch.
func (t *sessTokens) note(slot int, res *Result) {
	if res.LSN == 0 {
		return // in-memory primary: no LSN space, nothing to wait on
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur, ok := t.toks[slot]
	if ok && (cur.epoch > res.Epoch || (cur.epoch == res.Epoch && cur.lsn >= res.LSN)) {
		return
	}
	t.toks[slot] = rwTok{epoch: res.Epoch, lsn: res.LSN}
}

// toksFor resolves a statement's read-your-writes scope.
func (r *Router) toksFor(rs routedStmt) *sessTokens {
	if rs.toks != nil {
		return rs.toks
	}
	return r.toks
}

// RouterSession scopes read-your-writes to one logical caller. Its
// reads wait only for writes issued through the same session (or none
// yet), instead of the Router-wide freshest write; its writes advance
// only its own token. Sessions are cheap (a token scope, no
// connections — statements still route through the Router's shared
// pools) and safe for concurrent use.
type RouterSession struct {
	r    *Router
	toks *sessTokens
}

// Session returns a new private read-your-writes scope on the Router.
func (r *Router) Session() *RouterSession {
	return &RouterSession{r: r, toks: newSessTokens()}
}

// Exec routes one statement under the session's token scope.
func (s *RouterSession) Exec(sqlText string, params ...Value) (*Result, error) {
	return s.ExecContext(context.Background(), sqlText, params...)
}

// ExecContext is Exec with deadline/cancel propagation.
func (s *RouterSession) ExecContext(ctx context.Context, sqlText string, params ...Value) (*Result, error) {
	return s.r.exec(ctx, routedStmt{sqlText: sqlText, plan: planFor(sqlText), toks: s.toks}, params)
}

// Query routes one statement under the session's token scope and
// streams the result.
func (s *RouterSession) Query(sqlText string, params ...Value) (Rows, error) {
	return s.QueryContext(context.Background(), sqlText, params...)
}

// QueryContext is Query with deadline/cancel propagation.
func (s *RouterSession) QueryContext(ctx context.Context, sqlText string, params ...Value) (Rows, error) {
	return s.r.query(ctx, routedStmt{sqlText: sqlText, plan: planFor(sqlText), toks: s.toks}, params)
}

// routerNode is one node's pool and its classification by the last
// probe that reached it.
type routerNode struct {
	addr string

	mu      sync.Mutex
	free    []*Conn
	replica bool
	epoch   uint64
	down    bool
}

// OpenRouter probes every node, locates the primary, and returns a
// ready Router. It fails if no reachable node claims to be a primary.
func OpenRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("client: router needs at least one address")
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 4
	}
	if cfg.FailoverTimeout <= 0 {
		cfg.FailoverTimeout = 10 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.MaxFanout <= 0 {
		cfg.MaxFanout = 8
	}
	r := &Router{cfg: cfg, nodes: make(map[string]*routerNode), toks: newSessTokens()}
	for _, t := range cfg.Secrecy {
		r.baseLabel = r.baseLabel.Add(t)
	}
	r.register(cfg.Addrs...)
	if cfg.ShardMap != nil {
		if err := cfg.ShardMap.Validate(); err != nil {
			return nil, err
		}
		r.adoptMap(cfg.ShardMap.Clone())
	} else {
		r.discoverShardMap()
	}
	if err := r.Reprobe(); err != nil {
		return nil, err
	}
	return r, nil
}

// register adds the addresses the node table hasn't seen. A fresh
// node is unclassified — not a replica, epoch 0, not down — until a
// probe reaches it. Callers hold r.mu (or own r exclusively).
func (r *Router) register(addrs ...string) {
	for _, addr := range addrs {
		if _, ok := r.nodes[addr]; !ok {
			r.nodes[addr] = &routerNode{addr: addr}
			r.order = append(r.order[:len(r.order):len(r.order)], addr)
		}
	}
}

// discoverShardMap asks each configured address for its shard map and
// adopts the first answer (unsharded nodes answer "none").
func (r *Router) discoverShardMap() {
	for _, addr := range r.addrs() {
		conn, err := r.dial(addr)
		if err != nil {
			continue
		}
		m, err := conn.ShardMap()
		conn.Close()
		if err == nil && m != nil {
			r.adoptMap(m)
			return
		}
	}
}

// adoptMap installs a newer shard map (no-op when the Router already
// holds that version or newer) and registers any member addresses the
// node table hasn't seen.
func (r *Router) adoptMap(m *ShardMap) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.smap != nil && m.Version <= r.smap.Version {
		return
	}
	r.smap = m
	for _, sh := range m.Shards {
		r.register(sh.Primary)
		r.register(sh.Replicas...)
	}
}

// shardMap returns the Router's current map (nil = unsharded).
func (r *Router) shardMap() *ShardMap {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.smap
}

// maybeReprobe runs Reprobe at most once per two seconds. Reads call
// it when their candidate pool has shrunk (a node marked down, or
// every replica epoch-stale after a failover), so transient failures
// heal instead of permanently evicting replicas from the read pool.
func (r *Router) maybeReprobe() {
	const every = 2 * time.Second
	now := time.Now().UnixNano()
	last := r.lastProbe.Load()
	if now-last < int64(every) {
		return
	}
	if r.lastProbe.CompareAndSwap(last, now) {
		_ = r.Reprobe()
	}
}

// Reprobe re-classifies every node — role, epoch, reachability — from
// its STATUS. It elects nothing: each group's primary is derived from
// the classification on demand (primaryOf). Called automatically when
// a write can't reach the primary; callers may also invoke it after
// known topology changes.
func (r *Router) Reprobe() error {
	r.lastProbe.Store(time.Now().UnixNano())
	// Probe concurrently: a black-holed host costs one DialTimeout for
	// the whole sweep, not one per node — this runs inline on the
	// triggering statement's path.
	type probe struct {
		addr string
		st   *Status
		err  error
	}
	addrs := r.addrs()
	results := make(chan probe, len(addrs))
	for _, addr := range addrs {
		go func(addr string) {
			conn, err := r.dial(addr)
			if err != nil {
				results <- probe{addr: addr, err: err}
				return
			}
			st, err := conn.Status()
			conn.Close()
			results <- probe{addr: addr, st: st, err: err}
		}(addr)
	}
	// Keep every failed probe's error: a sweep that finds no primary
	// must say *why each node* was unusable, not silently report the
	// aggregate as "unreachable".
	reached := 0
	var probeErrs []error
	for range addrs {
		p := <-results
		if p.err != nil {
			r.setDown(p.addr)
			mShardErrors.Inc()
			probeErrs = append(probeErrs, fmt.Errorf("probe %s: %w", p.addr, p.err))
			continue
		}
		reached++
		// A replica whose stream died fatally keeps answering probes
		// with a frozen applied position; treating it as down keeps
		// read-your-writes reads from stalling on it until its
		// operator restarts it.
		dead := p.st.Replica && p.st.Err != ""
		n := r.node(p.addr)
		n.mu.Lock()
		n.replica, n.epoch, n.down = p.st.Replica, p.st.Epoch, dead
		n.mu.Unlock()
	}
	perr := errors.Join(probeErrs...)
	if r.shardMap() != nil {
		// Sharded mode has no single primary, and a shard mid-failover
		// must not fail the whole sweep. A sweep that reached nobody
		// still fails — OpenRouter against a dead or misaddressed
		// cluster should say so immediately, not spin out a
		// FailoverTimeout on the first statement.
		if reached == 0 {
			return fmt.Errorf("client: no reachable nodes among %v: %w", r.cfg.Addrs, perr)
		}
		return nil
	}
	if r.Primary() == "" {
		if perr != nil {
			return fmt.Errorf("client: no reachable primary among %v: %w", r.cfg.Addrs, perr)
		}
		return fmt.Errorf("client: no reachable primary among %v", r.cfg.Addrs)
	}
	return nil
}

// primaryOf elects g's primary from the last probe's classification:
// the live non-replica member at the highest epoch any member has
// reported — after a failover a fenced stale primary may still answer
// probes, but its epoch gives it away. When only members at an older
// epoch are electable (the promoted node is down, or the sweep has not
// located it yet) there is no primary: a write waits out the failover
// rather than landing in a history the group has already abandoned.
// Before any probe has classified the members every node looks alike
// and the first wins, which for a shard is the map's assignment.
func (r *Router) primaryOf(g group) string {
	best, bestEpoch, top := "", uint64(0), uint64(0)
	for _, addr := range g.members {
		n := r.node(addr)
		if n == nil {
			continue
		}
		n.mu.Lock()
		epoch, electable := n.epoch, !n.down && !n.replica
		n.mu.Unlock()
		top = max(top, epoch)
		if electable && (best == "" || epoch > bestEpoch) {
			best, bestEpoch = addr, epoch
		}
	}
	if bestEpoch < top {
		return ""
	}
	return best
}

// replicasOf orders g's readable replicas round-robin: live replica
// members, epoch-matched to the token when one is in play (a token
// from another epoch is incomparable with the replica's LSN space).
func (r *Router) replicasOf(g group, tok *rwTok) []string {
	var out []string
	for _, addr := range g.members {
		n := r.node(addr)
		if n == nil {
			continue
		}
		n.mu.Lock()
		ok := !n.down && n.replica && (tok == nil || n.epoch == tok.epoch)
		n.mu.Unlock()
		if ok {
			out = append(out, addr)
		}
	}
	if len(out) > 1 {
		rot := int(r.rr.Add(1)) % len(out)
		out = append(out[rot:], out[:rot]...)
	}
	return out
}

// dial opens one configured connection to addr (probes, pool refills,
// and stale-pool retries all share it).
func (r *Router) dial(addr string) (*Conn, error) {
	c, err := DialConfig(Config{
		Addr: addr, Token: r.cfg.Token, Principal: r.cfg.Principal,
		DialTimeout: r.cfg.DialTimeout,
	})
	if err != nil {
		return nil, err
	}
	// Adopt the Router's static cohort label (lazy: it reaches the
	// server coalesced with the connection's first statement).
	for _, t := range r.cfg.Secrecy {
		c.AddSecrecy(t)
	}
	return c, nil
}

// addrs snapshots every node address, in registration order.
func (r *Router) addrs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.order
}

func (r *Router) node(addr string) *routerNode {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nodes[addr]
}

func (r *Router) setDown(addr string) {
	if n := r.node(addr); n != nil {
		n.mu.Lock()
		n.down = true
		n.mu.Unlock()
	}
}

// drainPool empties n's idle pool, closing every connection.
func drainPool(n *routerNode) {
	n.mu.Lock()
	free := n.free
	n.free = nil
	n.mu.Unlock()
	for _, c := range free {
		c.Close()
	}
}

// IdleConns reports the number of idle pooled connections per node
// address — observability for tests and harnesses that assert the
// pool discipline (e.g. that a canceled statement's connection was
// retired rather than repooled).
func (r *Router) IdleConns() map[string]int {
	out := make(map[string]int)
	for _, addr := range r.addrs() {
		n := r.node(addr)
		n.mu.Lock()
		out[addr] = len(n.free)
		n.mu.Unlock()
	}
	return out
}

// Primary returns the address unsharded writes currently route to:
// the election over every node. (A sharded Router has one primary per
// shard; this names the one at the cluster's newest epoch.)
func (r *Router) Primary() string {
	return r.primaryOf(r.cluster())
}

// Close closes every pooled connection and marks the Router unusable:
// later Execs fail, and in-flight statements' checkins close their
// connections instead of repooling them.
func (r *Router) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	for _, addr := range r.addrs() {
		drainPool(r.node(addr))
	}
	return nil
}

// checkout borrows a connection to addr, dialing if the pool is
// empty; pooled reports which (a pooled connection may have gone
// stale while idle, so its first failure warrants a fresh-dial retry
// rather than declaring the node down).
func (r *Router) checkout(addr string) (c *Conn, pooled bool, err error) {
	r.mu.Lock()
	n := r.nodes[addr]
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return nil, false, errors.New("client: router is closed")
	}
	if n == nil {
		return nil, false, fmt.Errorf("client: unknown node %s", addr)
	}
	n.mu.Lock()
	if len(n.free) > 0 {
		c := n.free[len(n.free)-1]
		n.free = n.free[:len(n.free)-1]
		n.mu.Unlock()
		return c, true, nil
	}
	n.mu.Unlock()
	c, err = r.dial(addr)
	return c, false, err
}

// checkin returns a healthy connection to its pool. Contaminated
// connections — any label other than the Router's base label (empty,
// or cfg.Secrecy's tags) — are closed instead: the next borrower must
// not inherit another statement's secrecy state.
func (r *Router) checkin(addr string, c *Conn) {
	if !c.Label().Equal(r.baseLabel) || !c.Integrity().IsEmpty() {
		c.Close()
		return
	}
	r.mu.Lock()
	n := r.nodes[addr]
	closed := r.closed
	r.mu.Unlock()
	if n == nil || closed {
		c.Close()
		return
	}
	n.mu.Lock()
	if len(n.free) < r.cfg.PoolSize {
		n.free = append(n.free, c)
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	c.Close()
}

// release ends a borrowed connection's statement. A connection that
// had a transport error is broken and closed; any other goes back to
// the pool — a canceled statement's too: a CANCEL still in flight names
// that statement, and the server drops it once the statement is over.
func (r *Router) release(addr string, c *Conn) {
	if c.broken {
		c.Close()
		return
	}
	r.checkin(addr, c)
}

// open is the one way a routed statement reaches a node: borrow a
// connection to addr, start rs on it — through the conn's cached
// prepared handle when the statement asked for it, else as one-shot
// text — and tie the stream's end to release, so every statement,
// drained at once by a write or iterated lazily by a read, returns its
// connection the same way. A statement failure (including a stale-map
// refusal) arrives on the stream's first frame and so surfaces here,
// before any row is handed out.
func (r *Router) open(ctx context.Context, rs routedStmt, addr string, waitLSN, shardVer uint64, params []Value) (Rows, error) {
	start := func(c *Conn) (Rows, error) {
		done := func() { r.release(addr, c) }
		var st *Stmt
		if rs.prepared {
			var err error
			if st, err = c.preparedFor(rs.sqlText); err != nil {
				done()
				return nil, err
			}
		}
		return c.queryCtx(ctx, st, waitLSN, shardVer, rs.sqlText, params, done)
	}
	c, pooled, err := r.checkout(addr)
	if err != nil {
		return nil, err
	}
	rows, err := start(c)
	if err != nil && IsTransportError(err) && pooled && !ctxDone(ctx) {
		// The pooled connection likely went stale while idle (server
		// restart, dropped keepalive) — and if one did, its poolmates
		// did too: flush them all and retry once on a genuinely fresh
		// dial. At-least-once caveat as in write(): the stale conn
		// died *sending*, not mid-commit, in the overwhelmingly common
		// case.
		if n := r.node(addr); n != nil {
			drainPool(n)
		}
		mRouterRetries.Inc()
		if c, err = r.dial(addr); err != nil {
			return nil, err
		}
		rows, err = start(c)
	}
	return rows, err
}

// Exec routes one statement: reads to replicas (with the
// read-your-writes token), everything else to the primary. On primary
// failure it reprobes — following a promotion — and retries within
// FailoverTimeout.
func (r *Router) Exec(sql string, params ...Value) (*Result, error) {
	return r.ExecContext(context.Background(), sql, params...)
}

// ExecContext is Exec with deadline/cancel propagation: the context
// bounds routing retries, and its cancellation crosses the wire as a
// CANCEL frame aborting the statement server-side.
func (r *Router) ExecContext(ctx context.Context, sql string, params ...Value) (*Result, error) {
	return r.exec(ctx, routedStmt{sqlText: sql, plan: planFor(sql)}, params)
}

var errTxnControl = errors.New("client: the Router routes statements independently and cannot carry explicit transactions; dial a Conn to the primary instead (or use the ifdb database/sql driver, whose Tx pins one connection)")

// exec buffers a routed statement's result. A read is a drained query
// — exactly what Conn.Exec is to Conn.Query on the wire.
func (r *Router) exec(ctx context.Context, rs routedStmt, params []Value) (*Result, error) {
	if rs.plan.txnControl {
		return nil, errTxnControl
	}
	if !rs.plan.readOnly {
		return r.routeWrite(ctx, rs, params)
	}
	rows, err := r.routeRead(ctx, rs, params)
	if err != nil {
		return nil, err
	}
	return drain(rows)
}

// query streams a routed statement's result; a non-read has nothing
// to stream, so its buffered result is replayed through Rows.
func (r *Router) query(ctx context.Context, rs routedStmt, params []Value) (Rows, error) {
	if rs.plan.txnControl {
		return nil, errTxnControl
	}
	if rs.plan.readOnly {
		return r.routeRead(ctx, rs, params)
	}
	res, err := r.routeWrite(ctx, rs, params)
	if err != nil {
		return nil, err
	}
	return &bufferedRows{res: res, i: -1}, nil
}

// routeRead picks a read's group: the whole cluster when unsharded,
// the owning shard for a statement confined to one key (or to an
// IN (...) list whose keys all hash to one shard); reads without a
// derivable key fan out and merge (scatter.go).
func (r *Router) routeRead(ctx context.Context, rs routedStmt, params []Value) (Rows, error) {
	m := r.shardMap()
	if m == nil {
		return r.read(ctx, rs, r.anyNode, params)
	}
	if _, keys, ok := rs.plan.shardKeys(m, params); ok {
		if _, single := singleShardOf(m, keys); single {
			return r.read(ctx, rs, keyTarget(keys), params)
		}
	}
	return r.scatterRows(ctx, rs, params)
}

// routeWrite picks a non-read's group: the whole cluster when
// unsharded; sharded, DDL fans out to every shard primary (each shard
// holds the full schema), a statement confined to one shard's keys
// routes there, and a write without a derivable key is refused — the
// Router will not guess where a write belongs.
func (r *Router) routeWrite(ctx context.Context, rs routedStmt, params []Value) (*Result, error) {
	m := r.shardMap()
	if m == nil {
		return r.write(ctx, rs, r.anyNode, params)
	}
	if rs.plan.ddl {
		return r.ddlFanout(ctx, rs, m, params)
	}
	table, keys, ok := rs.plan.shardKeys(m, params)
	if !ok {
		if rs.plan.parseErr != nil {
			return nil, fmt.Errorf("client: statement is not routable in a sharded cluster: %w", rs.plan.parseErr)
		}
		if table == "" {
			// Label, sequence, and procedure statements (SELECT
			// addsecrecy(...), nextval, CALL) have no table to route
			// by and no meaningful shard to run on; multi-statement
			// batches land here too — they cannot be confined to one
			// shard as a unit.
			return nil, fmt.Errorf("client: statement is not routable in a sharded cluster (label/sequence/procedure statements and multi-statement batches have no single shard); dial a Conn to the relevant shard's primary")
		}
		return nil, fmt.Errorf("client: cannot derive a shard key: a sharded write must be confined to one shard (single-row INSERT, or key equality / single-shard IN list in WHERE with no OR)")
	}
	return r.write(ctx, rs, keyTarget(keys), params)
}

// ddlFanout applies a schema statement to every shard primary in
// shard order: rows are what shards partition; the schema (and the
// authority state it depends on) must exist everywhere.
func (r *Router) ddlFanout(ctx context.Context, rs routedStmt, m *ShardMap, params []Value) (*Result, error) {
	var last *Result
	for sid := range m.Shards {
		res, err := r.write(ctx, rs, shardTarget(uint32(sid)), params)
		if err != nil {
			return nil, fmt.Errorf("client: DDL on shard %d: %w", sid, err)
		}
		last = res
	}
	return last, nil
}

// write executes on the target group's primary within FailoverTimeout,
// following both promotions and shard-map reconfiguration: a
// connection failure, an ErrReadOnlyReplica answer or a write-fence
// rejection (the node we thought primary was demoted-by-comparison: a
// promotion happened elsewhere) triggers a reprobe and a retry against
// the newly elected primary; a stale-map refusal carries the new map,
// which is adopted and the target re-derived. Failover retries are
// at-least-once — a break between the old primary's commit and the
// Result frame re-executes the statement — so route non-idempotent
// writes through idempotent SQL (keyed inserts, absolute updates)
// when double-apply matters.
func (r *Router) write(ctx context.Context, rs routedStmt, to target, params []Value) (*Result, error) {
	deadline := time.Now().Add(r.cfg.FailoverTimeout)
	var lastErr error
	for {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		g, err := to(r.shardMap())
		if err != nil {
			return nil, err
		}
		if addr := r.primaryOf(g); addr != "" {
			g.routed()
			var res *Result
			rows, err := r.open(ctx, rs, addr, 0, g.ver, params)
			if err == nil {
				res, err = drain(rows)
			}
			if err == nil {
				r.toksFor(rs).note(g.slot, res)
				return res, nil
			}
			if ctxDone(ctx) {
				return nil, err
			}
			lastErr = err
			if nm := StaleShardMap(err); nm != nil {
				mStaleMapRefusals.Inc()
				if nm.Version > g.ver {
					r.adoptMap(nm)
					mRouterRetries.Inc()
					continue // re-route immediately under the new map
				}
				// The node is behind our map (mid-reconfiguration): the
				// deadline loop below retries until it catches up.
			} else if !IsTransportError(err) && !isReadOnlyReplicaErr(err) && !isFencedErr(err) {
				return nil, err // real SQL error: routing can't help
			}
		} else if lastErr == nil {
			lastErr = fmt.Errorf("client: no known primary for %s", g)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("client: write to %s failed over for %v: %w", g, r.cfg.FailoverTimeout, lastErr)
		}
		// Follow the promotion; rate-limited so a herd of blocked
		// writers shares one probe sweep instead of each serially
		// dialing every node per retry.
		mRouterRetries.Inc()
		r.maybeReprobe()
		time.Sleep(100 * time.Millisecond)
	}
}

// read opens a read stream on the target group: its replicas first,
// round-robin, each carrying the group's read-your-writes token as
// WaitLSN; its primary, which answers without any wait, as the last
// resort. Routing failures are retried here, before the stream is
// handed out; once rows flow, failures surface through the Rows. A
// stale-map refusal carrying a newer map is adopted and the read
// re-routed once, with the target re-derived.
func (r *Router) read(ctx context.Context, rs routedStmt, to target, params []Value) (Rows, error) {
	var g group
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		var err error
		if g, err = to(r.shardMap()); err != nil {
			return nil, err
		}
		var tok *rwTok
		if !r.cfg.AllowStaleReads {
			tok = r.toksFor(rs).get(g.slot)
		}
		replicas := r.replicasOf(g, tok)
		if len(replicas) == 0 && (len(g.members) > 1 || r.primaryOf(g) == "") {
			// A group that should offer a node to read from offers
			// none (replicas all down, or all epoch-stale after a
			// failover; or not even a primary): heal the node table
			// for future reads while this one falls through to the
			// primary. A lone healthy primary has nothing to heal.
			r.maybeReprobe()
			replicas = r.replicasOf(g, tok)
		}
		adopted := false
		for _, addr := range append(replicas, "") {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
			wait, lastResort := uint64(0), addr == ""
			if lastResort {
				if addr = r.primaryOf(g); addr == "" {
					continue
				}
			} else if tok != nil {
				wait = tok.lsn
			}
			g.routed()
			rows, err := r.open(ctx, rs, addr, wait, g.ver, params)
			if err == nil {
				return rows, nil
			}
			if ctxDone(ctx) {
				return nil, err // the caller gave up: that says nothing about the node
			}
			lastErr = err
			if nm := StaleShardMap(err); nm != nil {
				mStaleMapRefusals.Inc()
				if nm.Version > g.ver {
					r.adoptMap(nm)
					mRouterRetries.Inc()
					adopted = true
					break // second attempt under the new map
				}
				continue // node behind our map: try another
			}
			if isReadOnlyReplicaErr(err) {
				// Misclassified mutator (e.g. a stored procedure that
				// writes, invoked as SELECT proc(...)): the primary
				// can execute it.
				continue
			}
			if !IsTransportError(err) && !isWaitTimeoutErr(err) {
				return nil, err // genuine SQL error: every node agrees
			}
			// Unreachable, or a replica too far behind (or its stream
			// died with its applied position frozen): take the replica
			// out of the rotation — the next reprobe restores it if it
			// was merely lagging — and try the next. The primary is the
			// last resort and has no stand-in, so only a probe that
			// cannot reach it retires it.
			if !lastResort {
				r.setDown(addr)
			}
			if IsTransportError(err) {
				r.maybeReprobe()
			}
		}
		if !adopted {
			break
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("client: no nodes available in %s", g)
	}
	return nil, lastErr
}

// isReadOnlyReplicaErr matches the server-reported rejection a demoted
// (or never-primary) node gives writes; it signals the Router to chase
// the real primary rather than surface the error.
func isReadOnlyReplicaErr(err error) bool {
	return err != nil && strings.Contains(err.Error(), "read-only replica")
}

// isFencedErr matches a write-fenced primary's rejection (it observed
// a newer epoch): like a read-only-replica answer, it means a
// promotion happened elsewhere and the Router should chase it.
func isFencedErr(err error) bool {
	return err != nil && strings.Contains(err.Error(), "engine: fenced")
}

// isWaitTimeoutErr matches a replica's read-your-writes wait timeout —
// a routing signal (pick another node), not a statement failure.
func isWaitTimeoutErr(err error) bool {
	return err != nil && strings.Contains(err.Error(), "read-your-writes wait timed out")
}
