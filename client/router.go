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
	// rows and aggregate entirely at the gateway. Exists as the
	// ship-all-rows baseline for the scatter-agg benchmark.
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

	mu      sync.Mutex
	nodes   map[string]*routerNode
	primary string // addr of the current primary ("" = unknown)
	epoch   uint64 // highest epoch observed across the cluster
	smap    *ShardMap
	closed  bool

	rr        atomic.Uint64 // read round-robin cursor
	lastProbe atomic.Int64  // unix nanos of the last Reprobe (rate limit)

	// toks is the default read-your-writes scope, shared by every
	// caller that doesn't carve out its own with Session().
	toks *sessTokens
}

// rwTok is the read-your-writes token: the primary WAL position of the
// Router's last acknowledged write, with the epoch that position lives
// in.
type rwTok struct {
	epoch uint64
	lsn   uint64
}

// sessTokens is one read-your-writes scope: the freshest acknowledged
// write position, global (unsharded mode) and per shard — each shard
// is its own replication group with its own epoch chain and LSN
// space, so one global token would be incomparable across shards.
// The Router's default scope is shared by every caller: any caller's
// write advances the token every other caller's reads wait on.
// Session() carves out private scopes so one session's writes don't
// make unrelated sessions pay its replication-lag wait.
type sessTokens struct {
	token atomic.Pointer[rwTok]
	mu    sync.Mutex
	stoks map[uint32]rwTok
}

func newSessTokens() *sessTokens {
	return &sessTokens{stoks: make(map[uint32]rwTok)}
}

func (t *sessTokens) global() *rwTok { return t.token.Load() }

func (t *sessTokens) shard(sid uint32) *rwTok {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tok, ok := t.stoks[sid]; ok {
		return &tok
	}
	return nil
}

// noteWrite advances the global token to the result of a primary
// write (forward within an epoch, re-based on the first write of a
// newer epoch).
func (t *sessTokens) noteWrite(res *Result) {
	if res.LSN == 0 {
		return // in-memory primary: no LSN space, nothing to wait on
	}
	for {
		cur := t.token.Load()
		if cur != nil && cur.epoch == res.Epoch && cur.lsn >= res.LSN {
			return
		}
		if cur != nil && cur.epoch > res.Epoch {
			return
		}
		if t.token.CompareAndSwap(cur, &rwTok{epoch: res.Epoch, lsn: res.LSN}) {
			return
		}
	}
}

// noteShardWrite advances shard sid's token under the same rules.
func (t *sessTokens) noteShardWrite(sid uint32, res *Result) {
	if res.LSN == 0 {
		return // in-memory shard: no LSN space, nothing to wait on
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur, ok := t.stoks[sid]
	if ok && (cur.epoch > res.Epoch || (cur.epoch == res.Epoch && cur.lsn >= res.LSN)) {
		return
	}
	t.stoks[sid] = rwTok{epoch: res.Epoch, lsn: res.LSN}
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
	for _, addr := range cfg.Addrs {
		r.nodes[addr] = &routerNode{addr: addr}
	}
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
		for _, addr := range append([]string{sh.Primary}, sh.Replicas...) {
			if _, ok := r.nodes[addr]; !ok {
				r.nodes[addr] = &routerNode{addr: addr}
			}
		}
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

// Reprobe re-discovers every node's role and the current primary.
// Called automatically when a write can't reach the primary; callers
// may also invoke it after known topology changes.
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
				r.setDown(addr)
				mShardErrors.Inc()
				results <- probe{addr: addr, err: fmt.Errorf("probe %s: %w", addr, err)}
				return
			}
			st, err := conn.Status()
			conn.Close()
			if err != nil {
				r.setDown(addr)
				mShardErrors.Inc()
				results <- probe{addr: addr, err: fmt.Errorf("probe %s: %w", addr, err)}
				return
			}
			results <- probe{addr: addr, st: st}
		}(addr)
	}
	// Keep every failed probe's error: a sweep that finds no primary
	// must say *why each node* was unusable, not silently report the
	// aggregate as "unreachable".
	var probes []probe
	var probeErrs []error
	for range addrs {
		p := <-results
		if p.st != nil {
			probes = append(probes, p)
		} else if p.err != nil {
			probeErrs = append(probeErrs, p.err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.primary = ""
	for _, p := range probes {
		n := r.nodes[p.addr]
		// A replica whose stream died fatally keeps answering probes
		// with a frozen applied position; treating it as down keeps
		// read-your-writes reads from stalling on it until its
		// operator restarts it.
		dead := p.st.Replica && p.st.Err != ""
		n.mu.Lock()
		n.replica, n.epoch, n.down = p.st.Replica, p.st.Epoch, dead
		n.mu.Unlock()
		if p.st.Epoch > r.epoch {
			r.epoch = p.st.Epoch
		}
	}
	// The primary is the non-replica at the highest epoch: after a
	// failover a fenced stale primary may still answer probes, but its
	// epoch gives it away.
	for _, p := range probes {
		if !p.st.Replica && p.st.Epoch == r.epoch {
			r.primary = p.addr
		}
	}
	if r.primary == "" {
		perr := errors.Join(probeErrs...)
		if r.smap != nil {
			// Sharded mode has no single primary: per-shard primaries
			// are derived from the freshly-probed roles on demand, and a
			// shard mid-failover must not fail the whole sweep. A sweep
			// that reached nobody still fails — OpenRouter against a
			// dead or misaddressed cluster should say so immediately,
			// not spin out a FailoverTimeout on the first statement.
			if len(probes) == 0 {
				return fmt.Errorf("client: no reachable nodes among %v: %w", r.cfg.Addrs, perr)
			}
			return nil
		}
		if perr != nil {
			return fmt.Errorf("client: no reachable primary among %v: %w", r.cfg.Addrs, perr)
		}
		return fmt.Errorf("client: no reachable primary among %v", r.cfg.Addrs)
	}
	return nil
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

func (r *Router) addrs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.nodes))
	for a := range r.nodes {
		out = append(out, a)
	}
	return out
}

func (r *Router) setDown(addr string) {
	r.mu.Lock()
	n := r.nodes[addr]
	r.mu.Unlock()
	if n != nil {
		n.mu.Lock()
		n.down = true
		n.mu.Unlock()
	}
}

// flushPool closes every idle connection to addr (they went stale
// together: a restarted server orphans the whole pool at once).
func (r *Router) flushPool(addr string) {
	r.mu.Lock()
	n := r.nodes[addr]
	r.mu.Unlock()
	if n == nil {
		return
	}
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
	r.mu.Lock()
	nodes := make([]*routerNode, 0, len(r.nodes))
	for _, n := range r.nodes {
		nodes = append(nodes, n)
	}
	r.mu.Unlock()
	out := make(map[string]int, len(nodes))
	for _, n := range nodes {
		n.mu.Lock()
		out[n.addr] = len(n.free)
		n.mu.Unlock()
	}
	return out
}

// Primary returns the address writes currently route to.
func (r *Router) Primary() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.primary
}

// Close closes every pooled connection and marks the Router unusable:
// later Execs fail, and in-flight statements' checkins close their
// connections instead of repooling them.
func (r *Router) Close() error {
	r.mu.Lock()
	r.closed = true
	nodes := make([]*routerNode, 0, len(r.nodes))
	for _, n := range r.nodes {
		nodes = append(nodes, n)
	}
	r.mu.Unlock()
	for _, n := range nodes {
		n.mu.Lock()
		free := n.free
		n.free = nil
		n.mu.Unlock()
		for _, c := range free {
			c.Close()
		}
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

// Statement classification — read-only (replica-balanced), DDL,
// transaction control, side-effecting — lives in classify.go: one
// parser-backed classifier shared by the text path, the prepared
// path, and shard routing, with the old prefix scans kept only as
// the fallback for unparsable input.

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

func (r *Router) exec(ctx context.Context, rs routedStmt, params []Value) (*Result, error) {
	if rs.plan.txnControl {
		return nil, errors.New("client: the Router routes statements independently and cannot carry explicit transactions; dial a Conn to the primary instead (or use the ifdb database/sql driver, whose Tx pins one connection)")
	}
	if r.shardMap() != nil {
		return r.execSharded(ctx, rs, params)
	}
	if rs.plan.readOnly {
		return r.read(ctx, rs, params)
	}
	return r.write(ctx, rs, params)
}

// write executes on the primary, following promotions: a connection
// failure or an ErrReadOnlyReplica answer (the node we thought primary
// was demoted-by-comparison: a promotion happened elsewhere) triggers
// a reprobe and a retry against the new primary. Failover retries are
// at-least-once — a break between the old primary's commit and the
// Result frame re-executes the statement — so route non-idempotent
// writes through idempotent SQL (keyed inserts, absolute updates)
// when double-apply matters.
func (r *Router) write(ctx context.Context, rs routedStmt, params []Value) (*Result, error) {
	deadline := time.Now().Add(r.cfg.FailoverTimeout)
	var lastErr error
	for {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		addr := r.Primary()
		if addr != "" {
			res, err := r.execOn(ctx, rs, addr, 0, params)
			if err == nil {
				r.toksFor(rs).noteWrite(res)
				return res, nil
			}
			lastErr = err
			if !retryable(err) && !isReadOnlyReplicaErr(err) && !isFencedErr(err) {
				return nil, err // real SQL error: routing can't help
			}
		} else if lastErr == nil {
			lastErr = errors.New("client: no known primary")
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("client: write failed over for %v: %w", r.cfg.FailoverTimeout, lastErr)
		}
		// Follow the promotion; rate-limited so a herd of blocked
		// writers shares one probe sweep instead of each serially
		// dialing every node per retry.
		mRouterRetries.Inc()
		r.maybeReprobe()
		time.Sleep(100 * time.Millisecond)
	}
}

// read load-balances across replicas whose epoch matches the token
// (stale-epoch tokens would be incomparable), falling back to the
// primary when no replica qualifies or every candidate fails.
func (r *Router) read(ctx context.Context, rs routedStmt, params []Value) (*Result, error) {
	var tok *rwTok
	if !r.cfg.AllowStaleReads {
		tok = r.toksFor(rs).global()
	}
	candidates := r.readCandidates(tok)
	if len(candidates) == 0 {
		// No usable replica (all down, or all epoch-stale after a
		// failover): heal the pool for future reads while this one
		// falls through to the primary.
		r.maybeReprobe()
		candidates = r.readCandidates(tok)
	}
	var lastErr error
	for _, addr := range candidates {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		wait := uint64(0)
		if tok != nil {
			wait = tok.lsn
		}
		res, err := r.execOn(ctx, rs, addr, wait, params)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if !retryable(err) {
			if isReadOnlyReplicaErr(err) {
				// Misclassified mutator (e.g. a stored procedure that
				// writes, invoked as SELECT proc(...)): the primary
				// below can execute it.
				continue
			}
			if !isWaitTimeoutErr(err) {
				return nil, err // genuine SQL error: every node agrees
			}
			// The replica is too far behind (or its stream died with
			// its applied position frozen): take it out of the pool —
			// the next reprobe restores it if it was merely lagging —
			// and let the primary below answer without any wait.
			r.setDown(addr)
			continue
		}
		r.setDown(addr)
		r.maybeReprobe()
	}
	// Last resort: the primary answers reads without any wait.
	if addr := r.Primary(); addr != "" {
		res, err := r.execOn(ctx, rs, addr, 0, params)
		if err == nil {
			return res, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = errors.New("client: no nodes available")
	}
	return nil, lastErr
}

// readCandidates orders replica addresses round-robin, skipping down
// nodes and epoch-mismatched replicas when a token is in play.
func (r *Router) readCandidates(tok *rwTok) []string {
	r.mu.Lock()
	var reps []*routerNode
	for _, n := range r.nodes {
		if n.addr != r.primary {
			reps = append(reps, n)
		}
	}
	r.mu.Unlock()
	var out []string
	for _, n := range reps {
		n.mu.Lock()
		ok := !n.down && n.replica && (tok == nil || n.epoch == tok.epoch)
		n.mu.Unlock()
		if ok {
			out = append(out, n.addr)
		}
	}
	if len(out) > 1 {
		rot := int(r.rr.Add(1)) % len(out)
		out = append(out[rot:], out[:rot]...)
	}
	return out
}

func (r *Router) execOn(ctx context.Context, rs routedStmt, addr string, waitLSN uint64, params []Value) (*Result, error) {
	return r.execOnShard(ctx, rs, addr, waitLSN, 0, params)
}

// execOnConn runs one statement on a borrowed connection — through
// the conn's cached prepared handle when the routed statement asked
// for it, else as one-shot text. Either way it is the v2 streaming
// path under the hood.
func execOnConn(ctx context.Context, c *Conn, rs routedStmt, waitLSN, shardVer uint64, params []Value) (*Result, error) {
	if rs.prepared {
		st, err := c.preparedFor(rs.sqlText)
		if err != nil {
			return nil, err
		}
		return c.execCtx(ctx, st, waitLSN, shardVer, "", params)
	}
	return c.execCtx(ctx, nil, waitLSN, shardVer, rs.sqlText, params)
}

func (r *Router) execOnShard(ctx context.Context, rs routedStmt, addr string, waitLSN, shardVer uint64, params []Value) (*Result, error) {
	c, pooled, err := r.checkout(addr)
	if err != nil {
		return nil, err
	}
	res, err := execOnConn(ctx, c, rs, waitLSN, shardVer, params)
	if err != nil && retryable(err) && pooled && !ctxDone(ctx) {
		// The pooled connection likely went stale while idle (server
		// restart, dropped keepalive) — and if one did, its poolmates
		// did too: flush them all and retry once on a genuinely fresh
		// dial. At-least-once caveat as in write(): the stale conn
		// died *sending*, not mid-commit, in the overwhelmingly common
		// case.
		c.Close()
		r.flushPool(addr)
		mRouterRetries.Inc()
		if c, err = r.dial(addr); err != nil {
			return nil, err
		}
		res, err = execOnConn(ctx, c, rs, waitLSN, shardVer, params)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Canceled cleanly, but the out-of-band CANCEL may still be
			// in flight; repooling would let it land on the next
			// borrower's statement. Retire the session instead.
			c.Close()
		} else if retryable(err) {
			// Transport-level failure: the connection is broken.
			c.Close()
		} else {
			// Server-reported error: the connection is healthy (and
			// its label state already re-synced); keep it pooled.
			r.checkin(addr, c)
		}
		return nil, err
	}
	r.checkin(addr, c)
	return res, nil
}

// ---------------------------------------------------------------------------
// Sharded routing (see shard.go for key extraction and the package
// comment of client/shard.go for the routing rules).

// execSharded routes one statement across the shard map: DDL fans out
// to every shard primary (each shard holds the full schema), a
// statement confined to one key — or to an IN (...) list whose keys
// all hash to one shard — routes to its owning shard, reads without a
// derivable key fan out and merge, and writes without one are refused
// — the Router will not guess where a write belongs.
func (r *Router) execSharded(ctx context.Context, rs routedStmt, params []Value) (*Result, error) {
	if rs.plan.ddl {
		return r.ddlFanout(ctx, rs, params)
	}
	m := r.shardMap()
	table, keys, ok := rs.plan.shardKeys(m, params)
	if rs.plan.readOnly {
		if ok {
			if _, single := singleShardOf(m, keys); single {
				return r.readSharded(ctx, rs, func(m *ShardMap) (uint32, bool) {
					return singleShardOf(m, keys)
				}, params)
			}
		}
		return r.fanoutRead(ctx, rs, params)
	}
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
	return r.writeKeys(ctx, rs, keys, params)
}

// writeKeys writes the statement to the shard owning keys, re-hashing
// under whatever map each retry holds (a stale-map refusal's adopted
// map may have a different shard count; an IN list that spanned one
// shard under the old map may span several under the new one, which
// refuses the write rather than splitting it).
func (r *Router) writeKeys(ctx context.Context, rs routedStmt, keys []string, params []Value) (*Result, error) {
	return r.writeSharded(ctx, rs, func(m *ShardMap) (uint32, error) {
		sid, single := singleShardOf(m, keys)
		if !single {
			return 0, fmt.Errorf("client: the statement's keys no longer map to one shard under map version %d", m.Version)
		}
		return sid, nil
	}, params)
}

// writeSharded executes a write on the shard that target derives from
// the current map, following both failovers (per-shard promotion,
// discovered by reprobe) and shard-map reconfiguration (a stale-map
// refusal carries the new map, which is adopted and the target
// re-derived).
func (r *Router) writeSharded(ctx context.Context, rs routedStmt, target func(m *ShardMap) (uint32, error), params []Value) (*Result, error) {
	deadline := time.Now().Add(r.cfg.FailoverTimeout)
	var lastErr error
	for {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		m := r.shardMap()
		sid, err := target(m)
		if err != nil {
			return nil, err
		}
		if addr := r.shardPrimary(m, sid); addr != "" {
			mShardRouted.With(strconv.FormatUint(uint64(sid), 10)).Inc()
			res, err := r.execOnShard(ctx, rs, addr, 0, m.Version, params)
			if err == nil {
				r.toksFor(rs).noteShardWrite(sid, res)
				return res, nil
			}
			lastErr = err
			if nm := StaleShardMap(err); nm != nil {
				mStaleMapRefusals.Inc()
				if nm.Version > m.Version {
					r.adoptMap(nm)
					mRouterRetries.Inc()
					continue // re-route immediately under the new map
				}
				// The node is behind our map (mid-reconfiguration): the
				// deadline loop below retries until it catches up.
			} else if !retryable(err) && !isReadOnlyReplicaErr(err) && !isFencedErr(err) {
				return nil, err // real SQL error: routing can't help
			}
		} else if lastErr == nil {
			lastErr = fmt.Errorf("client: no known primary for shard %d", sid)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("client: shard write failed over for %v: %w", r.cfg.FailoverTimeout, lastErr)
		}
		mRouterRetries.Inc()
		r.maybeReprobe()
		time.Sleep(100 * time.Millisecond)
	}
}

// readSharded reads from the shard that target derives from the
// current map: its replicas first (carrying the shard's
// read-your-writes token), its primary as the fallback — the
// single-group read path scoped to the shard's members. A stale-map
// refusal carrying a newer map is adopted and the read re-routed
// once, with the target re-derived (the new map's shard count may
// differ). target returning false skips the attempt (the shard is
// gone from the adopted map).
func (r *Router) readSharded(ctx context.Context, rs routedStmt, target func(m *ShardMap) (uint32, bool), params []Value) (*Result, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		m := r.shardMap()
		sid, ok := target(m)
		if !ok {
			break
		}
		var tok *rwTok
		if !r.cfg.AllowStaleReads {
			tok = r.toksFor(rs).shard(sid)
		}
		adopted := false
		candidates := append(r.shardReadCandidates(m, sid, tok), "")
		for _, addr := range candidates {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
			wait := uint64(0)
			if tok != nil && addr != "" {
				wait = tok.lsn
			}
			if addr == "" {
				// Last resort: the shard primary answers without a wait.
				if addr = r.shardPrimary(m, sid); addr == "" {
					continue
				}
			}
			mShardRouted.With(strconv.FormatUint(uint64(sid), 10)).Inc()
			res, err := r.execOnShard(ctx, rs, addr, wait, m.Version, params)
			if err == nil {
				return res, nil
			}
			lastErr = err
			if nm := StaleShardMap(err); nm != nil {
				mStaleMapRefusals.Inc()
				if nm.Version > m.Version {
					r.adoptMap(nm)
					adopted = true
					mRouterRetries.Inc()
					break // second attempt under the new map
				}
				continue // node behind our map: try another
			}
			if !retryable(err) {
				if isReadOnlyReplicaErr(err) || isWaitTimeoutErr(err) {
					if isWaitTimeoutErr(err) {
						r.setDown(addr)
					}
					continue // the shard primary fallback can answer
				}
				return nil, err
			}
			r.setDown(addr)
			r.maybeReprobe()
		}
		if !adopted {
			break
		}
	}
	if lastErr == nil {
		lastErr = errors.New("client: no nodes available for the target shard")
	}
	return nil, lastErr
}

// fanoutRead runs a shard-agnostic read on every shard and merges the
// results. Statements the distplan layer can split — keyless
// aggregates, ORDER BY + LIMIT, and EXPLAINs of either — take the
// scatter-gather path (scatter.go) and return the *distributed*
// answer: COUNT/SUM/GROUP BY finalize across shards exactly as a
// single node would compute them. Everything else keeps the plain
// union merge below: rows concatenate, Affected sums.
func (r *Router) fanoutRead(ctx context.Context, rs routedStmt, params []Value) (*Result, error) {
	m := r.shardMap()
	if rs.plan.explain || r.splitSpec(rs.sqlText, m) != nil {
		rows, err := r.scatterRows(ctx, rs, params)
		if err != nil {
			return nil, err
		}
		return drainRows(rows)
	}
	mFanoutWidth.Observe(int64(len(m.Shards)))
	type out struct {
		res *Result
		err error
	}
	results := make([]out, len(m.Shards))
	var wg sync.WaitGroup
	for i := range m.Shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.readSharded(ctx, rs, func(m *ShardMap) (uint32, bool) {
				return uint32(i), i < len(m.Shards)
			}, params)
			results[i] = out{res, err}
		}(i)
	}
	wg.Wait()
	// Report *every* failed shard, not just the first: a fan-out that
	// lost two shards to different causes (one down, one fenced) needs
	// both visible to be diagnosable.
	var errs []error
	for sid, o := range results {
		if o.err != nil {
			mShardErrors.Inc()
			errs = append(errs, fmt.Errorf("shard %d: %w", sid, o.err))
		}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("client: fan-out read: %w", errors.Join(errs...))
	}
	merged := &Result{}
	anyLabels := false
	for _, o := range results {
		if merged.Cols == nil {
			merged.Cols = o.res.Cols
		}
		if o.res.RowLabels != nil {
			anyLabels = true
		}
	}
	for _, o := range results {
		if anyLabels {
			labels := o.res.RowLabels
			if labels == nil {
				labels = make([]Label, len(o.res.Rows))
			}
			merged.RowLabels = append(merged.RowLabels, labels...)
		}
		merged.Rows = append(merged.Rows, o.res.Rows...)
		merged.Affected += o.res.Affected
	}
	return merged, nil
}

// ddlFanout applies a schema statement to every shard primary in
// shard order: rows are what shards partition; the schema (and the
// authority state it depends on) must exist everywhere.
func (r *Router) ddlFanout(ctx context.Context, rs routedStmt, params []Value) (*Result, error) {
	m := r.shardMap()
	var last *Result
	for sid := range m.Shards {
		res, err := r.writeToShard(ctx, rs, uint32(sid), params)
		if err != nil {
			return nil, fmt.Errorf("client: DDL on shard %d: %w", sid, err)
		}
		last = res
	}
	return last, nil
}

// writeToShard is writeSharded for statements addressed to a shard id
// directly (DDL fan-out).
func (r *Router) writeToShard(ctx context.Context, rs routedStmt, sid uint32, params []Value) (*Result, error) {
	return r.writeSharded(ctx, rs, func(m *ShardMap) (uint32, error) {
		if int(sid) >= len(m.Shards) {
			return 0, fmt.Errorf("client: shard %d no longer exists (map version %d)", sid, m.Version)
		}
		return sid, nil
	}, params)
}

// shardPrimary derives shard sid's current primary from the last
// probe: the non-replica member at the highest epoch (each shard is
// its own epoch chain — after a failover the promoted member's bumped
// epoch gives it away, exactly like unsharded discovery). Before any
// probe has classified the members, the map's static assignment wins.
func (r *Router) shardPrimary(m *ShardMap, sid uint32) string {
	if m == nil || int(sid) >= len(m.Shards) {
		return ""
	}
	sh := m.Shards[sid]
	best, bestEpoch := "", uint64(0)
	for _, addr := range append([]string{sh.Primary}, sh.Replicas...) {
		r.mu.Lock()
		n := r.nodes[addr]
		r.mu.Unlock()
		if n == nil {
			continue
		}
		n.mu.Lock()
		ok := !n.down && !n.replica
		epoch := n.epoch
		n.mu.Unlock()
		if ok && (best == "" || epoch > bestEpoch) {
			best, bestEpoch = addr, epoch
		}
	}
	if best == "" {
		return sh.Primary
	}
	return best
}

// shardReadCandidates orders shard sid's replica members round-robin,
// skipping down nodes and (token in play) epoch-mismatched replicas.
func (r *Router) shardReadCandidates(m *ShardMap, sid uint32, tok *rwTok) []string {
	if m == nil || int(sid) >= len(m.Shards) {
		return nil
	}
	primary := r.shardPrimary(m, sid)
	sh := m.Shards[sid]
	var out []string
	for _, addr := range append([]string{sh.Primary}, sh.Replicas...) {
		if addr == primary {
			continue
		}
		r.mu.Lock()
		n := r.nodes[addr]
		r.mu.Unlock()
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
