package suite

import (
	"database/sql"
	"fmt"
	"net"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"ifdb"
	"ifdb/client"
	_ "ifdb/driver"
	"ifdb/internal/authority"
	"ifdb/internal/catalog"
	"ifdb/internal/engine"
	"ifdb/internal/label"
	"ifdb/internal/repl"
	"ifdb/internal/types"
	"ifdb/internal/wire"
)

// poolPages is the buffer pool behind every USING DISK table of the
// suite: small enough that a statement over `big` evicts each page
// many times.
const poolPages = 4

// backend is one way of reaching the database. open stands up a fresh,
// empty one with the scenario's principals and tags — USING DISK tables
// behind poolPages — and the db it returns runs cases until the test
// ends.
type backend struct {
	name string
	// lacks are the capabilities the backend cannot express: a case
	// that needs one is skipped.
	lacks need
	// noRowLabels: the backend's API has no per-row label, so the
	// expected labels are not compared.
	noRowLabels bool
	open        func(t testing.TB, sc *scenario) db
}

type db interface {
	// run executes one case as its user. text is c.sql as this heap
	// wants it.
	run(c *tcase, text string) outcome
}

// backends lists what the suite proves the case list on. The first is
// the reference: where a scenario has no golden file, the others must
// answer as it does.
var backends = []backend{
	// One engine, one session a user, Session.Exec (ExecPrepared where
	// the case asks): the executor and the buffered statement path.
	{name: "exec", open: openInProcess(false)},
	// The same through a prepared handle and the streaming cursor in
	// batches of three: the cursor's transaction lifecycle, and the
	// plan cache behind pinned handles.
	{name: "cursor", open: openInProcess(true)},
	// client.Conn over a socket: the wire encoding of values, labels,
	// trailers and errors.
	{name: "wire", open: openWire},
	// Writes on a primary, reads on its replica once it has applied
	// them: WAL shipping and replay rebuild the same heaps, indexes,
	// catalog and authority state.
	{name: "replica", lacks: sequences, open: openReplica},
	// A client.Router over three shards: routing by key, DDL fan-out,
	// the distplan split and the gateway merge, with and without
	// partial-aggregate pushdown.
	{name: "router", lacks: oneNode | txnBlock | sequences, open: openRouter(client.RouterConfig{MaxFanout: 2})},
	{name: "router-gather", lacks: oneNode | txnBlock | sequences, open: openRouter(client.RouterConfig{DisableAggPushdown: true})},
	// database/sql through the ifdb driver: DSN labels, Tx, Go-typed
	// values, and wire-level PREPARE/EXECUTE where the case asks.
	{name: "driver", lacks: labelValue, noRowLabels: true, open: openDriver},
}

// outcome is what a case returned, in comparable form.
type outcome struct {
	err      string   // exact error text; "" on success
	cols     []string // column names
	rows     []string // kind-tagged cells joined by '|'
	labels   []string // one a row: the label's tag names, sorted
	affected int64
}

// tagNames renders labels by tag name: ids differ from run to run.
type tagNames map[label.Tag]string

func (tn tagNames) render(l label.Label) string {
	names := make([]string, len(l))
	for i, tg := range l {
		n, ok := tn[tg]
		if !ok {
			n = fmt.Sprintf("#%d", uint64(tg))
		}
		names[i] = n
	}
	sort.Strings(names)
	return "{" + strings.Join(names, ",") + "}"
}

func (tn tagNames) cell(v types.Value) string {
	switch v.Kind() {
	case types.KindLabel:
		return fmt.Sprintf("%d:%s", v.Kind(), tn.render(v.Label()))
	case types.KindText:
		return fmt.Sprintf("%d:%q", v.Kind(), v.Text())
	}
	return fmt.Sprintf("%d:%s", v.Kind(), v.String())
}

func (tn tagNames) cells(vs []types.Value) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = tn.cell(v)
	}
	return out
}

// result builds a success outcome. labels may be shorter than rows (a
// client Result carries none when no row is labeled).
func (tn tagNames) result(cols []string, rows [][]types.Value, labels []label.Label, affected int64) outcome {
	out := outcome{cols: cols, affected: affected, rows: make([]string, len(rows)), labels: make([]string, len(rows))}
	for i, r := range rows {
		out.rows[i] = strings.Join(tn.cells(r), "|")
		var l label.Label
		if i < len(labels) {
			l = labels[i]
		}
		out.labels[i] = tn.render(l)
	}
	return out
}

// routerPrefix is what the Router wraps around an error a shard
// reported; under it is the single node's text.
var routerPrefix = regexp.MustCompile(`^client: (fan-out read|DDL) on shard \d+: `)

func failed(err error) outcome {
	return outcome{err: routerPrefix.ReplaceAllString(err.Error(), "")}
}

func (tn tagNames) fromClient(res *client.Result, err error) outcome {
	if err != nil {
		return failed(err)
	}
	return tn.result(res.Cols, res.Rows, res.RowLabels, res.Affected)
}

// drained consumes a client stream.
func (tn tagNames) drained(rows client.Rows, err error) outcome {
	if err != nil {
		return failed(err)
	}
	var vals [][]types.Value
	var labels []label.Label
	for rows.Next() {
		vals = append(vals, append([]types.Value(nil), rows.Row()...))
		labels = append(labels, rows.RowLabel())
	}
	if err := rows.Close(); err != nil {
		return failed(err)
	}
	return tn.result(rows.Columns(), vals, labels, 0)
}

// isRead reports whether a statement returns rows.
func isRead(text string) bool {
	return strings.HasPrefix(text, "SELECT") || strings.HasPrefix(text, "EXPLAIN")
}

// provision creates the scenario's principals and tags in list order —
// the same order on every node of a backend, which with sequentialIDs
// gives the same ids — and returns each user's principal and tags.
func provision(sc *scenario, newPrincipal func(name string) uint64, newTag func(owner uint64, name string) label.Tag) (map[string]uint64, map[string][]label.Tag, tagNames) {
	principals := map[string]uint64{}
	tags := map[string][]label.Tag{}
	byName := map[string]label.Tag{}
	tn := tagNames{}
	for _, u := range sc.users {
		p := newPrincipal(u.name)
		principals[u.name] = p
		for _, name := range u.tags {
			tg, ok := byName[name]
			if !ok {
				tg = newTag(p, name)
				byName[name] = tg
				tn[tg] = name
			}
			tags[u.name] = append(tags[u.name], tg)
		}
	}
	return principals, tags, tn
}

func sequentialIDs(e *engine.Engine) {
	var n uint64
	e.Authority().SetIDSourceForTest(func() uint64 { n++; return n })
}

// ---------------------------------------------------------------------------
// exec, cursor: in-process sessions

type inProcess struct {
	tn      tagNames
	cursor  bool
	sess    map[string]*engine.Session
	handles map[string]*engine.Prepared // user ‖ NUL ‖ text
}

func openInProcess(cursor bool) func(testing.TB, *scenario) db {
	return func(t testing.TB, sc *scenario) db {
		e := engine.MustNew(engine.Config{IFC: true, BufferPoolPages: poolPages})
		t.Cleanup(func() { e.Close() })
		sequentialIDs(e)
		principals, tags, tn := provision(sc,
			func(name string) uint64 { return uint64(e.CreatePrincipal(name)) },
			func(owner uint64, name string) label.Tag {
				tg, err := e.CreateTag(authority.Principal(owner), name)
				if err != nil {
					t.Fatalf("create tag %q: %v", name, err)
				}
				return tg
			})
		d := &inProcess{tn: tn, cursor: cursor, sess: map[string]*engine.Session{}, handles: map[string]*engine.Prepared{}}
		for _, u := range sc.users {
			s := e.NewSession(authority.Principal(principals[u.name]))
			for _, tg := range tags[u.name] {
				if err := s.AddSecrecy(tg); err != nil {
					t.Fatalf("contaminate %q: %v", u.name, err)
				}
			}
			d.sess[u.name] = s
		}
		return d
	}
}

func (d *inProcess) handle(c *tcase, text string) (*engine.Prepared, error) {
	key := c.user + "\x00" + text
	if h := d.handles[key]; h != nil {
		return h, nil
	}
	h, err := d.sess[c.user].Prepare(text)
	if err == nil {
		d.handles[key] = h
	}
	return h, err
}

func (d *inProcess) run(c *tcase, text string) outcome {
	s := d.sess[c.user]
	if !d.cursor && !c.prepared {
		return d.buffered(s.Exec(text, c.args...))
	}
	h, err := d.handle(c, text)
	if err != nil {
		return failed(err)
	}
	if !d.cursor {
		return d.buffered(s.ExecPrepared(h, c.args...))
	}
	cur, err := s.ExecPreparedStream(h, c.args...)
	if err != nil {
		return failed(err)
	}
	defer cur.Close()
	var vals [][]types.Value
	var labels []label.Label
	for {
		rows, ls, err := cur.NextBatch(3)
		if err != nil {
			return failed(err)
		}
		if len(rows) == 0 {
			return d.tn.result(cur.Cols(), vals, labels, int64(cur.Affected()))
		}
		vals = append(vals, rows...)
		labels = append(labels, ls...)
	}
}

func (d *inProcess) buffered(res *engine.Result, err error) outcome {
	if err != nil {
		return failed(err)
	}
	return d.tn.result(res.Cols, res.Rows, res.RowLabels, int64(res.Affected))
}

// ---------------------------------------------------------------------------
// wire: client.Conn against one server

// serve puts a wire server in front of node and returns its address.
// A durable node also serves its WAL there, to followers presenting
// replToken, as ifdb-server does.
func serve(t testing.TB, node *ifdb.DB, shardMap func() *wire.ShardMap) string {
	t.Helper()
	srv := wire.NewServer(node.Engine(), "")
	srv.ShardMap = shardMap
	if node.Engine().WAL() != nil {
		srv.Replicate = repl.NewPrimary(node.Engine(), replToken).Stream
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); node.Close() })
	return ln.Addr().String()
}

func dial(t testing.TB, addr string, principal uint64, tags []label.Tag) *client.Conn {
	t.Helper()
	c, err := client.Dial(addr, "", principal)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for _, tg := range tags {
		c.AddSecrecy(tg)
	}
	return c
}

// provisionWire provisions through the authority functions on every address,
// and requires the nodes to hand out the same ids.
func provisionWire(t testing.TB, sc *scenario, addrs ...string) (map[string]uint64, map[string][]label.Tag, tagNames) {
	t.Helper()
	conns := make([]*client.Conn, len(addrs))
	for i, a := range addrs {
		conns[i] = dial(t, a, 0, nil)
	}
	return provision(sc,
		func(name string) uint64 {
			var id uint64
			for i, c := range conns {
				p, err := c.CreatePrincipal(name)
				if err != nil || (i > 0 && p != id) {
					t.Fatalf("create principal %q on %s: id %d (first node: %d), err %v", name, addrs[i], p, id, err)
				}
				id = p
			}
			return id
		},
		func(owner uint64, name string) label.Tag {
			var id label.Tag
			for i, c := range conns {
				c.SetPrincipal(owner)
				tg, err := c.CreateTag(name)
				if err != nil || (i > 0 && tg != id) {
					t.Fatalf("create tag %q on %s: id %d (first node: %d), err %v", name, addrs[i], tg, id, err)
				}
				id = tg
			}
			return id
		})
}

type overWire struct {
	tn    tagNames
	conns map[string]*client.Conn
}

func openNode(t testing.TB) (*ifdb.DB, string) {
	node := ifdb.MustOpen(ifdb.Config{IFC: true, BufferPoolPages: poolPages})
	sequentialIDs(node.Engine())
	return node, serve(t, node, nil)
}

func openWire(t testing.TB, sc *scenario) db {
	_, addr := openNode(t)
	principals, tags, tn := provisionWire(t, sc, addr)
	d := &overWire{tn: tn, conns: map[string]*client.Conn{}}
	for _, u := range sc.users {
		d.conns[u.name] = dial(t, addr, principals[u.name], tags[u.name])
	}
	return d
}

func (d *overWire) run(c *tcase, text string) outcome {
	return d.tn.fromClient(d.conns[c.user].Exec(text, c.args...))
}

// ---------------------------------------------------------------------------
// replica: writes on the primary, reads on a replica that has applied them

type replicated struct {
	tn         tagNames
	prim, repl map[string]*client.Conn
	inTxn      map[string]bool
	lsn        uint64 // the primary's WAL position after its last statement
}

// replToken gates the replication stream of the suite's durable nodes.
const replToken = "suite"

func openReplica(t testing.TB, sc *scenario) db {
	prim, err := ifdb.Open(ifdb.Config{IFC: true, DataDir: t.TempDir(), SyncMode: "off", BufferPoolPages: poolPages})
	if err != nil {
		t.Fatal(err)
	}
	sequentialIDs(prim.Engine())
	primAddr := serve(t, prim, nil)

	replica, err := ifdb.Open(ifdb.Config{IFC: true, DataDir: t.TempDir(), SyncMode: "off", BufferPoolPages: poolPages,
		ReplicaOf: primAddr, ReplToken: replToken})
	if err != nil {
		t.Fatal(err)
	}
	replAddr := serve(t, replica, nil)

	principals, tags, tn := provisionWire(t, sc, primAddr)
	d := &replicated{tn: tn, prim: map[string]*client.Conn{}, repl: map[string]*client.Conn{}, inTxn: map[string]bool{}}
	for _, u := range sc.users {
		d.prim[u.name] = dial(t, primAddr, principals[u.name], tags[u.name])
		d.repl[u.name] = dial(t, replAddr, principals[u.name], tags[u.name])
	}
	return d
}

func (d *replicated) run(c *tcase, text string) outcome {
	if isRead(text) && !d.inTxn[c.user] {
		// The replica's server holds the read until it has applied the
		// primary's log through d.lsn — the Router's read-your-writes
		// token, used here on everything the primary has done.
		return d.tn.fromClient(d.repl[c.user].ExecWait(d.lsn, text, c.args...))
	}
	res, err := d.prim[c.user].Exec(text, c.args...)
	switch text {
	case "BEGIN":
		d.inTxn[c.user] = err == nil
	case "COMMIT", "ROLLBACK":
		d.inTxn[c.user] = false
	}
	if err == nil && res.LSN > d.lsn {
		d.lsn = res.LSN
	}
	return d.tn.fromClient(res, err)
}

// ---------------------------------------------------------------------------
// router, router-gather: a client.Router a user over three shards

type routed struct {
	tn      tagNames
	routers map[string]*client.Router
	stmts   map[string]*client.RouterStmt // user ‖ NUL ‖ text
}

func openRouter(cfg client.RouterConfig) func(testing.TB, *scenario) db {
	return func(t testing.TB, sc *scenario) db {
		const shards = 3
		smap := &wire.ShardMap{Version: 1, Keys: sc.shardKey}
		mapFn := func() *wire.ShardMap { return smap }
		var addrs []string
		for sid := uint32(0); sid < shards; sid++ {
			node := ifdb.MustOpen(ifdb.Config{IFC: true, BufferPoolPages: poolPages})
			sequentialIDs(node.Engine())
			node.Engine().SetShardGuard(ownedBy(mapFn, sid))
			addr := serve(t, node, mapFn)
			addrs = append(addrs, addr)
			smap.Shards = append(smap.Shards, wire.Shard{ID: sid, Primary: addr})
		}
		principals, tags, tn := provisionWire(t, sc, addrs...)
		d := &routed{tn: tn, routers: map[string]*client.Router{}, stmts: map[string]*client.RouterStmt{}}
		for _, u := range sc.users {
			ucfg := cfg
			ucfg.Addrs, ucfg.Principal, ucfg.Secrecy = addrs, principals[u.name], tags[u.name]
			r, err := client.OpenRouter(ucfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			d.routers[u.name] = r
		}
		return d
	}
}

// ownedBy is the guard a shard server installs: a row whose key hashes
// elsewhere is refused, so a misrouted write fails the case.
func ownedBy(mapFn func() *wire.ShardMap, sid uint32) engine.ShardGuard {
	return func(t *catalog.Table, row []types.Value) error {
		m := mapFn()
		keyCol := m.KeyColumn(t.Name)
		for i, col := range t.Columns {
			if keyCol != "" && strings.EqualFold(col.Name, keyCol) {
				if own := m.ShardOf(row[i].String()); own != sid {
					return fmt.Errorf("%w: key %s hashes to shard %d, this is shard %d", engine.ErrShardOwnership, row[i], own, sid)
				}
			}
		}
		return nil
	}
}

func (d *routed) run(c *tcase, text string) outcome {
	r := d.routers[c.user]
	if c.prepared {
		key := c.user + "\x00" + text
		st := d.stmts[key]
		if st == nil {
			var err error
			if st, err = r.Prepare(text); err != nil {
				return failed(err)
			}
			d.stmts[key] = st
		}
		return d.tn.fromClient(st.Exec(c.args...))
	}
	out := d.tn.fromClient(r.Exec(text, c.args...))
	if !isRead(text) {
		return out
	}
	// Exec of a read is its Query drained: the same rows either way
	// (labels and order as far as the case fixes them).
	streamed := d.tn.drained(r.Query(text, c.args...))
	if got, want := streamed.render(c, !c.repLabels), out.render(c, !c.repLabels); got != want {
		return outcome{err: fmt.Sprintf("suite: the drained Query is not what Exec returned\nQuery:\n%sExec:\n%s", got, want)}
	}
	return out
}

// ---------------------------------------------------------------------------
// driver: database/sql

type viaDriver struct {
	dbs map[string]*sql.DB
	txs map[string]*sql.Tx
}

func openDriver(t testing.TB, sc *scenario) db {
	_, addr := openNode(t)
	principals, _, _ := provisionWire(t, sc, addr)
	d := &viaDriver{dbs: map[string]*sql.DB{}, txs: map[string]*sql.Tx{}}
	for _, u := range sc.users {
		dsn := fmt.Sprintf("ifdb://%s?principal=%d", addr, principals[u.name])
		if len(u.tags) > 0 {
			dsn += "&secrecy=" + strings.Join(u.tags, ",")
		}
		pool, err := sql.Open("ifdb", dsn)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pool.Close() })
		d.dbs[u.name] = pool
	}
	return d
}

func toGo(args []types.Value) []any {
	out := make([]any, len(args))
	for i, v := range args {
		switch v.Kind() {
		case types.KindNull:
			out[i] = nil
		case types.KindInt:
			out[i] = v.Int()
		case types.KindFloat:
			out[i] = v.Float()
		case types.KindText:
			out[i] = v.Text()
		case types.KindBool:
			out[i] = v.Bool()
		case types.KindTime:
			out[i] = v.Time()
		default:
			panic(fmt.Sprintf("suite: no database/sql form for a %v argument", v.Kind()))
		}
	}
	return out
}

func fromGo(v any) types.Value {
	switch x := v.(type) {
	case nil:
		return types.Null
	case int64:
		return types.NewInt(x)
	case float64:
		return types.NewFloat(x)
	case string:
		return types.NewText(x)
	case bool:
		return types.NewBool(x)
	case time.Time:
		return types.NewTime(x)
	}
	panic(fmt.Sprintf("suite: the driver returned a %T", v))
}

func (d *viaDriver) run(c *tcase, text string) outcome {
	pool, tx := d.dbs[c.user], d.txs[c.user]
	switch text {
	case "BEGIN":
		tx, err := pool.Begin()
		if err != nil {
			return failed(err)
		}
		d.txs[c.user] = tx
		return outcome{}
	case "COMMIT", "ROLLBACK":
		delete(d.txs, c.user)
		end := tx.Commit
		if text == "ROLLBACK" {
			end = tx.Rollback
		}
		if err := end(); err != nil {
			return failed(err)
		}
		return outcome{}
	}
	// One-shot through the pool or the open Tx; a case that asks for a
	// handle gets one (PREPARE/EXECUTE on the wire), bound to the Tx's
	// connection inside a Tx.
	var q interface {
		Query(string, ...any) (*sql.Rows, error)
		Exec(string, ...any) (sql.Result, error)
	} = pool
	if tx != nil {
		q = tx
	}
	query := func(args ...any) (*sql.Rows, error) { return q.Query(text, args...) }
	exec := func(args ...any) (sql.Result, error) { return q.Exec(text, args...) }
	if c.prepared {
		st, err := pool.Prepare(text)
		if err != nil {
			return failed(err)
		}
		defer st.Close()
		if tx != nil {
			st = tx.Stmt(st)
		}
		query, exec = st.Query, st.Exec
	}
	if !isRead(text) {
		res, err := exec(toGo(c.args)...)
		if err != nil {
			return failed(err)
		}
		n, _ := res.RowsAffected() // the ifdb driver's never fails
		return outcome{affected: n}
	}
	rows, err := query(toGo(c.args)...)
	if err != nil {
		return failed(err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return failed(err)
	}
	var vals [][]types.Value
	for rows.Next() {
		cells, ptrs := make([]any, len(cols)), make([]any, len(cols))
		for i := range cells {
			ptrs[i] = &cells[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			return failed(err)
		}
		row := make([]types.Value, len(cells))
		for i, v := range cells {
			row[i] = fromGo(v)
		}
		vals = append(vals, row)
	}
	if err := rows.Err(); err != nil {
		return failed(err)
	}
	return tagNames{}.result(cols, vals, nil, 0)
}
