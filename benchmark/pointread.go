package main

import (
	"fmt"
	"time"

	"ifdb"
	"ifdb/client"
	"ifdb/internal/catalog"
	"ifdb/internal/engine"
	"ifdb/internal/exec"
	"ifdb/internal/index"
	"ifdb/internal/label"
	"ifdb/internal/sql"
	"ifdb/internal/storage"
)

// point-read: one connection, one prepared primary-key SELECT, uniform
// seeded keys among the rows the reader may see. The smallest
// statement the system serves: client, wire, plan cache and index do
// the work; scan and WAL do nothing.
//
// One connection, not two: the server runs in this process, so two
// client loops plus two server loops are four busy goroutines on two
// cores, and the rounds' spread tripled (15 % against 5 %). One
// closed loop keeps the generator below the core count.
var pointRead = &workload{
	name:    "point-read",
	newTwin: newPointTwin,
	expect: func(c config) func(int) (int64, uint64, bool) {
		return func(r int) (int64, uint64, bool) { return pointExpect(c, r) }
	},
	scheduleDigest: func(c config, r int) uint64 { _, d, _ := pointExpect(c, r); return d },
	statements:     []string{pointIFCSQL},
}

const (
	pointValMod = 1_000_000
	pointIFCSQL = `SELECT v, pad FROM kv WHERE k = $1`
	// The baseline application filters by tenant itself.
	pointBaseSQL = `SELECT v, pad FROM kv WHERE k = $1 AND ` + basePredicate
)

func pointSizes(c config) (rows, roundOps int) {
	if c.toy {
		return 2_000, 200
	}
	return 100_000, 30_000
}

// pointKeys is round r's schedule: uniform over the visible rows.
func pointKeys(c config, r int) []int64 {
	rows, n := pointSizes(c)
	g := roundRNG(c, "point-read", r)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(g.intn(rows/tenants)*tenants + g.intn(visibleTenants))
	}
	return keys
}

func pointExpect(c config, r int) (int64, uint64, bool) {
	var d uint64
	keys := pointKeys(c, r)
	for _, k := range keys {
		d += rowDigest(k, genValue(c.seed, k, pointValMod))
	}
	return int64(len(keys)), d, true
}

type pointTwin struct {
	c    config
	ifc  bool
	sv   *served
	tn   tenancy
	conn *client.Conn
	stmt *client.Stmt
	keys []int64

	// The lower altitudes of the traced pass, opened on first use.
	sess   *ifdb.Session
	prep   *engine.Prepared
	table  *catalog.Table
	where  sql.Expr
	reader label.Label
}

func newPointTwin(c config, ifc bool) (twin, error) {
	db, tn, err := openDB(ifdb.Config{IFC: ifc})
	if err != nil {
		return nil, err
	}
	if _, err := db.AdminSession().Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, tenant BIGINT, v BIGINT, pad TEXT)`); err != nil {
		return nil, err
	}
	rows, _ := pointSizes(c)
	err = bulkLoad(db, tn, "kv", 4, rows, func(i int, row []ifdb.Value) int {
		k := int64(i)
		row[0], row[1] = ifdb.Int(k), ifdb.Int(k%tenants)
		row[2], row[3] = ifdb.Int(genValue(c.seed, k, pointValMod)), ifdb.Text(pad(k))
		return int(k % tenants)
	})
	if err != nil {
		return nil, err
	}
	t := &pointTwin{c: c, ifc: ifc, tn: tn}
	if t.sv, err = serve(db); err != nil {
		return nil, err
	}
	if t.conn, err = dialAs(t.sv, tn, ifc, tn.readerTags()); err != nil {
		return nil, err
	}
	t.stmt, err = t.conn.Prepare(t.text())
	return t, err
}

func (t *pointTwin) text() string {
	if t.ifc {
		return pointIFCSQL
	}
	return pointBaseSQL
}

func (t *pointTwin) prepare(r int) int {
	t.keys = pointKeys(t.c, r)
	return len(t.keys)
}

func (t *pointTwin) do(i int) (o opResult) {
	k := t.keys[i]
	t0 := time.Now()
	rows, err := t.stmt.Query(ifdb.Int(k))
	err = drainRows(rows, err, t0, &o, func(_ int, row []ifdb.Value) uint64 { return rowDigest(k, row[0].Int()) })
	o.latNs = int64(time.Since(t0))
	o.failed, o.err = err != nil || o.rows != 1, err
	return o
}

func (t *pointTwin) maintain() int64 { return 0 }

// verify checks the load is whole and, on the IFC twin, that a
// session without the tags reads nothing (the confinement probe).
func (t *pointTwin) verify() []string {
	rows, _ := pointSizes(t.c)
	var bad []string
	count := func(conn *client.Conn, what string, want int64) {
		res, err := conn.Exec(`SELECT count(*) FROM kv`)
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != want {
			bad = append(bad, fmt.Sprintf("point-read: %s count(*) is not %d (err %v)", what, want, err))
		}
	}
	if !t.ifc {
		count(t.conn, "baseline", int64(rows))
		return bad
	}
	count(t.conn, "reader", int64(rows/tenants*visibleTenants))
	probe, err := dialAs(t.sv, t.tn, true, nil)
	if err != nil {
		return append(bad, "point-read: confinement probe dial: "+err.Error())
	}
	defer probe.Close()
	count(probe, "unlabeled probe", 0)
	return bad
}

func (t *pointTwin) close() {
	if t.conn != nil {
		t.conn.Close()
	}
	t.sv.close()
}

// ---------------------------------------------------------------------------
// Traced pass.

func (t *pointTwin) lower() error {
	if t.sess != nil {
		return nil
	}
	var err error
	if t.sess, err = t.tn.session(t.sv.db, t.tn.readerTags()...); err != nil {
		return err
	}
	if t.prep, err = t.sess.Prepare(t.text()); err != nil {
		return err
	}
	st, err := sql.Parse(t.text())
	if err != nil {
		return err
	}
	t.where = st.(*sql.SelectStmt).Where
	t.table, _ = t.sv.db.Engine().Catalog().Table("kv")
	t.reader = t.sess.Label()
	return nil
}

func (t *pointTwin) engineDo(i int) (bool, error) {
	if err := t.lower(); err != nil {
		return true, err
	}
	cur, err := t.sess.ExecPreparedStream(t.prep, ifdb.Int(t.keys[i]))
	return true, drainCursor(cur, err, nil)
}

func (t *pointTwin) layerCalls(i int) []layerCall {
	if t.lower() != nil {
		return nil
	}
	key := index.Key{ifdb.Int(t.keys[i])}
	hier := t.sv.db.Engine().Hierarchy()
	var tid storage.TID
	var tv storage.TupleVersion
	seek := func() {
		t.table.Primary.Tree.AscendEqual(key, func(id storage.TID) bool { tid = id; return false })
	}
	seek()
	tv, _ = t.table.Heap.Get(tid)
	env := &exec.Env{Schema: tableSchema(t.table), Row: tv.Row, RowLabel: tv.Label, Params: []ifdb.Value{key[0]}}
	result := [][]ifdb.Value{{tv.Row[2], tv.Row[3]}}
	var frame [][]byte
	return []layerCall{
		{"index.seek", "engine", 1, seek},
		{"storage.get", "engine", 1, func() { tv, _ = t.table.Heap.Get(tid) }},
		{"label.flows", "engine", 1, func() { sinkBool = hier.Flows(tv.Label, t.reader) }},
		{"exec.eval", "engine", 1, func() { sinkValue, _ = exec.Eval(t.where, env) }},
		{"wire.rows_encode", "client", 1, func() { frame = encodeRows(result, []label.Label{tv.Label}) }},
		{"wire.rows_decode", "client", 1, func() { decodeRows(frame) }},
	}
}
