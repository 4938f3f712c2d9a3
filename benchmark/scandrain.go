package main

import (
	"fmt"
	"time"

	"ifdb"
	"ifdb/client"
	"ifdb/internal/catalog"
	"ifdb/internal/engine"
	"ifdb/internal/label"
	"ifdb/internal/storage"
)

// scan-drain: one connection streams a whole USING DISK table to
// exhaustion. The table is about ten times its buffer pool, and the
// reader's label admits half the tenants, so per-tuple costs — plan
// iterators, pager scan, Label Confinement, ROWS encode and decode —
// do all the work and parse and route do none.
var scanDrain = &workload{
	name:           "scan-drain",
	newTwin:        newScanTwin,
	expect:         func(c config) func(int) (int64, uint64, bool) { return constantAnswer(scanExpect(c)) },
	scheduleDigest: func(c config, _ int) uint64 { _, d := scanExpect(c); return d },
	statements:     []string{scanIFCSQL},
}

const (
	scanValMod  = 1_000_000
	scanIFCSQL  = `SELECT k, tenant, v, pad FROM big`
	scanBaseSQL = `SELECT k, tenant, v, pad FROM big WHERE ` + basePredicate
)

// scanSizes: rows, and buffer-pool pages. About 80 rows fit an 8 KiB
// page, so the full size is ≈625 pages behind a 64-page pool: the
// ISSUE's ratio of table to cache, at a size that lets a twenty-second
// run drain the table some eighty times. A round is one drain, so a run
// has as many latency samples as rounds and its percentiles pool them. One drain, not several: every drain
// then starts from the heap the untimed collection before the round
// left, and the time to its first row is taken in one allocator state,
// not in whichever phase of a cycle the previous drain's garbage
// happened to leave (that mix made ttfr_p50_us the median of two modes:
// 28 % run-to-run spread). The collector still runs about two cycles
// inside every drain.
func scanSizes(c config) (rows, poolPages int) {
	if c.toy {
		return 4_000, 8
	}
	return 50_000, 64
}

// scanExpect: every round drains the same table, so the expectation
// is the digest of the visible half of the generated rows.
func scanExpect(c config) (n int64, d uint64) {
	rows, _ := scanSizes(c)
	for k := int64(0); k < int64(rows); k++ {
		if k%tenants < visibleTenants {
			d += rowDigest(k, genValue(c.seed, k, scanValMod))
			n++
		}
	}
	return n, d
}

type scanTwin struct {
	c    config
	ifc  bool
	sv   *served
	tn   tenancy
	conn *client.Conn
	stmt *client.Stmt

	// The lower altitudes of the traced pass, opened on first use.
	sess      *ifdb.Session
	prep      *engine.Prepared
	table     *catalog.Table
	reader    label.Label
	labels    []label.Label  // every stored tuple's label, in heap order
	resRows   [][]ifdb.Value // the last in-process drain's result
	resLabels []label.Label
}

func newScanTwin(c config, ifc bool) (twin, error) {
	rows, pool := scanSizes(c)
	db, tn, err := openDB(ifdb.Config{IFC: ifc, BufferPoolPages: pool})
	if err != nil {
		return nil, err
	}
	if _, err := db.AdminSession().Exec(`CREATE TABLE big (k BIGINT PRIMARY KEY, tenant BIGINT, v BIGINT, pad TEXT) USING DISK`); err != nil {
		return nil, err
	}
	err = bulkLoad(db, tn, "big", 4, rows, func(i int, row []ifdb.Value) int {
		k := int64(i)
		row[0], row[1] = ifdb.Int(k), ifdb.Int(k%tenants)
		row[2], row[3] = ifdb.Int(genValue(c.seed, k, scanValMod)), ifdb.Text(pad(k))
		return int(k % tenants)
	})
	if err != nil {
		return nil, err
	}
	t := &scanTwin{c: c, ifc: ifc, tn: tn}
	if t.sv, err = serve(db); err != nil {
		return nil, err
	}
	if t.conn, err = dialAs(t.sv, tn, ifc, tn.readerTags()); err != nil {
		return nil, err
	}
	t.stmt, err = t.conn.Prepare(t.text())
	return t, err
}

func (t *scanTwin) text() string {
	if t.ifc {
		return scanIFCSQL
	}
	return scanBaseSQL
}

func (t *scanTwin) prepare(int) int { return 1 }

func (t *scanTwin) do(int) (o opResult) {
	t0 := time.Now()
	rows, err := t.stmt.Query()
	err = drainRows(rows, err, t0, &o, func(_ int, row []ifdb.Value) uint64 { return rowDigest(row[0].Int(), row[2].Int()) })
	o.latNs = int64(time.Since(t0))
	o.failed, o.err = err != nil, err
	return o
}

func (t *scanTwin) maintain() int64 { return 0 }

func (t *scanTwin) verify() []string {
	if !t.ifc {
		return nil
	}
	// Confinement probe: without the tags the same drain is empty.
	probe, err := dialAs(t.sv, t.tn, true, nil)
	if err != nil {
		return []string{"scan-drain: confinement probe dial: " + err.Error()}
	}
	defer probe.Close()
	res, err := probe.Exec(scanIFCSQL)
	if err != nil || len(res.Rows) != 0 {
		return []string{fmt.Sprintf("scan-drain: unlabeled probe read rows (err %v), want none", err)}
	}
	return nil
}

func (t *scanTwin) close() {
	if t.conn != nil {
		t.conn.Close()
	}
	t.sv.close()
}

// ---------------------------------------------------------------------------
// Traced pass.

func (t *scanTwin) lower() error {
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
	t.table, _ = t.sv.db.Engine().Catalog().Table("big")
	t.reader = t.sess.Label()
	t.table.Heap.Scan(func(_ storage.TID, tv *storage.TupleVersion) bool {
		t.labels = append(t.labels, tv.Label.Clone())
		return true
	})
	return nil
}

func (t *scanTwin) engineDo(int) (bool, error) {
	if err := t.lower(); err != nil {
		return true, err
	}
	t.resRows, t.resLabels = t.resRows[:0], t.resLabels[:0]
	cur, err := t.sess.ExecPreparedStream(t.prep)
	return true, drainCursor(cur, err, func(rows [][]ifdb.Value, labels []label.Label) {
		t.resRows, t.resLabels = append(t.resRows, rows...), append(t.resLabels, labels...)
	})
}

func (t *scanTwin) layerCalls(int) []layerCall {
	if t.lower() != nil {
		return nil
	}
	hier := t.sv.db.Engine().Hierarchy()
	var frames [][]byte
	return []layerCall{
		{"pager.scan", "engine", len(t.labels), func() {
			t.table.Heap.Scan(func(storage.TID, *storage.TupleVersion) bool { return true })
		}},
		{"label.flows", "engine", len(t.labels), func() {
			for _, l := range t.labels {
				sinkBool = hier.Flows(l, t.reader)
			}
		}},
		{"wire.rows_encode", "client", len(t.resRows), func() { frames = encodeRows(t.resRows, t.resLabels) }},
		// The client decodes a chunk while the server scans the next.
		{"wire.rows_decode", "parallel", len(t.resRows), func() { decodeRows(frames) }},
	}
}
