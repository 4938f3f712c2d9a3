package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"ifdb"
	"ifdb/internal/catalog"
	"ifdb/internal/index"
	"ifdb/internal/label"
	"ifdb/internal/storage"
	"ifdb/internal/txn"
	"ifdb/internal/wal"
)

// neworder: the paper's DBT-2 New-Order transaction (Fig. 6), written
// here so no later change can move its numbers by editing a generator
// elsewhere. One in-process session, no socket: reads and writes
// share the engine, index, storage and txn code point-read only reads,
// plus WAL append and the commit-label rule.
//
// Flush policy: the database has a DataDir and SyncMode "off" — every
// record is encoded and written to wal.log, never fsynced.
// Maintenance policy, untimed before every round: the order history
// (orders, new_order, order_line) is checked against the bookkeeping,
// deleted, and DB.Vacuum() runs. Every round therefore starts from the
// loaded tables with single-version rows and an empty history, and does
// the same work as the round before. Without the vacuum the district
// and stock version chains grow and throughput decays severalfold
// (engine.novacuum_decay tracks that slope); without the purge the
// history, and with it the live heap the collector marks, grows by
// some 25 MB a round.
var newOrder = &workload{
	name:    "neworder",
	newTwin: newOrderTwin,
	expect: func(c config) func(int) (int64, uint64, bool) {
		return func(r int) (int64, uint64, bool) { return orderExpect(c, r) }
	},
	scheduleDigest: orderScheduleDigest,
	statements: []string{
		`SELECT w_tax FROM warehouse WHERE w_id = $1`,
		`SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = $1 AND d_id = $2`,
		`UPDATE district SET d_next_o_id = $3 WHERE d_w_id = $1 AND d_id = $2`,
		`SELECT s_quantity, s_ytd, s_order_cnt FROM stock WHERE s_w_id = $1 AND s_i_id = $2`,
		`UPDATE stock SET s_quantity = $3, s_ytd = $4, s_order_cnt = $5 WHERE s_w_id = $1 AND s_i_id = $2`,
		`INSERT INTO order_line VALUES ($1, $2, $3, $4, $5, $6, $7)`,
	},
}

const (
	orderFirstOID    = 3001
	orderInvalidPerK = 10 // 1 % of transactions name an unknown item and roll back
)

type orderSizes struct {
	warehouses, districts, customers, items int
	roundTxns                               int
}

func orderSize(c config) orderSizes {
	if c.toy {
		return orderSizes{warehouses: 2, districts: 4, customers: 10, items: 100, roundTxns: 100}
	}
	return orderSizes{warehouses: 4, districts: 10, customers: 30, items: 1000, roundTxns: 1250}
}

// orderTxn is one generated New-Order transaction.
type orderTxn struct {
	w, d, c int64
	items   []int64 // the last is sz.items+1 on an invalid transaction
	qtys    []int64
	invalid bool
}

func orderSchedule(c config, r int) []orderTxn {
	sz := orderSize(c)
	g := roundRNG(c, "neworder", r)
	txns := make([]orderTxn, sz.roundTxns)
	for i := range txns {
		t := &txns[i]
		t.w, t.d, t.c = int64(1+g.intn(sz.warehouses)), int64(1+g.intn(sz.districts)), int64(1+g.intn(sz.customers))
		n := 5 + g.intn(11) // 5..15 lines, per TPC-C
		t.items, t.qtys = make([]int64, n), make([]int64, n)
		for j := range t.items {
			t.items[j], t.qtys[j] = int64(1+g.intn(sz.items)), int64(1+g.intn(10))
		}
		if g.intn(1000) < orderInvalidPerK {
			t.invalid = true
			t.items[n-1] = int64(sz.items + 1)
		}
	}
	return txns
}

// orderExpect: the rows an op "returns" are its committed order
// lines. Prices and stock evolve with history, so the digest is
// compared between the twins only, not against a closed form.
func orderExpect(c config, r int) (int64, uint64, bool) {
	var lines int64
	for _, t := range orderSchedule(c, r) {
		if !t.invalid {
			lines += int64(len(t.items))
		}
	}
	return lines, 0, false
}

func orderScheduleDigest(c config, r int) uint64 {
	var d uint64
	for i, t := range orderSchedule(c, r) {
		h := mix64(uint64(i)) ^ rowDigest(t.w*100+t.d, t.c)
		for j := range t.items {
			h = mix64(h ^ rowDigest(t.items[j], t.qtys[j]))
		}
		d += h
	}
	return d
}

func itemPrice(seed uint64, i int64) float64 { return 1 + float64(genValue(seed, i, 9900))/100 }

type orderTwin struct {
	c   config
	ifc bool
	db  *ifdb.DB
	tn  tenancy
	dir string
	s   *ifdb.Session

	txns      []orderTxn
	committed map[[2]int64]int64 // per (w, d): orders committed, warm-up included
	orders    int64              // orders committed since the last purge
	lines     int64              // order lines committed since the last purge
	bad       []string           // history checks that failed, for verify

	scratch *orderScratch // the traced pass's stand-alone layers
}

const orderSchema = `
CREATE TABLE warehouse (w_id BIGINT PRIMARY KEY, w_name TEXT, w_tax DOUBLE PRECISION, w_ytd DOUBLE PRECISION);
CREATE TABLE district (d_w_id BIGINT, d_id BIGINT, d_tax DOUBLE PRECISION, d_ytd DOUBLE PRECISION, d_next_o_id BIGINT, PRIMARY KEY (d_w_id, d_id));
CREATE TABLE customer (c_w_id BIGINT, c_d_id BIGINT, c_id BIGINT, c_name TEXT, c_balance DOUBLE PRECISION, PRIMARY KEY (c_w_id, c_d_id, c_id));
CREATE TABLE item (i_id BIGINT PRIMARY KEY, i_name TEXT, i_price DOUBLE PRECISION);
CREATE TABLE stock (s_w_id BIGINT, s_i_id BIGINT, s_quantity BIGINT, s_ytd BIGINT, s_order_cnt BIGINT, PRIMARY KEY (s_w_id, s_i_id));
CREATE TABLE orders (o_w_id BIGINT, o_d_id BIGINT, o_id BIGINT, o_c_id BIGINT, o_entry_d BIGINT, o_ol_cnt BIGINT, PRIMARY KEY (o_w_id, o_d_id, o_id));
CREATE TABLE new_order (no_w_id BIGINT, no_d_id BIGINT, no_o_id BIGINT, PRIMARY KEY (no_w_id, no_d_id, no_o_id));
CREATE TABLE order_line (ol_w_id BIGINT, ol_d_id BIGINT, ol_o_id BIGINT, ol_number BIGINT, ol_i_id BIGINT, ol_quantity BIGINT, ol_amount DOUBLE PRECISION);
CREATE INDEX order_line_pk ON order_line (ol_w_id, ol_d_id, ol_o_id, ol_number);
`

func newOrderTwin(c config, ifc bool) (twin, error) {
	dir, err := os.MkdirTemp(c.tmpDir, "neworder-*")
	if err != nil {
		return nil, err
	}
	db, tn, err := openDB(ifdb.Config{IFC: ifc, DataDir: dir, SyncMode: "off"})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	t := &orderTwin{c: c, ifc: ifc, db: db, tn: tn, dir: dir, committed: map[[2]int64]int64{}}
	if _, err := db.AdminSession().Exec(orderSchema); err != nil {
		t.close()
		return nil, err
	}
	// Every row carries the same two tags and the session holds exactly
	// those, as in the paper's Fig. 6 set-up: every read passes
	// confinement and every write lands at the session's label.
	if t.s, err = tn.session(db, tn.shared, tn.tenant[0]); err != nil {
		t.close()
		return nil, err
	}
	if err := t.load(); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *orderTwin) load() error {
	sz, s, seed := orderSize(t.c), t.s, t.c.seed
	in := func(text string, params ...ifdb.Value) error {
		_, err := s.Exec(text, params...)
		return err
	}
	if err := s.Begin(txn.SnapshotIsolation); err != nil {
		return err
	}
	for i := int64(1); i <= int64(sz.items); i++ {
		if err := in(`INSERT INTO item VALUES ($1, $2, $3)`, ifdb.Int(i), ifdb.Text(fmt.Sprintf("item-%d", i)), ifdb.Float(itemPrice(seed, i))); err != nil {
			return err
		}
	}
	for w := int64(1); w <= int64(sz.warehouses); w++ {
		if err := in(`INSERT INTO warehouse VALUES ($1, $2, $3, 0.0)`, ifdb.Int(w), ifdb.Text(fmt.Sprintf("w%d", w)), ifdb.Float(float64(genValue(seed, w, 2000))/10000)); err != nil {
			return err
		}
		for d := int64(1); d <= int64(sz.districts); d++ {
			if err := in(`INSERT INTO district VALUES ($1, $2, $3, 0.0, $4)`, ifdb.Int(w), ifdb.Int(d), ifdb.Float(float64(genValue(seed, w*100+d, 2000))/10000), ifdb.Int(orderFirstOID)); err != nil {
				return err
			}
			for c := int64(1); c <= int64(sz.customers); c++ {
				if err := in(`INSERT INTO customer VALUES ($1, $2, $3, $4, 10.0)`, ifdb.Int(w), ifdb.Int(d), ifdb.Int(c), ifdb.Text(fmt.Sprintf("cust-%d-%d-%d", w, d, c))); err != nil {
					return err
				}
			}
		}
		for i := int64(1); i <= int64(sz.items); i++ {
			if err := in(`INSERT INTO stock VALUES ($1, $2, $3, 0, 0)`, ifdb.Int(w), ifdb.Int(i), ifdb.Int(10+genValue(seed, w*100000+i, 90))); err != nil {
				return err
			}
		}
	}
	return s.Commit()
}

// errInvalidItem is the expected rollback: 1 % of New-Orders name an
// item that does not exist (TPC-C 2.4.1.4). It is not a failure.
var errInvalidItem = fmt.Errorf("neworder: unknown item")

// run executes one transaction. first receives the time at which the
// first statement's row was in hand; amount is the order total in
// cents (folded into the digest).
func (t *orderTwin) run(o *orderTxn, t0 time.Time, first *int64) (oID, cents int64, err error) {
	s := t.s
	if err := s.Begin(txn.SnapshotIsolation); err != nil {
		return 0, 0, err
	}
	abort := func(err error) (int64, int64, error) {
		if s.InTxn() {
			_ = s.Abort() // the statement error already aborted it, or this does
		}
		return 0, 0, err
	}
	row, ok, err := s.QueryRow(`SELECT w_tax FROM warehouse WHERE w_id = $1`, ifdb.Int(o.w))
	*first = int64(time.Since(t0))
	if err != nil || !ok {
		return abort(fmt.Errorf("neworder: warehouse %d: found %v, err %v", o.w, ok, err))
	}
	wTax := row[0].Float()
	row, ok, err = s.QueryRow(`SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = $1 AND d_id = $2`, ifdb.Int(o.w), ifdb.Int(o.d))
	if err != nil || !ok {
		return abort(fmt.Errorf("neworder: district %d/%d: found %v, err %v", o.w, o.d, ok, err))
	}
	dTax, oID := row[0].Float(), row[1].Int()
	if _, err := s.Exec(`UPDATE district SET d_next_o_id = $3 WHERE d_w_id = $1 AND d_id = $2`, ifdb.Int(o.w), ifdb.Int(o.d), ifdb.Int(oID+1)); err != nil {
		return abort(err)
	}
	if _, ok, err = s.QueryRow(`SELECT c_balance FROM customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3`, ifdb.Int(o.w), ifdb.Int(o.d), ifdb.Int(o.c)); err != nil || !ok {
		return abort(fmt.Errorf("neworder: customer: found %v, err %v", ok, err))
	}
	// o_entry_d is the order id, not the clock: both twins must write
	// the same rows.
	if _, err := s.Exec(`INSERT INTO orders VALUES ($1, $2, $3, $4, $5, $6)`, ifdb.Int(o.w), ifdb.Int(o.d), ifdb.Int(oID), ifdb.Int(o.c), ifdb.Int(oID), ifdb.Int(int64(len(o.items)))); err != nil {
		return abort(err)
	}
	if _, err := s.Exec(`INSERT INTO new_order VALUES ($1, $2, $3)`, ifdb.Int(o.w), ifdb.Int(o.d), ifdb.Int(oID)); err != nil {
		return abort(err)
	}
	total := 0.0
	for j, item := range o.items {
		qty := o.qtys[j]
		row, ok, err := s.QueryRow(`SELECT i_price FROM item WHERE i_id = $1`, ifdb.Int(item))
		if err != nil {
			return abort(err)
		}
		if !ok {
			return abort(errInvalidItem)
		}
		price := row[0].Float()
		row, ok, err = s.QueryRow(`SELECT s_quantity, s_ytd, s_order_cnt FROM stock WHERE s_w_id = $1 AND s_i_id = $2`, ifdb.Int(o.w), ifdb.Int(item))
		if err != nil || !ok {
			return abort(fmt.Errorf("neworder: stock %d/%d: found %v, err %v", o.w, item, ok, err))
		}
		sq := row[0].Int()
		if sq-qty < 10 {
			sq += 91
		}
		if _, err := s.Exec(`UPDATE stock SET s_quantity = $3, s_ytd = $4, s_order_cnt = $5 WHERE s_w_id = $1 AND s_i_id = $2`,
			ifdb.Int(o.w), ifdb.Int(item), ifdb.Int(sq-qty), ifdb.Int(row[1].Int()+qty), ifdb.Int(row[2].Int()+1)); err != nil {
			return abort(err)
		}
		amount := float64(qty) * price * (1 + wTax + dTax)
		total += amount
		if _, err := s.Exec(`INSERT INTO order_line VALUES ($1, $2, $3, $4, $5, $6, $7)`,
			ifdb.Int(o.w), ifdb.Int(o.d), ifdb.Int(oID), ifdb.Int(int64(j+1)), ifdb.Int(item), ifdb.Int(qty), ifdb.Float(amount)); err != nil {
			return abort(err)
		}
	}
	if err := s.Commit(); err != nil {
		return 0, 0, err
	}
	return oID, int64(math.Round(total * 100)), nil
}

func (t *orderTwin) prepare(r int) int {
	t.txns = orderSchedule(t.c, r)
	return len(t.txns)
}

func (t *orderTwin) do(i int) (o opResult) {
	tx := &t.txns[i]
	t0 := time.Now()
	oID, cents, err := t.run(tx, t0, &o.ttfrNs)
	o.latNs = int64(time.Since(t0))
	switch {
	case err == nil && !tx.invalid:
		t.committed[[2]int64{tx.w, tx.d}]++
		t.orders++
		t.lines += int64(len(tx.items))
		o.rows = int64(len(tx.items))
		o.digest = rowDigest(tx.w*100+tx.d, oID) + mix64(uint64(cents))
	case err == errInvalidItem && tx.invalid:
		// the expected rollback
	default:
		o.failed, o.err = true, err
	}
	return o
}

// walEnd is the write-ahead log's append edge (wal.bytes_per_txn is
// its growth per round).
func (t *orderTwin) walEnd() uint64 { return t.db.WALEnd() }

func (t *orderTwin) maintain() int64 {
	t0 := time.Now()
	t.checkHistory()
	for _, table := range []string{"order_line", "orders", "new_order"} {
		if _, err := t.s.Exec(`DELETE FROM ` + table); err != nil {
			t.bad = append(t.bad, fmt.Sprintf("neworder: purge %s: %v", table, err))
		}
	}
	t.orders, t.lines = 0, 0
	t.db.Vacuum()
	return int64(time.Since(t0))
}

func (t *orderTwin) count(s *ifdb.Session, who, table string, want int64) {
	row, ok, err := s.QueryRow(`SELECT count(*) FROM ` + table)
	if err != nil || !ok || row[0].Int() != want {
		t.bad = append(t.bad, fmt.Sprintf("neworder: %s sees count(%s) != %d (err %v)", who, table, want, err))
	}
}

// checkHistory: orders, new_order and order_line hold exactly the rows
// of the transactions committed since the last purge.
func (t *orderTwin) checkHistory() {
	t.count(t.s, "worker", "orders", t.orders)
	t.count(t.s, "worker", "new_order", t.orders)
	t.count(t.s, "worker", "order_line", t.lines)
}

// verify: d_next_o_id advanced by exactly the orders committed in each
// district; the history matched the bookkeeping at every purge and
// matches it now; and (IFC twin) a session without the tags sees none
// of it.
func (t *orderTwin) verify() []string {
	sz := orderSize(t.c)
	for w := int64(1); w <= int64(sz.warehouses); w++ {
		for d := int64(1); d <= int64(sz.districts); d++ {
			n := t.committed[[2]int64{w, d}]
			row, ok, err := t.s.QueryRow(`SELECT d_next_o_id FROM district WHERE d_w_id = $1 AND d_id = $2`, ifdb.Int(w), ifdb.Int(d))
			if err != nil || !ok || row[0].Int() != orderFirstOID+n {
				t.bad = append(t.bad, fmt.Sprintf("neworder: district %d/%d: d_next_o_id is not %d (err %v)", w, d, orderFirstOID+n, err))
			}
		}
	}
	t.checkHistory()
	if t.ifc {
		probe := t.db.NewSession(t.tn.owner)
		t.count(probe, "unlabeled probe", "orders", 0)
		t.count(probe, "unlabeled probe", "stock", 0)
	}
	return t.bad
}

func (t *orderTwin) close() {
	if t.scratch != nil {
		t.scratch.wal.Close()
	}
	t.db.Close()
	os.RemoveAll(t.dir)
}

// ---------------------------------------------------------------------------
// Traced pass. The op already runs in-process, so there is no lower
// altitude: the isolated layer calls hang off the client span. Reads
// use the loaded stock table; writes go to stand-alone instances of
// the same layers (a heap, a transaction manager, a log file) so the
// database under test is not written twice.

type orderScratch struct {
	stock  *catalog.Table
	heap   *storage.MemHeap
	txns   *txn.Manager
	wal    *wal.Writer
	reader label.Label
}

func (t *orderTwin) lower() error {
	if t.scratch != nil {
		return nil
	}
	w, err := wal.Open(filepath.Join(t.dir, "scratch.wal"), wal.SyncOff)
	if err != nil {
		return err
	}
	stock, _ := t.db.Engine().Catalog().Table("stock")
	t.scratch = &orderScratch{stock: stock, heap: storage.NewMemHeap(), txns: txn.NewManager(), wal: w, reader: t.s.Label()}
	return nil
}

func (t *orderTwin) engineDo(int) (bool, error) { return false, nil }

func (t *orderTwin) layerCalls(i int) []layerCall {
	if t.lower() != nil {
		return nil
	}
	tx, sc := &t.txns[i], t.scratch
	hier := t.db.Engine().Hierarchy()
	n := len(tx.items)
	reads := 3 + 2*n   // warehouse, district, customer, then item and stock per line
	inserts := 3 + 2*n // district version, orders, new_order, then stock version and order_line per line
	row := []ifdb.Value{ifdb.Int(tx.w), ifdb.Int(tx.d), ifdb.Int(1), ifdb.Int(1), ifdb.Int(tx.items[0]), ifdb.Int(tx.qtys[0]), ifdb.Float(1)}
	return []layerCall{
		{"index.seek", "client", reads, func() {
			for r := 0; r < reads; r++ {
				key := index.Key{ifdb.Int(tx.w), ifdb.Int(tx.items[r%n])}
				sc.stock.Primary.Tree.AscendEqual(key, func(storage.TID) bool { return false })
			}
		}},
		{"label.flows", "client", reads, func() {
			for r := 0; r < reads; r++ {
				sinkBool = hier.Flows(sc.reader, sc.reader)
			}
		}},
		{"storage.insert", "client", inserts, func() {
			for r := 0; r < inserts; r++ {
				_, _ = sc.heap.Insert(storage.TupleVersion{Row: row, Label: sc.reader, Xmin: 1}) // a MemHeap insert cannot fail
			}
		}},
		// BEGIN, one record per inserted version, a SETXMAX per updated
		// one, COMMIT.
		{"wal.append", "client", inserts + n + 3, func() {
			for r := 0; r < inserts+n+3; r++ {
				_, _ = sc.wal.Append(&wal.Record{Type: wal.RecInsert, XID: 1, Table: "order_line", TID: storage.TID(r), Label: sc.reader, Row: row})
			}
		}},
		{"txn.begin_commit", "client", 1, func() {
			_ = sc.txns.Begin(txn.SnapshotIsolation).Commit(hier, sc.reader, nil)
		}},
	}
}
