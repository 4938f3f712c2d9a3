package ifdb_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"ifdb"
	"ifdb/internal/txn"
)

// TestNewOrderAllocBudget holds the paper's DBT-2 New-Order transaction
// (Fig. 6) to a budget in objects and bytes allocated per transaction,
// with IFC on and off. It runs as the benchmark's neworder workload
// does: one in-process session over a database with a log (written,
// never fsynced), every row and the session under the same two tags,
// and every statement a call with literal variadic parameters, as a
// real caller writes it. The transactions come from a fixed seed.
//
// What a transaction keeps is its rows: the versions it writes, their
// index keys and the rows its SELECTs return. What the budget keeps
// from growing back is the bookkeeping around them: a copy of every
// call's parameters on the heap (the statement frame used to keep the
// caller's slice), a write set rebuilt by append for every transaction,
// and B-tree halves split at their exact length and grown again — 183
// objects and 42 351 bytes per transaction, with IFC on and off, before
// they went.
func TestNewOrderAllocBudget(t *testing.T) {
	// Per transaction, with IFC on and off alike.
	const budgetAllocs, budgetBytes = 129, 22_700
	for _, ifc := range []bool{true, false} {
		t.Run(fmt.Sprintf("ifc=%v", ifc), func(t *testing.T) {
			db, err := ifdb.Open(ifdb.Config{IFC: ifc, DataDir: t.TempDir(), SyncMode: "off"})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			s := newOrderDB(t, db)
			g := rand.New(rand.NewSource(1))
			orders := make([]newOrderTxn, 1200)
			for i := range orders {
				orders[i] = newOrderInput(g)
			}
			next := 0
			run := func() {
				if err := newOrder(s, &orders[next]); err != nil {
					t.Fatal(err)
				}
				next++
			}
			for next < 100 {
				run() // parses, plans, grows the session's buffers
			}
			if per := testing.AllocsPerRun(500, run); per > budgetAllocs {
				t.Errorf("%.0f allocations per transaction, budget %d", per, budgetAllocs)
			} else {
				t.Logf("%.0f allocations per transaction (budget %d)", per, budgetAllocs)
			}
			const runs = 500
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > budgetBytes {
				t.Errorf("%d bytes per transaction, budget %d", per, budgetBytes)
			} else {
				t.Logf("%d bytes per transaction (budget %d)", per, budgetBytes)
			}
		})
	}
}

// The New-Order database: warehouses × districts × customers, and
// stock for every item in every warehouse.
const (
	noWarehouses = 2
	noDistricts  = 10
	noCustomers  = 10
	noItems      = 1000
)

// newOrderDB creates and loads the New-Order tables and returns the
// session that runs the transactions, holding the two tags every row
// carries (none with IFC off).
func newOrderDB(t *testing.T, db *ifdb.DB) *ifdb.Session {
	t.Helper()
	mustExec(t, db.AdminSession(), `
CREATE TABLE warehouse (w_id BIGINT PRIMARY KEY, w_name TEXT, w_tax DOUBLE PRECISION, w_ytd DOUBLE PRECISION);
CREATE TABLE district (d_w_id BIGINT, d_id BIGINT, d_tax DOUBLE PRECISION, d_ytd DOUBLE PRECISION, d_next_o_id BIGINT, PRIMARY KEY (d_w_id, d_id));
CREATE TABLE customer (c_w_id BIGINT, c_d_id BIGINT, c_id BIGINT, c_name TEXT, c_balance DOUBLE PRECISION, PRIMARY KEY (c_w_id, c_d_id, c_id));
CREATE TABLE item (i_id BIGINT PRIMARY KEY, i_name TEXT, i_price DOUBLE PRECISION);
CREATE TABLE stock (s_w_id BIGINT, s_i_id BIGINT, s_quantity BIGINT, s_ytd BIGINT, s_order_cnt BIGINT, PRIMARY KEY (s_w_id, s_i_id));
CREATE TABLE orders (o_w_id BIGINT, o_d_id BIGINT, o_id BIGINT, o_c_id BIGINT, o_entry_d BIGINT, o_ol_cnt BIGINT, PRIMARY KEY (o_w_id, o_d_id, o_id));
CREATE TABLE new_order (no_w_id BIGINT, no_d_id BIGINT, no_o_id BIGINT, PRIMARY KEY (no_w_id, no_d_id, no_o_id));
CREATE TABLE order_line (ol_w_id BIGINT, ol_d_id BIGINT, ol_o_id BIGINT, ol_number BIGINT, ol_i_id BIGINT, ol_quantity BIGINT, ol_amount DOUBLE PRECISION);
CREATE INDEX order_line_pk ON order_line (ol_w_id, ol_d_id, ol_o_id, ol_number);`)
	owner := db.CreatePrincipal("neworder")
	s := db.NewSession(owner)
	for _, name := range []string{"shared", "tenant"} {
		tag, err := db.CreateTag(owner, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddSecrecy(tag); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Begin(txn.SnapshotIsolation); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= noItems; i++ {
		mustExec(t, s, `INSERT INTO item VALUES ($1, $2, $3)`, ifdb.Int(i), ifdb.Text(fmt.Sprintf("item-%d", i)), ifdb.Float(1+float64(i%100)))
	}
	for w := int64(1); w <= noWarehouses; w++ {
		mustExec(t, s, `INSERT INTO warehouse VALUES ($1, $2, 0.1, 0.0)`, ifdb.Int(w), ifdb.Text(fmt.Sprintf("w%d", w)))
		for d := int64(1); d <= noDistricts; d++ {
			mustExec(t, s, `INSERT INTO district VALUES ($1, $2, 0.05, 0.0, 3001)`, ifdb.Int(w), ifdb.Int(d))
			for c := int64(1); c <= noCustomers; c++ {
				mustExec(t, s, `INSERT INTO customer VALUES ($1, $2, $3, $4, 10.0)`, ifdb.Int(w), ifdb.Int(d), ifdb.Int(c), ifdb.Text(fmt.Sprintf("cust-%d-%d-%d", w, d, c)))
			}
		}
		for i := int64(1); i <= noItems; i++ {
			mustExec(t, s, `INSERT INTO stock VALUES ($1, $2, $3, 0, 0)`, ifdb.Int(w), ifdb.Int(i), ifdb.Int(10+i%90))
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	return s
}

// newOrderTxn is one New-Order's input.
type newOrderTxn struct {
	w, d, c int64
	items   []int64
	qtys    []int64
}

func newOrderInput(g *rand.Rand) newOrderTxn {
	o := newOrderTxn{w: 1 + g.Int63n(noWarehouses), d: 1 + g.Int63n(noDistricts), c: 1 + g.Int63n(noCustomers)}
	n := 5 + g.Intn(11) // 5..15 lines, per TPC-C
	o.items, o.qtys = make([]int64, n), make([]int64, n)
	for j := range o.items {
		o.items[j], o.qtys[j] = 1+g.Int63n(noItems), 1+g.Int63n(10)
	}
	return o
}

// newOrder runs one New-Order transaction and commits it.
func newOrder(s *ifdb.Session, o *newOrderTxn) error {
	if err := s.Begin(txn.SnapshotIsolation); err != nil {
		return err
	}
	err := newOrderBody(s, o)
	if err != nil {
		if s.InTxn() {
			_ = s.Abort()
		}
		return err
	}
	return s.Commit()
}

func newOrderBody(s *ifdb.Session, o *newOrderTxn) error {
	row, ok, err := s.QueryRow(`SELECT w_tax FROM warehouse WHERE w_id = $1`, ifdb.Int(o.w))
	if err != nil || !ok {
		return fmt.Errorf("warehouse %d: found %v, err %v", o.w, ok, err)
	}
	wTax := row[0].Float()
	row, ok, err = s.QueryRow(`SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = $1 AND d_id = $2`, ifdb.Int(o.w), ifdb.Int(o.d))
	if err != nil || !ok {
		return fmt.Errorf("district %d/%d: found %v, err %v", o.w, o.d, ok, err)
	}
	dTax, oID := row[0].Float(), row[1].Int()
	if _, err := s.Exec(`UPDATE district SET d_next_o_id = $3 WHERE d_w_id = $1 AND d_id = $2`, ifdb.Int(o.w), ifdb.Int(o.d), ifdb.Int(oID+1)); err != nil {
		return err
	}
	if _, ok, err := s.QueryRow(`SELECT c_balance FROM customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3`, ifdb.Int(o.w), ifdb.Int(o.d), ifdb.Int(o.c)); err != nil || !ok {
		return fmt.Errorf("customer: found %v, err %v", ok, err)
	}
	if _, err := s.Exec(`INSERT INTO orders VALUES ($1, $2, $3, $4, $5, $6)`, ifdb.Int(o.w), ifdb.Int(o.d), ifdb.Int(oID), ifdb.Int(o.c), ifdb.Int(oID), ifdb.Int(int64(len(o.items)))); err != nil {
		return err
	}
	if _, err := s.Exec(`INSERT INTO new_order VALUES ($1, $2, $3)`, ifdb.Int(o.w), ifdb.Int(o.d), ifdb.Int(oID)); err != nil {
		return err
	}
	for j, item := range o.items {
		qty := o.qtys[j]
		row, ok, err := s.QueryRow(`SELECT i_price FROM item WHERE i_id = $1`, ifdb.Int(item))
		if err != nil || !ok {
			return fmt.Errorf("item %d: found %v, err %v", item, ok, err)
		}
		price := row[0].Float()
		row, ok, err = s.QueryRow(`SELECT s_quantity, s_ytd, s_order_cnt FROM stock WHERE s_w_id = $1 AND s_i_id = $2`, ifdb.Int(o.w), ifdb.Int(item))
		if err != nil || !ok {
			return fmt.Errorf("stock %d/%d: found %v, err %v", o.w, item, ok, err)
		}
		sq := row[0].Int()
		if sq-qty < 10 {
			sq += 91
		}
		if _, err := s.Exec(`UPDATE stock SET s_quantity = $3, s_ytd = $4, s_order_cnt = $5 WHERE s_w_id = $1 AND s_i_id = $2`,
			ifdb.Int(o.w), ifdb.Int(item), ifdb.Int(sq-qty), ifdb.Int(row[1].Int()+qty), ifdb.Int(row[2].Int()+1)); err != nil {
			return err
		}
		amount := float64(qty) * price * (1 + wTax + dTax)
		if _, err := s.Exec(`INSERT INTO order_line VALUES ($1, $2, $3, $4, $5, $6, $7)`,
			ifdb.Int(o.w), ifdb.Int(o.d), ifdb.Int(oID), ifdb.Int(int64(j+1)), ifdb.Int(item), ifdb.Int(qty), ifdb.Float(amount)); err != nil {
			return err
		}
	}
	return nil
}
