package engine_test

import (
	"fmt"
	"net"
	"testing"

	"ifdb/client"
	"ifdb/internal/engine"
	"ifdb/internal/label"
	"ifdb/internal/types"
	"ifdb/internal/wire"
)

// TestPointReadAllocBudget holds the point read over the wire — a
// prepared primary-key SELECT through client.Conn against an in-process
// wire.Server on loopback, the benchmark's point-read — to an allocation
// budget, counted at both ends (they share the process), with IFC on and
// off. What the round trip allocates beyond the statement and its one
// row — frame buffers, encode scaffolding, a second frame for the
// trailer (40 and 34 allocations before they went), a copy of the
// scanned row narrowed to the columns read (one more), the statement's
// iterator tree, frame and Runtime (26 and 20 before they were kept
// from statement to statement), a ROWS chunk decoded into a chunk of
// its own, with its row table, value block, label slice and tag block
// (21 and 16 before the connection decoded every chunk into one) — is
// what the budget keeps from growing back.
func TestPointReadAllocBudget(t *testing.T) {
	for _, c := range []struct {
		ifc    bool
		budget float64
	}{{true, 16}, {false, 13}} {
		t.Run(fmt.Sprintf("ifc=%v", c.ifc), func(t *testing.T) {
			e, err := engine.New(engine.Config{IFC: c.ifc})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			admin := e.NewSession(e.Admin())
			if _, err := admin.Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, tenant BIGINT, v BIGINT, pad TEXT)`); err != nil {
				t.Fatal(err)
			}
			var tag label.Tag
			if c.ifc {
				// Rows and reader carry one tag, so Label Confinement has a
				// label to compare and every row a label to ship.
				if tag, err = e.CreateTag(e.Admin(), "tenant"); err != nil {
					t.Fatal(err)
				}
				engine.SyncLabel(admin, label.New(tag), nil, e.Admin())
			}
			for i := int64(0); i < 50; i++ {
				if _, err := admin.Exec(`INSERT INTO kv VALUES ($1, 0, $2, $3)`, types.NewInt(i), types.NewInt(i*7), types.NewText(fmt.Sprintf("p%039d", i))); err != nil {
					t.Fatal(err)
				}
			}

			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := wire.NewServer(e, "")
			go srv.Serve(ln)
			defer srv.Close()
			conn, err := client.Dial(ln.Addr().String(), "", uint64(e.Admin()))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if c.ifc {
				conn.AddSecrecy(tag)
			}
			stmt, err := conn.Prepare(`SELECT v, pad FROM kv WHERE k = $1`)
			if err != nil {
				t.Fatal(err)
			}

			// The parameter slice is rewritten in place before every read:
			// building it is the caller's cost.
			params := make([]client.Value, 1)
			next := int64(0)
			run := func() {
				next++
				params[0] = types.NewInt(next % 50)
				rows, err := stmt.Query(params...)
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for rows.Next() {
					if rows.Row()[0].Int() != (next%50)*7 {
						t.Fatalf("key %d: row %v", next%50, rows.Row())
					}
					n++
				}
				if err := rows.Close(); err != nil || n != 1 {
					t.Fatalf("key %d: %d rows, err %v", next%50, n, err)
				}
			}
			run() // label sync, plan, buffers grown
			if per := testing.AllocsPerRun(500, run); per > c.budget {
				t.Errorf("%.1f allocations per point read, budget %.0f", per, c.budget)
			} else {
				t.Logf("%.1f allocations per point read (budget %.0f)", per, c.budget)
			}
		})
	}
}
