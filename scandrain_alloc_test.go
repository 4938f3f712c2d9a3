package ifdb_test

import (
	"fmt"
	"net"
	"runtime"
	"testing"

	"ifdb"
	"ifdb/client"
	"ifdb/internal/wire"
)

// TestScanDrainAllocBudget holds the paper's Query by Label (§7.1), as
// the benchmark's scan-drain runs it, to a budget in objects and bytes
// allocated per row received: a USING DISK table several times its
// buffer pool, every row under two tags ({shared, tenant}), and a
// reader whose label admits half the tenants, draining the table
// through a prepared statement's Query from an in-process wire.Server
// over loopback. Both ends share the process, so both are counted.
//
// The server sends each row as its stored bytes. What the budget keeps
// from growing back is the client decoding every ROWS chunk into a
// chunk of its own — a row table, a value block, a label slice and a
// tag block per chunk, and a string per text value: 1.10 objects and
// 527 bytes per row received with IFC on, and 3.08 and 643 with it off,
// before the connection decoded every chunk into one (0.08 and 278, 2.07
// and 418 after). With IFC off the server decodes every row it examines,
// its text included, to judge the pushed `tenant < 4`: the two objects a
// row received that the baseline's budget leaves it.
func TestScanDrainAllocBudget(t *testing.T) {
	for _, c := range []struct {
		ifc    bool
		allocs float64 // per row received
		bytes  uint64  // per row received
	}{{true, 0.15, 320}, {false, 2.15, 470}} {
		t.Run(fmt.Sprintf("ifc=%v", c.ifc), func(t *testing.T) {
			stmt, want := scanDrainDB(t, c.ifc)
			drain := func() { scanDrain(t, stmt, want) }
			drain() // plans, fills the buffer pool, grows the buffers
			if per := testing.AllocsPerRun(5, drain) / float64(want); per > c.allocs {
				t.Errorf("%.3f allocations per row received, budget %.2f", per, c.allocs)
			} else {
				t.Logf("%.3f allocations per row received (budget %.2f)", per, c.allocs)
			}
			const runs = 5
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				drain()
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / runs / uint64(want); per > c.bytes {
				t.Errorf("%d bytes per row received, budget %d", per, c.bytes)
			} else {
				t.Logf("%d bytes per row received (budget %d)", per, c.bytes)
			}
		})
	}
}

// BenchmarkScanDrain is the budget's drain with IFC on, for profiles of
// both ends: go test -run '^$' -bench ScanDrain -cpuprofile cpu.out .
func BenchmarkScanDrain(b *testing.B) {
	stmt, want := scanDrainDB(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanDrain(b, stmt, want)
	}
}

// scanDrain drains the table once through stmt and checks it returned
// want rows, none of a hidden tenant.
func scanDrain(t testing.TB, stmt *client.Stmt, want int) {
	rows, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		if rows.Row()[1].Int() >= scanVisible {
			t.Fatalf("row %v of a hidden tenant", rows.Row())
		}
		n++
	}
	if err := rows.Close(); err != nil || n != want {
		t.Fatalf("drained %d rows, want %d (err %v)", n, want, err)
	}
}

// The scan-drain table: scanTenants tenants, the reader admitted to the
// first scanVisible of them, about eighty rows an 8 KiB page behind an
// eight-page buffer pool.
const (
	scanRows    = 4000
	scanTenants = 8
	scanVisible = 4
	scanPool    = 8
)

// scanDrainDB loads the table and returns the reader's prepared drain
// over the wire and the number of rows it returns. With IFC off the
// rows carry no labels and the reader says `tenant < 4` instead.
func scanDrainDB(t testing.TB, ifc bool) (*client.Stmt, int) {
	t.Helper()
	db, err := ifdb.Open(ifdb.Config{IFC: ifc, BufferPoolPages: scanPool})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	mustExec(t, db.AdminSession(), `CREATE TABLE big (k BIGINT PRIMARY KEY, tenant BIGINT, v BIGINT, pad TEXT) USING DISK`)
	owner := db.CreatePrincipal("scan")
	shared, err := db.CreateTag(owner, "shared")
	if err != nil {
		t.Fatal(err)
	}
	var writers [scanTenants]*ifdb.Session
	reader := []ifdb.Tag{shared}
	for i := range writers {
		tag, err := db.CreateTag(owner, fmt.Sprintf("tenant%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if i < scanVisible {
			reader = append(reader, tag)
		}
		writers[i] = db.NewSession(owner)
		for _, tg := range []ifdb.Tag{shared, tag} {
			if err := writers[i].AddSecrecy(tg); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := int64(0); k < scanRows; k++ {
		mustExec(t, writers[k%scanTenants], `INSERT INTO big VALUES ($1, $2, $3, $4)`,
			ifdb.Int(k), ifdb.Int(k%scanTenants), ifdb.Int(k*7919%1_000_000), ifdb.Text(fmt.Sprintf("p%039d", k)))
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(db.Engine(), "")
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	conn, err := client.Dial(ln.Addr().String(), "", uint64(owner))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	text := `SELECT k, tenant, v, pad FROM big WHERE tenant < 4`
	if ifc {
		for _, tg := range reader {
			conn.AddSecrecy(tg)
		}
		text = `SELECT k, tenant, v, pad FROM big`
	}
	stmt, err := conn.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	return stmt, scanRows / scanTenants * scanVisible
}
