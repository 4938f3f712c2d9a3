package client_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ifdb"
	"ifdb/client"
	"ifdb/internal/obs"
	"ifdb/internal/wire"
)

// The million-row fixture: one server, one seeding, shared by the
// bounded-heap and cancel-latency tests below. Tests in this package
// run sequentially, so plain package state under a sync.Once is safe;
// the server lives for the test binary's lifetime.
const milRows = 1_000_000

var (
	milOnce sync.Once
	milDB   *ifdb.DB
	milAddr string
)

func millionRowServer(t *testing.T) (*ifdb.DB, string) {
	t.Helper()
	milOnce.Do(func() {
		// Not startServer: that registers a cleanup on the first caller's
		// t, which would tear the shared server down between tests.
		db := ifdb.MustOpen(ifdb.Config{IFC: true})
		srv := wire.NewServer(db.Engine(), "")
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		seedMil(t, db, milRows)
		milDB, milAddr = db, ln.Addr().String()
	})
	if milDB == nil {
		t.Fatal("million-row fixture failed to build")
	}
	return milDB, milAddr
}

// seedMil creates table mil on db with keys 0..rows-1.
func seedMil(t *testing.T, db *ifdb.DB, rows int) {
	t.Helper()
	sess := db.AdminSession()
	if _, err := sess.Exec(`CREATE TABLE mil (k BIGINT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < rows; lo += 2000 {
		var b strings.Builder
		b.WriteString(`INSERT INTO mil VALUES `)
		for k := lo; k < lo+2000; k++ {
			if k > lo {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "(%d)", k)
		}
		if _, err := sess.Exec(b.String()); err != nil {
			t.Fatal(err)
		}
	}
}

// liveBytes returns the live heap. Two forced collections: one is not
// enough, because HeapAlloc still counts garbage on lazily-swept spans
// and the decode churn of a fast stream leaves a lot of it — measured
// as tens of MB of phantom "growth" that a second cycle sweeps away.
func liveBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// streamBuffered is what result streaming holds in this process right
// now, as the two ends account for it: the server's encode buffers and
// the rows its open cursors hold, the clients' frame buffers and the
// chunks their open streams iterate.
func streamBuffered() int64 {
	return obs.NewGauge("ifdb_wire_stream_buffered_bytes", "").Value() +
		obs.NewGauge("ifdb_client_stream_buffered_bytes", "").Value()
}

// stallListener hands the server connections whose writes stop after
// stallAfter bytes until the test lets them go. Without it the server
// can park a whole 2 MB result in the loopback socket's buffers and
// give its share of the gauge back before the client has looked: with
// the other packages' tests competing for two CPUs that happened one
// run in four, and the materialized result then read as the two ends'
// idle buffers.
type stallListener struct {
	net.Listener
	stalled chan struct{} // closed when a write first reaches the limit
	release chan struct{} // closed by the test
	once    sync.Once
}

const stallAfter = 64 << 10

func (l *stallListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &stallConn{Conn: c, l: l}, nil
}

type stallConn struct {
	net.Conn
	l       *stallListener
	written int
}

func (c *stallConn) Write(p []byte) (int, error) {
	if c.written += len(p); c.written > stallAfter {
		c.l.once.Do(func() { close(c.l.stalled) })
		<-c.l.release
	}
	return c.Conn.Write(p)
}

// drainWatching serves db on a connection of its own and streams
// query, which reads `SELECT k FROM mil`, to the end. It returns the most the stream ever
// had buffered — sampled once with the server stopped mid-result, its
// cursor open, and then every thousand rows — and the most the live
// heap grew, sampled every 200 000.
func drainWatching(t *testing.T, db *ifdb.DB, query string, wantRows int) (buffered int64, heapGrowth uint64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sl := &stallListener{Listener: ln, stalled: make(chan struct{}), release: make(chan struct{})}
	srv := wire.NewServer(db.Engine(), "")
	go srv.Serve(sl)
	defer srv.Close()
	conn, err := client.Dial(ln.Addr().String(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	held, base := streamBuffered(), liveBytes()
	rows, err := conn.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	<-sl.stalled
	buffered = streamBuffered() - held
	close(sl.release)
	n := 0
	for rows.Next() {
		if n++; n%1000 == 0 {
			buffered = max(buffered, streamBuffered()-held)
		}
		if n%200_000 == 0 {
			if lb := liveBytes(); lb > base {
				heapGrowth = max(heapGrowth, lb-base)
			}
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if n != wantRows {
		t.Fatalf("streamed %d rows, want %d", n, wantRows)
	}
	return buffered, heapGrowth
}

// streamBound is far above what a stream buffers (one encoded chunk at
// each end, two if a row's worth of slack is counted: a few KB here)
// and far below any result worth streaming.
const streamBound = 256 << 10

// TestStreamBoundedHeap is the streaming executor's acceptance claim: a
// keyless SELECT over a million rows streams end-to-end — the server
// never materializes the result, the client consumes chunk by chunk —
// so what the stream buffers stays at a few chunks while a result far
// bigger flows through. The bound is on the buffers the two ends own
// and account for, which does not move with the collector's phase; the
// process's live heap (server and client share it) is a loose backstop
// against something unaccounted holding the result.
func TestStreamBoundedHeap(t *testing.T) {
	db, _ := millionRowServer(t)
	buffered, heapGrowth := drainWatching(t, db, `SELECT k FROM mil`, milRows)
	t.Logf("%d rows: stream buffered at most %d bytes, live heap grew at most %d", milRows, buffered, heapGrowth)
	if buffered <= 0 {
		t.Fatal("the stream accounted for no buffered bytes mid-stream")
	}
	if buffered > streamBound {
		t.Fatalf("stream buffered %d bytes, bound %d; result is being materialized", buffered, streamBound)
	}
	// A materialized million rows is ≥40 MB on the server alone.
	if heapGrowth > 128<<20 {
		t.Fatalf("live heap grew %d bytes mid-stream", heapGrowth)
	}
}

// TestStreamBoundCatchesMaterialized runs the same scan and the same
// measurement as the second statement of a batch — which the engine
// runs to the end and serves from a materialized cursor — over a fifth
// of the rows: the bound must not hold there, or it proves nothing
// above.
func TestStreamBoundCatchesMaterialized(t *testing.T) {
	const rows = milRows / 5
	db := ifdb.MustOpen(ifdb.Config{IFC: true})
	seedMil(t, db, rows)
	buffered, heapGrowth := drainWatching(t, db, `SELECT 1; SELECT k FROM mil`, rows)
	t.Logf("%d rows, materialized: stream buffered at most %d bytes, live heap grew at most %d", rows, buffered, heapGrowth)
	if buffered <= streamBound {
		t.Fatalf("a materialized result of %d rows buffered %d bytes, within the bound %d", rows, buffered, streamBound)
	}
}

// TestConnCancelMillionRowScan: cancel latency against a live
// million-row scan. A statement that scanned all million rows before
// the first chunk left the server would leave a cancel sent after the
// first rows arrived nothing to save; the scan is still running when
// the cancel lands, the engine stops within one iterator batch, and
// the stream dies promptly — asserted with a wall-clock bound and a
// far-from-complete row count.
func TestConnCancelMillionRowScan(t *testing.T) {
	_, addr := millionRowServer(t)
	conn, err := client.Dial(addr, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := conn.QueryContext(ctx, `SELECT k FROM mil`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !rows.Next() {
			t.Fatalf("stream died after %d rows: %v", i, rows.Err())
		}
	}
	cancel()
	t0 := time.Now()
	n := 10
	for rows.Next() {
		n++
	}
	lat := time.Since(t0)
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("stream error = %v, want context.Canceled", err)
	}
	rows.Close()
	if n >= milRows/2 {
		t.Fatalf("server streamed %d of %d rows despite the cancel", n, milRows)
	}
	if lat > 2*time.Second {
		t.Fatalf("cancel-to-termination latency %v", lat)
	}
	// The connection survives the in-stream cancel.
	if _, err := conn.Exec(`SELECT COUNT(*) FROM mil WHERE k = 0`); err != nil {
		t.Fatalf("conn dead after canceled scan: %v", err)
	}
}
