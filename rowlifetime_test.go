package ifdb_test

import (
	"fmt"
	"net"
	"strconv"
	"testing"

	"ifdb"
	"ifdb/client"
	"ifdb/internal/wire"
)

// A connection decodes every ROWS chunk into one buffer, so a stream's
// row and label are valid only until its next Next. These tests hold
// the consumers that keep rows longer to copying them: the distplan
// gateway, whose per-shard feeds buffer rows in a channel while their
// streams decode the next chunk, and Exec, whose Result outlives the
// connection's next statement.

// lifetimeRows is the rows of the table the tests read: every shard of
// three gets more than lifetimeChunks full chunks of them.
const (
	lifetimeRows   = 3000
	lifetimeChunks = 3
)

// startIFCNode stands up an unsharded in-memory node with IFC on: the
// single-node oracle beside the shards.
func startIFCNode(t *testing.T) string {
	t.Helper()
	db := ifdb.MustOpen(ifdb.Config{IFC: true})
	sequentialIDs(db)
	srv := wire.NewServer(db.Engine(), "")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); db.Close() })
	return ln.Addr().String()
}

// lifetimeTags creates the same principal and two tags on a node, in
// the same order, so their ids agree on every node.
func lifetimeTags(t *testing.T, addr string) (owner uint64, a, b client.Tag) {
	t.Helper()
	c, err := client.Dial(addr, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if owner, err = c.CreatePrincipal("owner"); err != nil {
		t.Fatal(err)
	}
	c.SetPrincipal(owner)
	if a, err = c.CreateTag("a"); err != nil {
		t.Fatal(err)
	}
	if b, err = c.CreateTag("b"); err != nil {
		t.Fatal(err)
	}
	return owner, a, b
}

// execer is what loads the table: a Router or a single Conn.
type execer interface {
	Exec(sql string, params ...client.Value) (*client.Result, error)
}

// loadLifetime creates the table through ddl and inserts lifetimeRows
// rows through writers, row k under writers[k%3]'s label, so labels
// change from row to row: {a}, {b}, {a, b}.
func loadLifetime(t *testing.T, ddl execer, writers [3]execer) {
	t.Helper()
	if _, err := ddl.Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT, pad TEXT)`); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < lifetimeRows; k++ {
		if _, err := writers[k%3].Exec(`INSERT INTO kv VALUES ($1, $2, $3)`,
			ifdb.Int(k), ifdb.Int(k*7919%1000), ifdb.Text(fmt.Sprintf("pad-%06d-%s", k, strconv.FormatInt(k*k, 36)))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGatewayKeepsRowsAcrossChunks: a 3-shard Router's union and
// ordered merge (ORDER BY … LIMIT) answer exactly as a single node
// does, rows and labels, while every shard streams several full chunks
// and its feed's channel holds rows across a chunk boundary. A feed
// that forwards its stream's rows uncopied hands the merge rows its
// connection has since decoded the next chunk over.
func TestGatewayKeepsRowsAcrossChunks(t *testing.T) {
	smap := &wire.ShardMap{Version: 1, Keys: map[string]string{"kv": "k"}}
	mapFn := func() *wire.ShardMap { return smap }
	var addrs []string
	for sid := uint32(0); sid < 3; sid++ {
		addr, _ := startIFCShard(t, mapFn, sid)
		smap.Shards = append(smap.Shards, wire.Shard{ID: sid, Primary: addr})
		addrs = append(addrs, addr)
	}
	perShard := make([]int, 3)
	for k := 0; k < lifetimeRows; k++ {
		perShard[smap.ShardOf(strconv.Itoa(k))]++
	}
	for sid, n := range perShard {
		if n <= lifetimeChunks*wire.DefaultChunkRows {
			t.Fatalf("shard %d holds %d rows: fewer than %d full chunks", sid, n, lifetimeChunks)
		}
	}
	oracle := startIFCNode(t)
	var owner uint64
	var a, b client.Tag
	for _, addr := range append([]string{oracle}, addrs...) {
		o, ta, tb := lifetimeTags(t, addr)
		if owner != 0 && (o != owner || ta != a || tb != b) {
			t.Fatalf("ids diverged on %s: %d %d %d vs %d %d %d", addr, o, ta, tb, owner, a, b)
		}
		owner, a, b = o, ta, tb
	}
	labels := [3][]client.Tag{{a}, {b}, {a, b}}

	router := func(tags []client.Tag) *client.Router {
		r, err := client.OpenRouter(client.RouterConfig{Addrs: addrs, Principal: owner, Secrecy: tags})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}
	conn := func(tags []client.Tag) *client.Conn {
		c, err := client.Dial(oracle, "", owner)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		for _, tg := range tags {
			c.AddSecrecy(tg)
		}
		return c
	}
	var shardWriters, nodeWriters [3]execer
	for i, tags := range labels {
		shardWriters[i], nodeWriters[i] = router(tags), conn(tags)
	}
	loadLifetime(t, shardWriters[0], shardWriters)
	loadLifetime(t, nodeWriters[0], nodeWriters)

	reader, node := router(labels[2]), conn(labels[2])
	for _, c := range []struct {
		sql     string
		ordered bool
	}{
		{`SELECT k, v, pad FROM kv`, false},
		{fmt.Sprintf(`SELECT k, v, pad FROM kv ORDER BY v DESC, k LIMIT %d`, lifetimeRows-100), true},
	} {
		want, err := node.Exec(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) < lifetimeRows-100 || len(want.RowLabels) != len(want.Rows) {
			t.Fatalf("%s: the single node returned %d rows and %d labels", c.sql, len(want.Rows), len(want.RowLabels))
		}
		got, err := reader.Exec(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := renderResult(got, c.ordered, true), renderResult(want, c.ordered, true); g != w {
			t.Fatalf("%s: the gateway's answer is not the single node's", c.sql)
		}
		execIsDrainedQuery(t, c.sql, got, func() (client.Rows, error) { return reader.Query(c.sql) }, c.ordered, true)
	}
}

// TestExecResultOutlivesNextStatement: the rows and labels of a
// connection's Exec result are unchanged after the connection has run
// another multi-chunk statement, which decodes into the same buffer.
func TestExecResultOutlivesNextStatement(t *testing.T) {
	addr := startIFCNode(t)
	owner, a, b := lifetimeTags(t, addr)
	var writers [3]execer
	var reader *client.Conn
	for i, tags := range [3][]client.Tag{{a}, {b}, {a, b}} {
		c, err := client.Dial(addr, "", owner)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, tg := range tags {
			c.AddSecrecy(tg)
		}
		writers[i], reader = c, c
	}
	loadLifetime(t, writers[0], writers)

	first, err := reader.Exec(`SELECT k, v, pad FROM kv ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Rows) != lifetimeRows || len(first.RowLabels) != lifetimeRows {
		t.Fatalf("%d rows and %d labels, want %d", len(first.Rows), len(first.RowLabels), lifetimeRows)
	}
	before := renderResult(first, true, true)
	second, err := reader.Exec(`SELECT k, v, pad FROM kv ORDER BY k DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if after := renderResult(first, true, true); after != before {
		t.Fatal("the first result changed while the connection ran the second statement")
	}
	if len(second.Rows) != lifetimeRows || second.Rows[0][0].Int() != lifetimeRows-1 {
		t.Fatalf("second statement: %d rows, first %v", len(second.Rows), second.Rows[0])
	}
}
