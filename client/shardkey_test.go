package client

import (
	"strings"
	"testing"

	"ifdb/internal/types"
	"ifdb/internal/wire"
)

func testMap() *ShardMap {
	return &wire.ShardMap{
		Version: 1,
		Keys:    map[string]string{"kv": "k"},
		Shards: []wire.Shard{
			{ID: 0, Primary: "a:1"},
			{ID: 1, Primary: "b:1"},
		},
	}
}

// planKeys runs the parser-based derivation for one statement.
func planKeys(t *testing.T, sqlText string, params ...Value) (string, []string, bool) {
	t.Helper()
	p := analyzeStmt(sqlText)
	return p.shardKeys(testMap(), params)
}

func TestParserShardKeys(t *testing.T) {
	i := func(v int64) Value { return types.NewInt(v) }
	cases := []struct {
		sql    string
		params []Value
		key    string // first derived key; "" = not derivable
		nkeys  int
	}{
		// The text path's bread and butter still works.
		{`INSERT INTO kv VALUES (7, 'x')`, nil, "7", 1},
		{`INSERT INTO kv (k, v) VALUES ($1, $2)`, []Value{i(9), types.NewText("y")}, "9", 1},
		{`SELECT v FROM kv WHERE k = 5`, nil, "5", 1},
		{`UPDATE kv SET v = 'z' WHERE k = $1`, []Value{i(3)}, "3", 1},
		{`DELETE FROM kv WHERE k = 4 AND v = 'q'`, nil, "4", 1},

		// What the parser path adds: IN lists...
		{`SELECT v FROM kv WHERE k IN (1, 2, 3)`, nil, "1", 3},
		{`SELECT v FROM kv WHERE k IN ($1, $2)`, []Value{i(1), i(2)}, "1", 2},
		// ...quoted identifiers...
		{`SELECT v FROM kv WHERE "k" = 5`, nil, "5", 1},
		// ...and key equality beside an OR-bearing sibling conjunct.
		{`SELECT v FROM kv WHERE k = 5 AND (v = 'a' OR v = 'b')`, nil, "5", 1},

		// Conservative refusals.
		{`SELECT v FROM kv WHERE k = 5 OR k = 6`, nil, "", 0},
		{`SELECT v FROM kv WHERE NOT (k = 5)`, nil, "", 0},
		{`SELECT v FROM kv WHERE k IN (1, v)`, nil, "", 0},       // non-const member
		{`SELECT v FROM kv WHERE k = v`, nil, "", 0},             // no constant
		{`INSERT INTO kv VALUES (1, 'a'), (2, 'b')`, nil, "", 0}, // multi-row
		{`UPDATE kv SET k = 9 WHERE k = 5`, nil, "", 0},          // key reassignment
		{`SELECT v FROM kv WHERE k = (SELECT 1)`, nil, "", 0},    // subquery
		{`SELECT * FROM kv JOIN kv ON 1=1 WHERE k = 5`, nil, "", 0},
	}
	for _, c := range cases {
		table, keys, ok := planKeys(t, c.sql, c.params...)
		if c.key == "" {
			if ok {
				t.Errorf("%q: derived %v, want not derivable", c.sql, keys)
			}
			continue
		}
		if !ok || len(keys) != c.nkeys || keys[0] != c.key {
			t.Errorf("%q: got table=%q keys=%v ok=%v, want %d keys starting %q",
				c.sql, table, keys, ok, c.nkeys, c.key)
		}
	}
}

func TestSingleShardINList(t *testing.T) {
	m := testMap()
	// Find two keys on the same shard and one on the other.
	var same []string
	var other string
	for k := 0; len(same) < 2 || other == ""; k++ {
		ks := types.NewInt(int64(k)).String()
		if m.ShardOf(ks) == 0 {
			if len(same) < 2 {
				same = append(same, ks)
			}
		} else if other == "" {
			other = ks
		}
	}
	if sid, ok := singleShardOf(m, same); !ok || sid != 0 {
		t.Fatalf("same-shard list not routable: %v %v", sid, ok)
	}
	if _, ok := singleShardOf(m, append(same, other)); ok {
		t.Fatal("cross-shard list reported routable")
	}
}

func TestClassifier(t *testing.T) {
	cases := []struct {
		sql                   string
		readOnly, txnCtl, ddl bool
	}{
		{`SELECT * FROM kv`, true, false, false},
		{`SELECT sleep(10)`, true, false, false},
		{`SELECT shard_map()`, true, false, false},
		{`INSERT INTO kv VALUES (1, 'x')`, false, false, false},
		{`BEGIN`, false, true, false},
		{`COMMIT`, false, true, false},
		{`ROLLBACK`, false, true, false},
		{`CREATE TABLE t (id BIGINT)`, false, false, true},
		{`DROP TABLE t`, false, false, true},
		// Side-effectful SELECTs are not read-only.
		{`SELECT addsecrecy(3)`, false, false, false},
		{`SELECT nextval('s')`, false, false, false},
		{`SELECT declassify(1)`, false, false, false},
		// ...even buried in expressions.
		{`SELECT 1 + nextval('s') FROM kv WHERE k = 1`, false, false, false},
		// Unparsable text is none of the three, whatever it starts with:
		// unsharded it goes to the primary, which reports the error.
		{`ALTER TABLE t ADD c BIGINT`, false, false, false},
		{`SELECT FROM WHERE`, false, false, false},
		// Pure-DDL batches fan out; a batch MIXING DDL with DML must
		// not (its DML would run on shards that don't own the rows) —
		// it is not ddl, and the sharded write path refuses it.
		{`CREATE TABLE a (x BIGINT); CREATE TABLE b (y BIGINT)`, false, false, true},
		{`INSERT INTO kv VALUES (5, 'x'); CREATE INDEX i ON kv (v)`, false, false, false},
	}
	for _, c := range cases {
		p := analyzeStmt(c.sql)
		if p.readOnly != c.readOnly || p.txnControl != c.txnCtl || p.ddl != c.ddl {
			t.Errorf("%q: readOnly=%v txn=%v ddl=%v, want %v %v %v",
				c.sql, p.readOnly, p.txnControl, p.ddl, c.readOnly, c.txnCtl, c.ddl)
		}
	}

	// Sharded, unparsable text has no key and no table, and the Router
	// refuses it with the parser's error rather than guessing a route.
	p := analyzeStmt(`SELECT v FROM kv WHERE k = `)
	if _, _, ok := p.shardKeys(testMap(), nil); ok || p.parseErr == nil {
		t.Errorf("unparsable text: shard key ok=%v, parseErr=%v", ok, p.parseErr)
	}
	r := &Router{smap: testMap()}
	_, err := r.Exec(`SELECT v FROM kv WHERE k = `)
	if err == nil || !strings.Contains(err.Error(), p.parseErr.Error()) {
		t.Errorf("sharded Router on unparsable text: %v, want the parse error %q", err, p.parseErr)
	}
}
