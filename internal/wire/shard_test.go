package wire

import (
	"reflect"
	"strings"
	"testing"

	"ifdb/internal/types"
)

func sampleMap() *ShardMap {
	return &ShardMap{
		Version: 7,
		Keys:    map[string]string{"kv": "k", "orders": "customer_id"},
		Shards: []Shard{
			{ID: 0, Primary: "a:1", Replicas: []string{"a:2", "a:3"}},
			{ID: 1, Primary: "b:1"},
			{ID: 2, Primary: "c:1", Replicas: []string{"c:2"}},
		},
	}
}

// TestShardMapParseFormatRoundTrip: Format is the one encoding of a
// map (the -shard-map file, shard_map()'s answer, the stale-map
// trailer), so every valid map reads back through ParseShardMap as
// itself.
func TestShardMapParseFormatRoundTrip(t *testing.T) {
	text := `
# test map
version 3
table kv key k
shard 1 primary b:1
shard 0 primary a:1 replicas a:2,a:3
`
	m, err := ParseShardMap(text)
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 3 || m.NumShards() != 2 {
		t.Fatalf("parsed %+v", m)
	}
	// Shards sorted by id regardless of file order.
	if m.Shards[0].ID != 0 || m.Shards[0].Primary != "a:1" || len(m.Shards[0].Replicas) != 2 {
		t.Fatalf("shard 0: %+v", m.Shards[0])
	}
	for _, want := range []*ShardMap{m, sampleMap(),
		{Version: 1, Keys: map[string]string{}, Shards: []Shard{{ID: 0, Primary: "a:1"}}}} {
		got, err := ParseShardMap(want.Format())
		if err != nil {
			t.Fatalf("reparse of Format output: %v\n%s", err, want.Format())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: %+v, want %+v", got, want)
		}
		if got.Format() != want.Format() {
			t.Fatalf("format not stable:\n%s\nvs\n%s", want.Format(), got.Format())
		}
	}
}

func TestShardMapValidate(t *testing.T) {
	if _, err := ParseShardMap("version 1\nshard 1 primary a:1\n"); err == nil {
		t.Fatal("gap in shard ids accepted")
	}
	if _, err := ParseShardMap("version 1\n"); err == nil {
		t.Fatal("empty map accepted")
	}
	if _, err := ParseShardMap("version 1\nshard 0 primary\n"); err == nil {
		t.Fatal("missing primary accepted")
	}
	if _, err := ParseShardMap("bogus line\n"); err == nil {
		t.Fatal("unknown directive accepted")
	}
	// A version-0 map has no text form, so no server may serve one.
	m := sampleMap()
	m.Version = 0
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version 0: %v, want a refusal naming the version", err)
	}
}

// TestShardKeyHashCanonical pins the property routing correctness
// rests on: the client hashing a SQL literal and the server hashing
// the stored datum must agree.
func TestShardKeyHashCanonical(t *testing.T) {
	if ShardKeyHash(types.NewInt(42)) != ShardKeyHashString("42") {
		t.Fatal("int literal and datum hash differently")
	}
	if ShardKeyHash(types.NewText("alice")) != ShardKeyHashString("alice") {
		t.Fatal("text literal and datum hash differently")
	}
	m := sampleMap()
	seen := make(map[uint32]bool)
	for i := 0; i < 100; i++ {
		sid := m.ShardOf(types.NewInt(int64(i)).String())
		if int(sid) >= m.NumShards() {
			t.Fatalf("key %d out of range shard %d", i, sid)
		}
		seen[sid] = true
	}
	if len(seen) != m.NumShards() {
		t.Fatalf("100 keys hit only shards %v of %d", seen, m.NumShards())
	}
}

func TestShardMapCloneIsDeep(t *testing.T) {
	m := sampleMap()
	c := m.Clone()
	c.Version++
	c.Keys["kv"] = "other"
	c.Shards[0].Primary = "x:9"
	c.Shards[0].Replicas[0] = "x:8"
	if m.Version != 7 || m.Keys["kv"] != "k" || m.Shards[0].Primary != "a:1" || m.Shards[0].Replicas[0] != "a:2" {
		t.Fatalf("clone aliased the original: %+v", m)
	}
}

func TestTrailerCarriesShardMap(t *testing.T) {
	c := &RowsChunk{First: true, Done: true, Err: StaleShardMapErr, ShardMap: sampleMap()}
	buf, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRowsChunk(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ShardMap == nil || got.ShardMap.Version != 7 {
		t.Fatalf("decoded trailer lost the attached map: %+v", got.ShardMap)
	}
	if !strings.Contains(got.Err, StaleShardMapErr) {
		t.Fatalf("err: %q", got.Err)
	}

	c2 := &RowsChunk{First: true, Done: true}
	buf2, err := c2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got2, err := DecodeRowsChunk(buf2)
	if err != nil {
		t.Fatal(err)
	}
	if got2.ShardMap != nil {
		t.Fatal("map materialized from nothing")
	}
}
