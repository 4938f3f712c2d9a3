package wire

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"ifdb/internal/types"
)

// A shard map has one format, the text ParseShardMap reads and Format
// writes: the -shard-map file an operator writes, what SQL's
// shard_map() answers on a sharded node (the Router's discovery), and
// what rides a stale-map refusal. Writes carry the map version they
// were routed under (Execute.ShardVer); a server holding a newer map
// refuses the statement and attaches the new map to the trailer —
// version fencing, mirroring epoch fencing one level up (see
// ARCHITECTURE.md § Sharding).

// StaleShardMapErr is the error prefix a server reports for a
// statement routed under an outdated shard-map version. The current
// map rides along in the same trailer, so the client re-routes without
// an extra round trip.
const StaleShardMapErr = "wire: stale shard map"

// Shard is one horizontal slice of the keyspace: an epoch-fenced
// replication group (one primary plus its replicas) owning every row
// whose shard key hashes to ID.
type Shard struct {
	ID       uint32
	Primary  string   // client address of the shard's primary
	Replicas []string // client addresses of its read replicas
}

// ShardMap is the version-stamped assignment of the keyspace to
// shards. Rows of a sharded table hash by their shard-key column —
// labels are ordinary data, so a row's IFC label shards with it.
// Shard i owns the keys with ShardKeyHash(key) % len(Shards) == i;
// Shards must be sorted by ID and IDs must be exactly 0..n-1.
//
// The map is static but reconfigurable: Version increases on every
// change (a coordinator bumps it when a failover moves a shard's
// primary), and version fencing refuses statements routed under an
// older version.
type ShardMap struct {
	Version uint64
	// Keys maps a table name (lower-case) to its shard-key column
	// (lower-case). Tables absent from Keys are unsharded from the
	// router's point of view: reads fan out, single-shard writes are
	// not derivable.
	Keys   map[string]string
	Shards []Shard
}

// NumShards returns the shard count.
func (m *ShardMap) NumShards() int { return len(m.Shards) }

// ShardKeyHash canonically hashes one shard-key value. The canonical
// form is the value's display string (types.Value.String), so a SQL
// literal on the client and the stored datum on the server hash alike;
// shard keys should be BIGINT or TEXT, whose renderings are exact.
func ShardKeyHash(v types.Value) uint32 {
	return ShardKeyHashString(v.String())
}

// ShardKeyHashString hashes the canonical string form of a shard key
// (FNV-1a; stable across processes and restarts, unlike Go's map
// hash).
func ShardKeyHashString(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// ShardOf returns the shard id owning the given canonical key string.
func (m *ShardMap) ShardOf(key string) uint32 {
	return ShardKeyHashString(key) % uint32(len(m.Shards))
}

// KeyColumn returns the shard-key column for a table ("" when the
// table is not sharded by key).
func (m *ShardMap) KeyColumn(table string) string {
	return m.Keys[strings.ToLower(table)]
}

// Clone deep-copies the map (mutating reconfiguration — the
// coordinator's failover path — works on a copy, so readers holding
// the old map never observe a half-edit).
func (m *ShardMap) Clone() *ShardMap {
	out := &ShardMap{Version: m.Version, Keys: make(map[string]string, len(m.Keys))}
	for k, v := range m.Keys {
		out.Keys[k] = v
	}
	out.Shards = make([]Shard, len(m.Shards))
	for i, s := range m.Shards {
		out.Shards[i] = Shard{ID: s.ID, Primary: s.Primary, Replicas: append([]string(nil), s.Replicas...)}
	}
	return out
}

// Validate checks structural invariants: a version of at least 1 (the
// text format has no version 0), at least one shard, ids exactly
// 0..n-1 in order, every shard with a primary.
func (m *ShardMap) Validate() error {
	if m.Version == 0 {
		return fmt.Errorf("wire: shard map version must be at least 1")
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("wire: shard map has no shards")
	}
	for i, s := range m.Shards {
		if s.ID != uint32(i) {
			return fmt.Errorf("wire: shard ids must be 0..%d in order, got %d at position %d", len(m.Shards)-1, s.ID, i)
		}
		if s.Primary == "" {
			return fmt.Errorf("wire: shard %d has no primary", s.ID)
		}
	}
	return nil
}

// ParseShardMap reads the operator-facing text format of a shard map
// (the -shard-map file of ifdb-server). Lines, in any order, comments
// with #:
//
//	version 1
//	table kv key k
//	shard 0 primary 127.0.0.1:5441 replicas 127.0.0.1:5442,127.0.0.1:5443
//	shard 1 primary 127.0.0.1:5444
func ParseShardMap(text string) (*ShardMap, error) {
	m := &ShardMap{Version: 1, Keys: make(map[string]string)}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		fail := func(msg string) error {
			return fmt.Errorf("wire: shard map line %d: %s: %q", ln+1, msg, line)
		}
		switch f[0] {
		case "version":
			if len(f) != 2 {
				return nil, fail("want 'version N'")
			}
			v, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil || v == 0 {
				return nil, fail("bad version")
			}
			m.Version = v
		case "table":
			if len(f) != 4 || f[2] != "key" {
				return nil, fail("want 'table NAME key COLUMN'")
			}
			m.Keys[strings.ToLower(f[1])] = strings.ToLower(f[3])
		case "shard":
			if len(f) < 4 || f[2] != "primary" {
				return nil, fail("want 'shard N primary ADDR [replicas A,B]'")
			}
			id, err := strconv.ParseUint(f[1], 10, 32)
			if err != nil {
				return nil, fail("bad shard id")
			}
			s := Shard{ID: uint32(id), Primary: f[3]}
			if len(f) == 6 && f[4] == "replicas" {
				for _, r := range strings.Split(f[5], ",") {
					if r = strings.TrimSpace(r); r != "" {
						s.Replicas = append(s.Replicas, r)
					}
				}
			} else if len(f) != 4 {
				return nil, fail("want 'shard N primary ADDR [replicas A,B]'")
			}
			m.Shards = append(m.Shards, s)
		default:
			return nil, fail("unknown directive")
		}
	}
	sort.Slice(m.Shards, func(i, j int) bool { return m.Shards[i].ID < m.Shards[j].ID })
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Format renders m in the ParseShardMap text format.
func (m *ShardMap) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "version %d\n", m.Version)
	tables := make([]string, 0, len(m.Keys))
	for t := range m.Keys {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		fmt.Fprintf(&b, "table %s key %s\n", t, m.Keys[t])
	}
	for _, s := range m.Shards {
		fmt.Fprintf(&b, "shard %d primary %s", s.ID, s.Primary)
		if len(s.Replicas) > 0 {
			fmt.Fprintf(&b, " replicas %s", strings.Join(s.Replicas, ","))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
