// Shard routing: the client half of horizontal sharding (see
// ARCHITECTURE.md § Sharding).
//
// A shard map — read from any node with SELECT shard_map(), or supplied
// in RouterConfig — assigns the keyspace to shards, each an ordinary
// epoch-fenced replication group. The Router derives the shard key
// from a single-table statement's AST (shardkey.go), hashes it, and
// routes the statement to the owning shard's primary (writes) or
// replicas (reads, with that shard's read-your-writes token). Reads
// whose key cannot be derived fan out to every shard and merge; writes
// without a derivable key are refused — the Router will not guess
// where a write belongs. The server's shard-ownership guard backstops
// any residual misrouting.

package client

import "ifdb/internal/wire"

// ShardMap re-exports the wire-level shard map (see wire.ShardMap for
// the invariants: version-stamped, shard ids 0..n-1, keys hash by
// their canonical string form).
type ShardMap = wire.ShardMap

// Shard re-exports one shard: an epoch-fenced replication group
// owning a slice of the keyspace.
type Shard = wire.Shard

// ParseShardMap reads the operator-facing shard map text format (the
// -shard-map file of ifdb-server).
var ParseShardMap = wire.ParseShardMap
