// Package client is the network client library for IFDB — the analog
// of the paper's modified libpq (§7.2), grown cluster-aware.
//
// Two entry points:
//
//   - Conn is one connection to one server. It keeps the process
//     label and acting principal client-side and transmits changes
//     lazily, coalesced with the next statement, exactly as the
//     paper's protocol does — which is also what makes AutoReconnect
//     sound: the client owns the authoritative label state, so a
//     fresh server session is brought back to it with one sync.
//   - Router is a concurrency-safe pool over per-node Conns for
//     replicated and sharded clusters: writes go to the primary (per
//     shard, when a shard map is in play), reads load-balance across
//     replicas, promotions are followed automatically, and
//     read-your-writes is preserved through commit-LSN tokens.
//
// Both speak API v2 (see ARCHITECTURE.md § Client API v2): Prepare
// pins a statement's parsed AST server-side and executions ship only
// a handle and parameters; Query/QueryContext stream results in
// chunks through the Rows iterator (a Router fan-out read merges
// per-shard streams lazily); ExecContext/QueryContext propagate
// context deadlines and cancellation as an out-of-band wire CANCEL
// that aborts the statement — and its transaction — server-side. A
// Router-prepared statement's shard-key derivation is computed once
// at prepare time by the SQL parser and applied to each execution's
// parameters. The classic text Exec is a shim over the same frames.
// For stdlib integration, the ifdb/driver package wraps all of this
// as a database/sql driver.
//
// Invariants worth knowing before building on this package:
//
//   - Read-your-writes tokens are (epoch, LSN) pairs from the last
//     acknowledged write; a replica read carries the LSN and waits
//     until the replica has applied it. LSN spaces are only
//     comparable within one epoch chain, so after a failover the
//     token is not applied until a new-epoch write re-bases it — and
//     in a sharded cluster each shard keeps its own token, because
//     each shard is its own epoch chain.
//   - Failover retries are at-least-once: a connection break between
//     a commit and its Result re-executes the statement. Route
//     non-idempotent writes through idempotent SQL where double-apply
//     matters.
//   - A streamed row lives until the next Next: Rows.Row's slice and
//     Rows.RowLabel's label are overwritten when the connection
//     decodes its next chunk (one buffer per Conn, reused from chunk to
//     chunk and statement to statement). Copy what you keep; Exec's
//     Result and the Router's gateway already do. TEXT strings are
//     never overwritten: each stays valid and pins its chunk's payload.
//   - Sharded statements are version-fenced: the Router stamps each
//     statement with its shard-map version, and a server holding a
//     newer map refuses it with the new map attached, which the
//     Router adopts and re-routes — stale routing fails closed, never
//     silently writes to the wrong shard.
//
// See ARCHITECTURE.md § Failover & epochs (tokens, promotion
// following) and § Sharding (the shard map, routing and fan-out
// rules).
package client
