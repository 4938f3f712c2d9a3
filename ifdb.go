// Package ifdb is a from-scratch Go implementation of IFDB, the
// database system with decentralized information flow control (DIFC)
// described in:
//
//	David Schultz and Barbara Liskov.
//	IFDB: Decentralized Information Flow Control for Databases.
//	EuroSys 2013.
//
// IFDB tracks sensitive information as it flows through the DBMS and
// between the application and the DBMS. Every tuple carries an
// immutable label (a set of tags); every process (session) carries a
// label that grows as it reads. The Query by Label model confines each
// query to the tuples whose labels flow to the process label, and
// writes are stamped with exactly the process label. Declassification
// — removing a tag — requires authority, which principals obtain by
// ownership or delegation and exercise directly or through authority
// closures and declassifying views.
//
// # Quick start
//
//	db := ifdb.Open(ifdb.Config{IFC: true})
//	admin := db.AdminSession()
//	admin.Exec(`CREATE TABLE patients (name TEXT PRIMARY KEY, diagnosis TEXT)`)
//
//	alicePrin := db.CreatePrincipal("alice")
//	aliceTag, _ := db.CreateTag(alicePrin, "alice_medical")
//
//	s := db.NewSession(alicePrin)
//	s.AddSecrecy(aliceTag) // contaminate before writing Alice's data
//	s.Exec(`INSERT INTO patients VALUES ('Alice', 'HIV')`)
//	s.Declassify(aliceTag) // Alice's own authority permits this
//
// The engine can also run with IFC disabled (Config.IFC = false), in
// which case it is a plain relational database; every benchmark in
// this repository uses that mode as the "PostgreSQL" baseline, so the
// measured difference is exactly the cost of information flow control.
package ifdb

import (
	"time"

	"ifdb/internal/authority"
	"ifdb/internal/engine"
	"ifdb/internal/label"
	"ifdb/internal/repl"
	"ifdb/internal/types"
)

// Core types re-exported from the internal packages so that
// applications only import ifdb (and ifdb/platform, ifdb/client).
type (
	// Tag identifies one secrecy category (paper §3.1).
	Tag = label.Tag
	// Label is a set of tags.
	Label = label.Label
	// Principal is an entity with security interests (§3.2).
	Principal = authority.Principal
	// Session is a connection with its own process label and principal.
	Session = engine.Session
	// Result is the outcome of one SQL statement.
	Result = engine.Result
	// Value is one SQL datum.
	Value = types.Value
	// TriggerCtx is passed to trigger procedures.
	TriggerCtx = engine.TriggerCtx
	// ProcFunc is the signature of stored procedures.
	ProcFunc = engine.ProcFunc
)

// NoPrincipal is the principal with no authority.
const NoPrincipal = authority.NoPrincipal

// Value constructors, re-exported.
var (
	// Null is the SQL NULL value.
	Null = types.Null
	// Int makes a BIGINT value.
	Int = types.NewInt
	// Float makes a DOUBLE PRECISION value.
	Float = types.NewFloat
	// Text makes a TEXT value.
	Text = types.NewText
	// Bool makes a BOOLEAN value.
	Bool = types.NewBool
	// Time makes a TIMESTAMP value.
	Time = types.NewTime
	// NewLabel builds a normalized label from tags.
	NewLabel = label.New
)

// Errors applications match with errors.Is.
var (
	ErrWriteRule       = engine.ErrWriteRule
	ErrUnique          = engine.ErrUnique
	ErrForeignKey      = engine.ErrForeignKey
	ErrFKAuthority     = engine.ErrFKAuthority
	ErrLabelConstraint = engine.ErrLabelConstraint
	ErrAuthority       = engine.ErrAuthority
	ErrContaminated    = engine.ErrContaminated
	ErrClearance       = engine.ErrClearance
	// ErrReadOnlyReplica rejects writes on a replica opened with
	// Config.ReplicaOf; writes must go to the primary.
	ErrReadOnlyReplica = engine.ErrReadOnlyReplica
	// ErrDataDirLocked means another process owns the data directory.
	ErrDataDirLocked = engine.ErrDataDirLocked
)

// Config configures a database instance.
type Config struct {
	// IFC enables information flow control (the whole point). False
	// yields the plain baseline DBMS used for comparison benchmarks.
	IFC bool
	// DataDir makes the database durable: `USING DISK` tables store
	// heap files there, every mutation is written ahead to
	// DataDir/wal.log, and Open replays the log (crash recovery)
	// before returning. Empty means fully in-memory — disk tables use
	// in-memory page stores (still paged and evicted through the
	// buffer pool) and nothing survives a restart.
	DataDir string
	// BufferPoolPages caps each disk table's buffer pool (default 256).
	BufferPoolPages int
	// SyncMode selects the commit durability discipline when DataDir
	// is set: "off" (no fsync), "commit" (one fsync per commit), or
	// "group" (concurrent commits share fsyncs; the default).
	SyncMode string
	// CheckpointEvery, when positive, periodically snapshots the
	// database state and truncates the write-ahead log. Zero disables
	// the background checkpointer; DB.Checkpoint and DB.Close still
	// checkpoint on demand.
	CheckpointEvery time.Duration

	// ReplicaOf makes this database a read-only replica of the primary
	// whose client address is given. Requires DataDir. Open bootstraps
	// (or resumes) the replica and streams the primary's WAL
	// continuously in the background; queries see the replicated state
	// with full IFC label enforcement, and every write is rejected with
	// ErrReadOnlyReplica. A durable ifdb-server serves the stream on
	// its client port.
	ReplicaOf string

	// ReplToken authenticates this replica to the primary (replicas
	// are part of the trusted base, like client platforms).
	ReplToken string

	// ReplRetainBudget caps how many bytes of write-ahead log a
	// lagging replica may pin against checkpoint truncation. Beyond
	// it the replica's slot is dropped — checkpoints truncate freely
	// again, and that replica must re-bootstrap via basebackup when it
	// reconnects. Zero (the default) retains the log for every
	// attached replica indefinitely, which lets one slow follower pin
	// unbounded disk.
	ReplRetainBudget int64
}

// DB is one IFDB database instance.
type DB struct {
	eng      *engine.Engine
	follower *repl.Follower // non-nil when opened with ReplicaOf
}

// Open creates a database. When cfg.DataDir is set it runs crash
// recovery first: committed transactions reappear, in-flight ones are
// rolled back, and the catalog, authority state, and sequences are
// rebuilt. With cfg.ReplicaOf it instead opens a read-only replica
// that follows the named primary. Call Close for a clean shutdown
// (final checkpoint).
func Open(cfg Config) (*DB, error) {
	if cfg.ReplicaOf != "" {
		f, err := repl.Open(repl.Config{
			Addr:             cfg.ReplicaOf,
			Token:            cfg.ReplToken,
			DataDir:          cfg.DataDir,
			IFC:              cfg.IFC,
			SyncMode:         cfg.SyncMode,
			CheckpointEvery:  cfg.CheckpointEvery,
			BufferPoolPages:  cfg.BufferPoolPages,
			ReplRetainBudget: cfg.ReplRetainBudget,
		})
		if err != nil {
			return nil, err
		}
		return &DB{eng: f.Engine(), follower: f}, nil
	}
	eng, err := engine.New(engine.Config{
		IFC:              cfg.IFC,
		DataDir:          cfg.DataDir,
		BufferPoolPages:  cfg.BufferPoolPages,
		SyncMode:         cfg.SyncMode,
		CheckpointEvery:  cfg.CheckpointEvery,
		ReplRetainBudget: cfg.ReplRetainBudget,
	})
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng}, nil
}

// MustOpen is Open for in-memory configurations that cannot fail
// (tests, examples, benchmarks); it panics on error.
func MustOpen(cfg Config) *DB {
	db, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return db
}

// Close shuts the database down cleanly: it takes a final checkpoint
// and closes the write-ahead log and heap files (a replica also stops
// its replication stream first). A no-op for in-memory databases.
func (db *DB) Close() error {
	if db.follower != nil {
		return db.follower.Close()
	}
	return db.eng.Close()
}

// IsReplica reports whether this database is a read-only replica
// (false again after a successful Promote).
func (db *DB) IsReplica() bool { return db.eng.IsReplica() }

// Promote turns a replica into a writable primary: the replication
// stream stops, in-flight replicated transactions abort, the WAL
// epoch is bumped durably — fencing the old primary, whose stale
// streams every node refuses from here on — and writes open. Open
// sessions stay valid. From here on the node's repl.Primary serves
// followers, so fenced peers rejoin at this node's client address.
func (db *DB) Promote() error {
	if db.follower == nil {
		return engine.ErrNotReplica
	}
	return db.follower.Promote()
}

// Epoch returns the WAL promotion generation (0 for in-memory
// databases). Each failover promotion bumps it by one; replication
// positions are only comparable within one epoch.
func (db *DB) Epoch() uint64 { return db.eng.Epoch() }

// ReplicaAppliedLSN returns the primary WAL position this replica has
// applied through (0 when not a replica). Comparing it against the
// primary's DB.WALEnd gauges replication lag.
func (db *DB) ReplicaAppliedLSN() uint64 {
	if db.follower == nil || !db.eng.IsReplica() {
		return 0
	}
	return uint64(db.follower.AppliedLSN())
}

// ReplicationErr returns the fatal error that stopped this replica's
// stream, if any (e.g. it fell behind the primary's retained log and
// must be restarted to re-bootstrap). Nil while healthy.
func (db *DB) ReplicationErr() error {
	if db.follower == nil {
		return nil
	}
	return db.follower.Err()
}

// WALEnd returns the current end of the write-ahead log (0 without a
// DataDir). On a primary this is the position a fully caught-up
// replica converges to.
func (db *DB) WALEnd() uint64 {
	if w := db.eng.WAL(); w != nil {
		return uint64(w.End())
	}
	return 0
}

// Checkpoint forces a checkpoint: snapshot the state, flush dirty
// disk pages, truncate the WAL. A no-op for in-memory databases.
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// Crash simulates process death for crash-recovery tests: the DataDir
// lock is released (as the kernel would on exit) but nothing is
// flushed, checkpointed, or synced.
func (db *DB) Crash() { db.eng.Crash() }

// Engine exposes the underlying engine for advanced integrations
// (the network server and the benchmark harness use it).
func (db *DB) Engine() *engine.Engine { return db.eng }

// IFC reports whether information flow control is enabled.
func (db *DB) IFC() bool { return db.eng.IFC() }

// Admin returns the administrator principal. Following the Principle
// of Least Privilege (§3.3), the administrator defines schemas but
// holds no tag authority.
func (db *DB) Admin() Principal { return db.eng.Admin() }

// AdminSession opens a session as the administrator.
func (db *DB) AdminSession() *Session { return db.eng.NewSession(db.eng.Admin()) }

// NewSession opens a session acting as principal p with an empty label.
func (db *DB) NewSession(p Principal) *Session { return db.eng.NewSession(p) }

// CreatePrincipal creates a principal.
func (db *DB) CreatePrincipal(name string) Principal { return db.eng.CreatePrincipal(name) }

// CreateTag creates a tag owned by owner, optionally as a member of
// the named compound tags.
func (db *DB) CreateTag(owner Principal, name string, compounds ...string) (Tag, error) {
	return db.eng.CreateTag(owner, name, compounds...)
}

// LookupTag resolves a tag name.
func (db *DB) LookupTag(name string) (Tag, bool) { return db.eng.LookupTag(name) }

// LookupPrincipal finds a principal by its diagnostic name. Durable
// applications use this after reopening a DataDir: principals (and
// their authority) survive restarts, so bootstrap code re-finds them
// instead of creating duplicates.
func (db *DB) LookupPrincipal(name string) (Principal, bool) {
	return db.eng.Authority().PrincipalByName(name)
}

// Delegate grants authority for tag t from grantor to grantee.
// (Grantor-side checks are in the authority state; sessions expose a
// label-checked variant.)
func (db *DB) Delegate(grantor, grantee Principal, t Tag) error {
	_, err := db.eng.Authority().Delegate(grantor, grantee, t)
	return err
}

// HasAuthority reports whether p can declassify t.
func (db *DB) HasAuthority(p Principal, t Tag) bool {
	return db.eng.Authority().HasAuthority(p, t)
}

// RegisterProc installs an ordinary stored procedure callable from SQL
// and triggers; it runs with the caller's authority.
func (db *DB) RegisterProc(name string, fn ProcFunc) error {
	return db.eng.RegisterProc(name, fn)
}

// RegisterClosureProc installs a stored authority closure (§4.3):
// code bound to a principal whose authority it exercises when invoked.
// The creator must hold authority for every tag in proves.
func (db *DB) RegisterClosureProc(name string, fn ProcFunc, creator, bound Principal, proves Label) error {
	return db.eng.RegisterClosureProc(name, fn, creator, bound, proves)
}

// RegisterClosure registers a named (non-proc) authority closure that
// sessions invoke with Session.CallClosure.
func (db *DB) RegisterClosure(name string, creator, bound Principal, proves Label) error {
	_, err := db.eng.Closures().Register(name, creator, bound, proves)
	return err
}

// Vacuum reclaims dead tuple versions (exempt from IFC, §7.1).
func (db *DB) Vacuum() int { return db.eng.Vacuum() }

// Stats reports engine-wide counters (tables, tuples, resident bytes).
func (db *DB) Stats() engine.Stats { return db.eng.Stats() }
