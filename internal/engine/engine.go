// Package engine implements the IFDB database engine: the Query by
// Label model (paper §4), transactions and constraints with the
// IFC-safety rules of §5, and the DIFC management machinery
// (declassifying views, stored authority closures) of §4.3 — all on
// top of the storage, index, and transaction substrates.
//
// The engine can run with information flow control disabled
// (Config.IFC = false), in which case it stores no labels and performs
// no label checks. That configuration is the "PostgreSQL" baseline in
// every benchmark: comparing it with the IFC configuration isolates
// exactly the overhead of labels, as the paper's evaluation did (§8).
package engine

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ifdb/internal/authority"
	"ifdb/internal/catalog"
	"ifdb/internal/label"
	"ifdb/internal/pager"
	"ifdb/internal/sql"
	"ifdb/internal/storage"
	"ifdb/internal/txn"
	"ifdb/internal/types"
	"ifdb/internal/wal"
)

// Errors surfaced by the engine. Tests and applications match on
// these with errors.Is.
var (
	// ErrWriteRule is returned when an UPDATE or DELETE touches a
	// tuple whose label is strictly below the process label
	// (paper §4.2: such writes fail rather than silently skip).
	ErrWriteRule = errors.New("engine: write rule violation: tuple label below process label")

	// ErrUnique is a uniqueness violation among *visible* tuples.
	ErrUnique = errors.New("engine: unique constraint violation")

	// ErrForeignKey covers referential integrity failures.
	ErrForeignKey = errors.New("engine: foreign key violation")

	// ErrFKAuthority is returned by the Foreign Key Rule (§5.2.2): the
	// symmetric difference of the two tuples' labels was not covered
	// by declared DECLASSIFYING tags backed by authority.
	ErrFKAuthority = errors.New("engine: foreign key rule: missing declassification authority")

	// ErrLabelConstraint is a label-constraint violation (§5.2.4).
	ErrLabelConstraint = errors.New("engine: label constraint violation")

	// ErrCheck is a CHECK constraint violation.
	ErrCheck = errors.New("engine: check constraint violation")

	// ErrNotNull is a NOT NULL violation.
	ErrNotNull = errors.New("engine: not-null constraint violation")

	// ErrAuthority is returned when an operation requires authority
	// the session's principal does not hold.
	ErrAuthority = errors.New("engine: insufficient authority")

	// ErrContaminated is returned when an operation requires an empty
	// process label (e.g. authority-state updates, §3.2).
	ErrContaminated = errors.New("engine: operation requires an empty label")

	// ErrClearance is the transaction clearance rule (§5.1): in a
	// serializable transaction, adding a tag requires authority for it.
	ErrClearance = errors.New("engine: clearance rule: cannot raise label without authority in serializable transaction")

	// ErrReadOnlyView rejects DML against views.
	ErrReadOnlyView = errors.New("engine: views are not updatable")
)

// Config controls an Engine instance.
type Config struct {
	// IFC enables information flow control. When false the engine
	// behaves as the plain substrate DBMS ("PostgreSQL" baseline):
	// no labels are stored and no flow checks run.
	IFC bool

	// DataDir, when non-empty, is where `USING DISK` tables place
	// their heap files. When empty, disk tables use an in-memory page
	// store behind the same buffer pool (still exercising the paging
	// and eviction path), which benchmarks use to measure I/O
	// amplification without device noise.
	DataDir string

	// BufferPoolPages is the per-table buffer pool capacity for disk
	// tables (default 256 pages = 2 MiB).
	BufferPoolPages int

	// SyncMode selects the WAL durability discipline: "off", "commit"
	// (one fsync per commit), or "group" (batched fsyncs; the default).
	// Meaningful only when DataDir is set — without a data directory
	// there is no log.
	SyncMode string

	// CheckpointEvery, when positive, checkpoints the database on that
	// period: the catalog, authority state, and in-memory heaps are
	// snapshotted, dirty disk pages flushed, and the WAL truncated.
	// Zero disables periodic checkpoints (Checkpoint can still be
	// called explicitly, and Close always takes a final one).
	CheckpointEvery time.Duration

	// Replica puts the engine in read-only continuous-apply mode: it
	// serves queries (with full IFC enforcement) but rejects every
	// write, DDL, and authority mutation from sessions; state changes
	// arrive only through ApplyReplicated (see replica.go). Requires
	// DataDir. Promote ends replica mode at runtime (failover).
	Replica bool

	// ReplRetainBudget caps how many WAL bytes a lagging replica
	// subscription may pin against checkpoint truncation (see
	// wal.Writer.SetRetainBudget). Zero retains the log for every
	// attached replica indefinitely.
	ReplRetainBudget int64

	// DisableLock skips the exclusive DataDir lock. Only for callers
	// that already hold it via AcquireDirLock (the replication
	// follower, which must keep the directory locked across engine
	// restarts during bootstrap).
	DisableLock bool
}

// Engine is one IFDB database instance.
type Engine struct {
	cfg  Config
	cat  *catalog.Catalog
	auth *authority.State
	clos *authority.ClosureRegistry
	hier *label.Hierarchy
	txns *txn.Manager

	// tagNames maps the application-visible tag names used in SQL
	// (DECLASSIFYING clauses, label constraints) to tag ids.
	tagMu    sync.RWMutex
	tagNames map[string]label.Tag
	nameOf   map[label.Tag]string

	// procs are stored procedures: Go functions callable from SQL and
	// from triggers. A proc may be bound to an authority closure.
	procMu sync.RWMutex
	procs  map[string]*Proc

	// admin is the administrator principal: it owns the schema but —
	// following §3.3 — holds no tag authority unless explicitly
	// delegated.
	admin authority.Principal

	// stmtCache caches parsed read/DML statements by query text.
	stmtCache sync.Map // string -> []sql.Statement

	// planCache caches analyzed query plans by (pinned) SELECT AST
	// node. Entries are validated against planEpoch, which every
	// catalog-shape change (DDL, DROP, shard-guard install) bumps —
	// a cached plan holds direct *catalog.Table and *catalog.Index
	// pointers, so any schema change must invalidate it.
	planCache sync.Map // *sql.SelectStmt -> *planEntry
	planEpoch atomic.Uint64

	// parses counts sql.ParseAll invocations (cache misses and DDL).
	// Prepared-statement tests and benchmarks assert on it: executing
	// a prepared handle must not move it.
	parses atomic.Int64

	// sequences are labeled sequences (see sequence.go).
	seqMu     sync.RWMutex
	sequences map[string]*sequence

	// diskTables counts tables created USING DISK (for stats).
	diskTables int

	// Durability state (nil / zero when DataDir is unset): the
	// write-ahead log, the DDL history replayed from checkpoint
	// snapshots, and the background checkpointer. recovering marks the
	// replay phase, during which DDL re-execution tolerates duplicates
	// and skips authority/procedure checks already vetted at original
	// execution time.
	wal        *wal.Writer
	dirLock    *DirLock
	recovering bool
	ddlMu      sync.Mutex
	ddlLog     []ddlEntry

	// snapLSN is the log position the loaded checkpoint snapshot
	// covers (set by its SNAPSHOT record, consumed by recoverState): records
	// below it are already reflected in the snapshot and are not
	// replayed.
	snapLSN wal.LSN

	// Replication state (see replica.go). replica mirrors cfg.Replica
	// but is atomic because Promote clears it at runtime while sessions
	// read it concurrently. replApplied is the primary LSN this replica
	// has applied through with every earlier transaction resolved.
	replica     atomic.Bool
	replApplied atomic.Uint64

	// held holds the writes of logged transactions whose outcome the
	// applier (applyLogged) has not read yet — during recovery, and on a
	// replica, touched only by its single applier goroutine. It is
	// empty on a primary once New returns.
	held map[storage.XID]*heldTxn

	// Sharding and write fencing (see shard.go): shardGuard vets insert
	// rows against shard ownership; fencedAt, when non-zero, is the
	// newer epoch whose observation fenced this node's writes.
	shardGuard atomic.Pointer[shardGuardHolder]
	fencedAt   atomic.Uint64

	ckptMu   sync.Mutex // serializes whole checkpoints
	ckptStop chan struct{}
	ckptDone chan struct{}
	closed   bool
}

// ddlEntry is one replayable DDL statement with its issuing principal.
type ddlEntry struct {
	Principal uint64
	Text      string
}

// Proc is a stored procedure: a Go function executing with access to
// the calling session. If Closure is non-nil, the proc is a stored
// authority closure (§4.3) and runs with the bound principal's
// authority instead of the caller's.
type Proc struct {
	Name    string
	Fn      ProcFunc
	Closure *authority.Closure // nil for ordinary procs
}

// ProcFunc is the signature of stored procedures. The session passed
// in is the caller's session (with the closure principal in effect if
// the proc is an authority closure).
type ProcFunc func(s *Session, args []types.Value) (types.Value, error)

// New creates an engine. When cfg.DataDir is set the engine is
// durable: it replays the checkpoint snapshot and write-ahead log
// found there (crash recovery), then logs every subsequent mutation.
func New(cfg Config) (*Engine, error) {
	if cfg.BufferPoolPages <= 0 {
		cfg.BufferPoolPages = 256
	}
	hier := label.NewHierarchy()
	auth := authority.NewState(hier)
	e := &Engine{
		cfg:      cfg,
		cat:      catalog.New(),
		auth:     auth,
		clos:     authority.NewClosureRegistry(auth),
		hier:     hier,
		txns:     txn.NewManager(),
		tagNames: make(map[string]label.Tag),
		nameOf:   make(map[label.Tag]string),
		procs:    make(map[string]*Proc),
	}
	if cfg.Replica && cfg.DataDir == "" {
		return nil, fmt.Errorf("engine: replica mode requires a DataDir")
	}
	e.replica.Store(cfg.Replica)
	if cfg.DataDir != "" {
		if err := e.openDurable(); err != nil {
			return nil, err
		}
	}
	if e.admin == authority.NoPrincipal {
		// Fresh database (or no durability): mint the administrator.
		// With a WAL attached, the authority hook logs the principal so
		// recovery restores the same id.
		e.admin, _ = auth.CreatePrincipal("admin")
	}
	if cfg.CheckpointEvery > 0 && e.wal != nil {
		e.ckptStop = make(chan struct{})
		e.ckptDone = make(chan struct{})
		go e.checkpointLoop(cfg.CheckpointEvery)
	}
	return e, nil
}

// MustNew is New for callers that cannot fail (no DataDir, so no
// recovery I/O); it panics on error.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// IFC reports whether information flow control is enabled.
func (e *Engine) IFC() bool { return e.cfg.IFC }

// Admin returns the administrator principal. The administrator defines
// schemas but holds no declassification authority (paper §3.3).
func (e *Engine) Admin() authority.Principal { return e.admin }

// Authority exposes the authority state (the platform's shared cache
// reads through this).
func (e *Engine) Authority() *authority.State { return e.auth }

// Closures exposes the authority-closure registry.
func (e *Engine) Closures() *authority.ClosureRegistry { return e.clos }

// Hierarchy exposes the compound-tag hierarchy.
func (e *Engine) Hierarchy() *label.Hierarchy { return e.hier }

// Catalog exposes the schema catalog (read-mostly; used by tools).
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// TxnManager exposes the transaction manager (used by vacuum and
// tests).
func (e *Engine) TxnManager() *txn.Manager { return e.txns }

// ---------------------------------------------------------------------------
// Tag and principal management (engine-level, name-keyed)

// CreatePrincipal creates a principal with the given diagnostic name.
func (e *Engine) CreatePrincipal(name string) authority.Principal {
	p, _ := e.auth.CreatePrincipal(name)
	return p
}

// CreateTag creates a named tag owned by owner, optionally as a member
// of the named compound tags. Tag names are unique per engine; SQL
// refers to tags by these names (e.g. in DECLASSIFYING clauses).
func (e *Engine) CreateTag(owner authority.Principal, name string, compounds ...string) (label.Tag, error) {
	t, _, err := e.createTag(owner, name, compounds...)
	return t, err
}

// createTag is CreateTag, also returning the log position of the tag's
// record (0 when nothing was logged).
func (e *Engine) createTag(owner authority.Principal, name string, compounds ...string) (label.Tag, uint64, error) {
	e.tagMu.Lock()
	defer e.tagMu.Unlock()
	if _, dup := e.tagNames[name]; dup {
		return label.InvalidTag, 0, fmt.Errorf("engine: tag %q already exists", name)
	}
	var parents []label.Tag
	for _, cn := range compounds {
		ct, ok := e.tagNames[cn]
		if !ok {
			return label.InvalidTag, 0, fmt.Errorf("engine: unknown compound tag %q", cn)
		}
		parents = append(parents, ct)
	}
	t, at, err := e.auth.CreateTag(owner, name, parents...)
	if err != nil {
		return label.InvalidTag, 0, err
	}
	e.tagNames[name] = t
	e.nameOf[t] = name
	return t, at, nil
}

// LookupTag resolves a tag name.
func (e *Engine) LookupTag(name string) (label.Tag, bool) {
	e.tagMu.RLock()
	defer e.tagMu.RUnlock()
	t, ok := e.tagNames[name]
	return t, ok
}

// TagName returns the name of a tag id.
func (e *Engine) TagName(t label.Tag) (string, bool) {
	e.tagMu.RLock()
	defer e.tagMu.RUnlock()
	n, ok := e.nameOf[t]
	return n, ok
}

// resolveTagNames maps tag names from SQL clauses to a label.
func (e *Engine) resolveTagNames(names []string) (label.Label, error) {
	var tags []label.Tag
	for _, n := range names {
		t, ok := e.LookupTag(n)
		if !ok {
			return nil, fmt.Errorf("engine: unknown tag %q", n)
		}
		tags = append(tags, t)
	}
	return label.New(tags...), nil
}

// ---------------------------------------------------------------------------
// Stored procedures and stored authority closures

// RegisterProc installs an ordinary stored procedure: it runs with the
// authority of whatever process calls it (paper §4.3).
func (e *Engine) RegisterProc(name string, fn ProcFunc) error {
	e.procMu.Lock()
	defer e.procMu.Unlock()
	name = strings.ToLower(name)
	if _, dup := e.procs[name]; dup {
		return fmt.Errorf("engine: procedure %q already exists", name)
	}
	e.procs[name] = &Proc{Name: name, Fn: fn}
	return nil
}

// RegisterClosureProc installs a stored authority closure: code bound
// to a principal whose authority it exercises when run. The creator
// must hold authority for every tag in proves (it cannot bind
// authority it does not have).
func (e *Engine) RegisterClosureProc(name string, fn ProcFunc, creator, bound authority.Principal, proves label.Label) error {
	cl, err := e.clos.Register("proc:"+strings.ToLower(name), creator, bound, proves)
	if err != nil {
		return err
	}
	e.procMu.Lock()
	defer e.procMu.Unlock()
	name = strings.ToLower(name)
	if _, dup := e.procs[name]; dup {
		return fmt.Errorf("engine: procedure %q already exists", name)
	}
	e.procs[name] = &Proc{Name: name, Fn: fn, Closure: cl}
	return nil
}

// LookupProc finds a stored procedure.
func (e *Engine) LookupProc(name string) (*Proc, bool) {
	e.procMu.RLock()
	defer e.procMu.RUnlock()
	p, ok := e.procs[strings.ToLower(name)]
	return p, ok
}

// parseCached parses query, caching the result when every statement
// is a read or DML statement (DDL ASTs are consumed by execution and
// must stay private to one call).
func (e *Engine) parseCached(query string) ([]sql.Statement, error) {
	if v, ok := e.stmtCache.Load(query); ok {
		mParseCacheHits.Inc()
		return v.([]sql.Statement), nil
	}
	e.parses.Add(1)
	mParses.Inc()
	stmts, err := sql.ParseAll(query)
	if err != nil {
		return nil, err
	}
	if cacheableStmts(stmts) {
		e.stmtCache.Store(query, stmts)
	}
	return stmts, nil
}

// ParseCount reports how many times the engine has actually invoked
// the SQL parser (as opposed to serving a statement from the parse
// cache or a prepared handle).
func (e *Engine) ParseCount() int64 { return e.parses.Load() }

// ---------------------------------------------------------------------------
// Heap construction and vacuum

// newHeap is the one place that picks a table's heap backend; past it
// the engine sees only storage.Heap. A heap file reopened after a
// restart counts its own versions here, before recovery restores more.
func (e *Engine) newHeap(name string, onDisk bool) (storage.Heap, error) {
	if !onDisk {
		return storage.NewMemHeap(), nil
	}
	var store pager.PageStore
	if e.cfg.DataDir != "" {
		fs, err := pager.OpenFileStore(e.heapPath(name))
		if err != nil {
			return nil, err
		}
		store = fs
	} else {
		store = pager.NewMemStore()
	}
	h := pager.NewPagedHeap(store, e.cfg.BufferPoolPages)
	if err := h.Recount(); err != nil {
		_ = h.Close(false)
		return nil, fmt.Errorf("engine: open %s: %w", name, err)
	}
	e.diskTables++
	return h, nil
}

// dropTable removes a table from the catalog and, for disk tables,
// deletes the backing heap file — otherwise re-creating the table
// would resurrect stale pages.
func (e *Engine) dropTable(name string) error {
	t, _ := e.cat.Table(name)
	if err := e.cat.DropTable(name); err != nil {
		return err
	}
	e.invalidatePlans()
	if t != nil && t.OnDisk {
		e.diskTables--
		if e.cfg.DataDir != "" {
			_ = t.Heap.Close(true)
			_ = os.Remove(e.heapPath(t.Name))
		}
	}
	return nil
}

// Vacuum reclaims dead tuple versions in every table and prunes index
// entries pointing at them. The vacuum task is exempt from the
// information flow rules (paper §7.1).
func (e *Engine) Vacuum() int {
	total := 0
	for _, t := range e.cat.Tables() {
		dead := e.txns.DeadVersion()
		// Collect TIDs to be reclaimed so index entries can be pruned.
		type victim struct {
			tid storage.TID
			row []types.Value
		}
		var victims []victim
		err := t.Heap.Scan(func(tid storage.TID, tv *storage.TupleVersion) bool {
			if dead(tv) {
				victims = append(victims, victim{tid, tv.Row})
			}
			return true
		})
		if err != nil {
			// Part of the heap is unreadable: vacuuming the rest would
			// tombstone versions whose index entries were not pruned.
			continue
		}
		for _, v := range victims {
			t.UnindexVersion(v.tid, v.row)
		}
		total += t.Heap.Vacuum(dead)
	}
	return total
}

// Stats reports engine-wide counters used by tools and benchmarks.
type Stats struct {
	Tables     int
	Views      int
	DiskTables int
	TupleBytes int64
	Tuples     int
}

// Stats returns a snapshot of engine statistics.
func (e *Engine) Stats() Stats {
	s := Stats{DiskTables: e.diskTables}
	tabs := e.cat.Tables()
	s.Tables = len(tabs)
	s.Views = len(e.cat.Views())
	for _, t := range tabs {
		s.TupleBytes += t.Heap.ApproxBytes()
		s.Tuples += t.Heap.Len()
	}
	return s
}
