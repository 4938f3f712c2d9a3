package engine

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"ifdb/internal/authority"
	"ifdb/internal/label"
	"ifdb/internal/obs"
	"ifdb/internal/plan"
	"ifdb/internal/txn"
	"ifdb/internal/types"
	"ifdb/internal/wal"
)

// Session is one client process's connection to the engine. It carries
// the process's information flow state — its label and its acting
// principal — and its transaction, mirroring how IFDB shares the
// process label between the application platform and the DBMS (§7.2).
//
// A Session is not safe for concurrent use (like a database
// connection); open one session per worker.
type Session struct {
	eng *Engine

	principal authority.Principal
	plabel    label.Label
	pilabel   label.Label // integrity label (§3.1)

	// tx is the open explicit transaction, nil in autocommit mode.
	tx *txn.Txn

	// stmtTx is the transaction for the currently executing statement
	// (either tx or a temporary autocommit transaction). Only enterStmt
	// and exitStmt set it.
	stmtTx *txn.Txn

	// closureDepth tracks nesting of authority-closure calls, so that
	// label changes made inside a closure persist (contamination is
	// real) while the principal is restored.
	closureDepth int

	// trigCtx is the active trigger context while a trigger procedure
	// runs (nil otherwise).
	trigCtx *TriggerCtx

	// replApply marks the replication applier's internal session: on a
	// replica engine, only it may execute mutating statements (the DDL
	// it replays arrived from the primary, already vetted there).
	replApply bool

	// lastCommit is the WAL position of this session's most recent
	// logged commit (see CommitToken).
	lastCommit wal.LSN

	// stmtNo is the number of the top-level statement running now, or
	// of the last one; cancelNo is the largest number a cancel named,
	// and a statement it names fails at its next check point (see Cancel
	// in prepare.go). The concurrently-touched fields of a session: the
	// wire server's out-of-band cancel path reads and sets them from
	// another goroutine.
	stmtNo, cancelNo atomic.Uint64

	// stats is the most recent statement's timing breakdown and trace
	// ID (see metrics.go); read back through the wire's STATS frame.
	stats StmtStats

	// rt holds the plan.Runtime hooks that are the same for every
	// statement of the session (bindRuntime); each frame's Runtime
	// starts as a copy of it. Its Visible is visibleTx's, rebound when
	// stmtTx changes.
	rt        plan.Runtime
	visibleTx *txn.Txn

	// frames are the statement frames no statement holds (frame).
	frames []*qctx

	// dml is the Result a statement that returns no rows hands back.
	dml Result
}

// NewSession opens a session acting as the given principal with an
// empty label.
func (e *Engine) NewSession(p authority.Principal) *Session {
	s := &Session{eng: e, principal: p}
	s.bindRuntime()
	return s
}

// Engine returns the engine this session talks to.
func (s *Session) Engine() *Engine { return s.eng }

// Principal returns the session's acting principal.
func (s *Session) Principal() authority.Principal { return s.principal }

// Label returns the process label (a copy).
func (s *Session) Label() label.Label { return s.plabel.Clone() }

// SetLabelUnsafe replaces the process label without any checks. It is
// the low-level hook the wire protocol uses to synchronize the label
// the *platform* already vetted (the platform and engine share one
// logical process label, §7.2). Application code must use AddSecrecy
// and Declassify.
func (s *Session) SetLabelUnsafe(l label.Label) { s.plabel = l.Clone() }

// SetPrincipalUnsafe switches the acting principal without checks;
// used by the wire protocol (authentication happens in the platform's
// trusted code) and by closure invocation.
func (s *Session) SetPrincipalUnsafe(p authority.Principal) { s.principal = p }

// Integrity returns the process integrity label (a copy).
//
// Integrity labels are the dual of secrecy labels (§3.1): a tag in the
// integrity label asserts the data came from a source trusted for that
// tag. Queries see only tuples whose integrity label covers the
// process's (you cannot base high-integrity computation on
// low-integrity data), writes are stamped with exactly the process
// integrity label, dropping integrity is free, and raising it
// ("endorsement") requires authority.
func (s *Session) Integrity() label.Label { return s.pilabel.Clone() }

// SetIntegrityUnsafe replaces the integrity label without checks (wire
// protocol only).
func (s *Session) SetIntegrityUnsafe(l label.Label) { s.pilabel = l.Clone() }

// Endorse adds tag t to the process integrity label. Claiming
// integrity is like declassifying secrecy: it needs authority for t.
func (s *Session) Endorse(t label.Tag) error {
	if !s.eng.cfg.IFC {
		return nil
	}
	if !s.eng.auth.TagExists(t) {
		return fmt.Errorf("engine: unknown tag %d", t)
	}
	if !s.checkAuthority(t) {
		s.auditDenied("endorse", t)
		return fmt.Errorf("%w: endorse tag %d", ErrAuthority, t)
	}
	s.pilabel = s.pilabel.Add(t)
	return nil
}

// DropIntegrity removes tag t from the process integrity label.
// Lowering integrity is always safe.
func (s *Session) DropIntegrity(t label.Tag) error {
	if !s.eng.cfg.IFC {
		return nil
	}
	s.pilabel = s.pilabel.Remove(t)
	return nil
}

// AddSecrecy adds a tag to the process label. Raising the label is
// ordinarily free — any process may contaminate itself — except under
// the transaction clearance rule (§5.1): inside a serializable
// transaction the process must be authoritative for the tag, because
// concurrency conflicts could otherwise leak through abort patterns.
func (s *Session) AddSecrecy(t label.Tag) error {
	if !s.eng.cfg.IFC {
		return nil
	}
	if !s.eng.auth.TagExists(t) {
		return fmt.Errorf("engine: unknown tag %d", t)
	}
	if s.tx != nil && s.tx.Mode() == txn.Serializable && !s.checkAuthority(t) {
		s.auditDenied("addsecrecy", t)
		return ErrClearance
	}
	s.plabel = s.plabel.Add(t)
	return nil
}

// Declassify removes a tag from the process label. It requires the
// acting principal to hold authority for the tag (§3.2).
func (s *Session) Declassify(t label.Tag) error {
	if !s.eng.cfg.IFC {
		return nil
	}
	if !s.plabel.Has(t) {
		// Removing an absent tag is a no-op, as in Aeolus.
		return nil
	}
	if !s.checkAuthority(t) {
		s.auditDenied("declassify", t)
		return fmt.Errorf("%w: declassify tag %d", ErrAuthority, t)
	}
	s.plabel = s.plabel.Remove(t)
	mDeclass.Inc()
	if obs.AuditEnabled() {
		obs.Audit().Info("declassify",
			"trace", obs.TraceID(s.stats.TraceID),
			"principal", uint64(s.principal), "tag", uint64(t))
	}
	return nil
}

// checkAuthority performs one counted authority check for the acting
// principal.
func (s *Session) checkAuthority(t label.Tag) bool {
	mAuthChecks.Inc()
	ok := s.eng.auth.HasAuthority(s.principal, t)
	if !ok {
		mAuthDenials.Inc()
	}
	return ok
}

// auditDenied records a failed authority-gated operation on the audit
// channel (the paper's security-relevant events are exactly these).
func (s *Session) auditDenied(op string, t label.Tag) {
	if obs.AuditEnabled() {
		obs.Audit().Warn("authority denied", "op", op,
			"trace", obs.TraceID(s.stats.TraceID),
			"principal", uint64(s.principal), "tag", uint64(t))
	}
}

// requireEmptyLabel gates authority-state mutations: the authority
// state has an empty label, so writing it from a contaminated process
// would be a covert channel (§3.2).
func (s *Session) requireEmptyLabel() error {
	if s.eng.cfg.IFC && !s.plabel.IsEmpty() {
		return ErrContaminated
	}
	return nil
}

// requireWritable gates every session-level mutation on a replica
// (state changes arrive only through the replication stream) and on a
// fenced primary (a newer epoch was observed: a failover moved past
// this node, and accepting writes would grow a doomed history).
func (s *Session) requireWritable() error {
	if s.replApply {
		return nil
	}
	if s.eng.IsReplica() {
		return ErrReadOnlyReplica
	}
	if s.eng.fencedAt.Load() != 0 {
		return s.eng.fenceErr()
	}
	return nil
}

// changeAuthority runs fn, a change to the authority state, which
// returns the log position of the change's record. The authority state
// is an object with an empty label, so the change requires an empty
// label (§3.3), and a writable node. The record joins the session's
// commit token, as DDL does (logDDLNoted), so a replica read of a tag
// the session created waits for that tag.
func (s *Session) changeAuthority(fn func() (uint64, error)) error {
	if err := s.requireWritable(); err != nil {
		return err
	}
	if err := s.requireEmptyLabel(); err != nil {
		return err
	}
	at, err := fn()
	if err == nil && wal.LSN(at) > s.lastCommit {
		s.lastCommit = wal.LSN(at)
	}
	return err
}

// CreateTag creates a tag owned by the session's principal.
func (s *Session) CreateTag(name string, compounds ...string) (t label.Tag, err error) {
	err = s.changeAuthority(func() (at uint64, err error) {
		t, at, err = s.eng.createTag(s.principal, name, compounds...)
		return at, err
	})
	return t, err
}

// CreatePrincipal creates a new principal.
func (s *Session) CreatePrincipal(name string) (p authority.Principal, err error) {
	err = s.changeAuthority(func() (at uint64, err error) {
		p, at = s.eng.auth.CreatePrincipal(name)
		return at, nil
	})
	return p, err
}

// Delegate grants authority for tag t from the session's principal to
// grantee.
func (s *Session) Delegate(grantee authority.Principal, t label.Tag) error {
	return s.changeAuthority(func() (uint64, error) { return s.eng.auth.Delegate(s.principal, grantee, t) })
}

// Revoke withdraws a delegation.
func (s *Session) Revoke(grantee authority.Principal, t label.Tag) error {
	return s.changeAuthority(func() (uint64, error) { return s.eng.auth.Revoke(s.principal, grantee, t) })
}

// HasAuthority reports whether the acting principal may declassify t.
func (s *Session) HasAuthority(t label.Tag) bool {
	return s.checkAuthority(t)
}

// ---------------------------------------------------------------------------
// Reduced authority calls and authority closures (§3.3)

// WithReducedAuthority runs fn with no principal at all. Label changes
// made by fn persist (contamination is real); the principal is
// restored afterwards.
func (s *Session) WithReducedAuthority(fn func() error) error {
	return s.runAs(authority.NoPrincipal, fn)
}

// CallClosure runs fn with the authority of the named closure's bound
// principal (registered via Engine.Closures or RegisterClosureProc).
func (s *Session) CallClosure(name string, fn func() error) error {
	cl, ok := s.eng.clos.Lookup(name)
	if !ok {
		return fmt.Errorf("engine: no closure %q", name)
	}
	return s.runAs(cl.Bound, fn)
}

func (s *Session) runAs(p authority.Principal, fn func() error) error {
	saved := s.principal
	s.principal = p
	s.closureDepth++
	defer func() {
		s.principal = saved
		s.closureDepth--
	}()
	return fn()
}

// ---------------------------------------------------------------------------
// Transactions

// Begin starts an explicit transaction. On a replica, local
// transactions are read-only and XID-less: the primary owns the XID
// space (see txn.Manager.BeginReadOnly).
func (s *Session) Begin(mode txn.Mode) error {
	if s.tx != nil && !s.tx.Done() {
		return fmt.Errorf("engine: transaction already open")
	}
	s.tx = s.beginTxn(mode)
	return nil
}

func (s *Session) beginTxn(mode txn.Mode) *txn.Txn {
	if s.requireWritable() != nil {
		return s.eng.txns.BeginReadOnly(mode)
	}
	return s.eng.txns.Begin(mode)
}

// Commit commits the open transaction, enforcing the commit-label rule
// (§5.1) with the session's label at this point as the commit label.
func (s *Session) Commit() error {
	if s.tx == nil || s.tx.Done() {
		return fmt.Errorf("engine: no open transaction")
	}
	t := s.tx
	s.tx = nil
	return s.commitTxn(t)
}

// commitTxn commits t under the commit-label rule (§5.1): the
// session's labels at this point are the commit labels. It is the one
// place a transaction commits, explicit or autocommit.
func (s *Session) commitTxn(t *txn.Txn) error {
	var commitLabel, commitILabel label.Label
	if s.eng.cfg.IFC {
		commitLabel = s.plabel
		commitILabel = s.pilabel
	}
	err := t.Commit(s.eng.hier, commitLabel, commitILabel)
	if err == nil {
		s.noteCommit(t)
		mTxnCommits.Inc()
	} else {
		mTxnAborts.Inc()
	}
	return err
}

// noteCommit records a committed transaction's log position for
// CommitToken.
func (s *Session) noteCommit(t *txn.Txn) {
	if lsn := t.CommitLSN(); lsn > s.lastCommit {
		s.lastCommit = lsn
	}
}

// logDDLNoted logs a DDL statement and folds its position into the
// session's commit token, so read-your-writes covers DDL too.
func (s *Session) logDDLNoted(text string) error {
	lsn, err := s.eng.logDDL(s.principal, text)
	if err == nil && lsn > s.lastCommit {
		s.lastCommit = lsn
	}
	return err
}

// CommitToken returns the read-your-writes token for this session: the
// smallest replication barrier that proves its last logged commit (or
// DDL) is applied — one past the record — or 0 if it never logged
// anything. Unlike the WAL append edge, the token never includes
// other sessions' in-flight transactions, so a replica read waiting on
// it cannot stall behind an unrelated long-running transaction.
func (s *Session) CommitToken() uint64 {
	if s.lastCommit == 0 {
		return 0
	}
	return uint64(s.lastCommit) + 1
}

// Abort rolls back the open transaction.
func (s *Session) Abort() error {
	if s.tx == nil || s.tx.Done() {
		return fmt.Errorf("engine: no open transaction")
	}
	t := s.tx
	s.tx = nil
	t.Abort()
	mTxnAborts.Inc()
	return nil
}

// InTxn reports whether an explicit transaction is open.
func (s *Session) InTxn() bool { return s.tx != nil && !s.tx.Done() }

// autocommitAttempts bounds withStmt's runs of one autocommit
// statement. Before run n+1 it waits n×autocommitBackoff for a winner
// still in flight to commit (PostgreSQL would block on its row lock).
const (
	autocommitAttempts = 3
	autocommitBackoff  = 100 * time.Microsecond
)

// stmtScope is the transaction a statement runs under, which decides
// what its end resolves (exitStmt).
type stmtScope uint8

const (
	// scopeNested: inside a running statement (a trigger or a stored
	// procedure issuing queries); it rides that statement's transaction
	// and its end resolves nothing.
	scopeNested stmtScope = iota
	// scopeExplicit: inside BEGIN … COMMIT; a failure aborts the whole
	// transaction (PostgreSQL semantics).
	scopeExplicit
	// scopeAuto: a fresh transaction of its own, committed when the
	// statement succeeds.
	scopeAuto
)

// enterStmt chooses the transaction the session's next statement runs
// under: the running statement's, else the open explicit transaction,
// else a fresh autocommit one. Every statement, buffered or streamed,
// enters here and leaves through exitStmt.
func (s *Session) enterStmt() (*txn.Txn, stmtScope) {
	if s.stmtTx != nil && !s.stmtTx.Done() {
		return s.stmtTx, scopeNested
	}
	if s.tx != nil && !s.tx.Done() {
		s.stmtTx = s.tx
		return s.tx, scopeExplicit
	}
	s.stmtTx = s.beginTxn(txn.SnapshotIsolation)
	return s.stmtTx, scopeAuto
}

// exitStmt resolves a statement entered with enterStmt that ended with
// err: a failure aborts t (and closes an explicit transaction), and a
// successful autocommit statement commits. It returns the statement's
// error, else the commit's.
func (s *Session) exitStmt(t *txn.Txn, scope stmtScope, err error) error {
	if scope == scopeNested {
		return err
	}
	s.stmtTx = nil
	if err != nil {
		t.Abort()
		mTxnAborts.Inc()
		if scope == scopeExplicit {
			s.tx = nil
		}
		return err
	}
	if scope == scopeAuto {
		return s.commitTxn(t)
	}
	return nil
}

// frame returns a statement frame for a query with params — one a
// finished statement released, or a new one — with its Runtime bound
// (qctx.bind). The frame runs on its own copy of params, so the
// caller's slice is the caller's again when frame returns: a cursor
// that outlives the call does not see it rewritten, and a variadic
// call's arguments stay on the caller's stack. The statement holds the
// frame until it hands it back with release: a buffered statement
// until it returns, a cursor until it ends. A statement nested inside
// it (a trigger, a stored procedure) takes a frame of its own.
func (s *Session) frame(params []types.Value) *qctx {
	var qc *qctx
	if n := len(s.frames); n > 0 {
		qc, s.frames = s.frames[n-1], s.frames[:n-1]
	} else {
		qc = new(qctx)
	}
	qc.params = append(qc.params, params...)
	qc.bind(s, nil)
	return qc
}

// release hands a statement's frame back for the session's next
// statement, dropping what it points to but the storage of its
// parameters and targets.
func (s *Session) release(qc *qctx) {
	clear(qc.params)
	clear(qc.targets)
	*qc = qctx{params: qc.params[:0], targets: qc.targets[:0]}
	s.frames = append(s.frames, qc)
}

// affected returns the session's Result for a statement that affected
// n rows and returns none.
func (s *Session) affected(n int) *Result {
	s.dml = Result{Affected: n}
	return &s.dml
}

// withStmt runs fn as one statement, between enterStmt and exitStmt.
// An autocommit statement whose fn loses first-committer-wins
// (txn.ErrSerialization) runs again on a fresh snapshot, unless the
// session is canceled; a failed commit is returned, not retried, and in
// an explicit transaction the caller retries, as earlier statements
// read the old snapshot.
func (s *Session) withStmt(fn func(t *txn.Txn) error) error {
	for attempt := 1; ; attempt++ {
		t, scope := s.enterStmt()
		ferr := fn(t)
		err := s.exitStmt(t, scope, ferr)
		if ferr == nil || scope != scopeAuto || attempt == autocommitAttempts ||
			!errors.Is(ferr, txn.ErrSerialization) ||
			s.cancelableSleep(time.Duration(attempt)*autocommitBackoff) != nil {
			return err
		}
		mStmtRetries.Inc()
	}
}

// ---------------------------------------------------------------------------
// Label visibility plumbing

// confiner adapts the session to plan.Confiner: Query by Label for its
// scans.
type confiner struct{ s *Session }

// ProcessLabels returns the process labels a scan opening now judges
// under. Labels are never changed in place (Add and Remove return new
// slices), so the scan keeps them without a copy, and a declassify,
// endorse or raise later in the statement does not reach the running
// scan, whichever heap it reads: that is what makes its predicate a
// pure function of the tuple's labels, which the scan's verdict memo
// relies on.
func (c confiner) ProcessLabels() (pl, pil label.Label) { return c.s.plabel, c.s.pilabel }

// LabelsOK is Query by Label for one (label, ilabel) pair, judged by a
// scan once per distinct pair: its secrecy label lt, less the tags a
// declassifying view's strip covers, must flow to the process label pl
// (Label Confinement), and its integrity label it must cover the
// process integrity label pil — a process claiming integrity I refuses
// to observe data below I. It returns the stripped label, which is what
// the reader sees on the tuple, and judges and counts nothing else.
func (c confiner) LabelsOK(pl, pil, strip, lt, it label.Label) (label.Label, bool) {
	s := c.s
	seen := s.effectiveTupleLabel(lt, strip)
	return seen, s.eng.hier.Flows(seen, pl) && (len(pil) == 0 || s.eng.hier.Flows(pil, it))
}

// labelVisible is the secrecy half of Query by Label for the one path
// that checks tuple by tuple (the uniqueness probe), counting a refusal.
func (s *Session) labelVisible(lt label.Label) bool {
	if !s.eng.cfg.IFC || s.eng.hier.Flows(lt, s.plabel) {
		return true
	}
	mLabelDenials.Inc()
	return false
}

// effectiveTupleLabel strips from lt every tag covered by the strip
// set (declassifying views, §4.3).
func (s *Session) effectiveTupleLabel(lt label.Label, strip label.Label) label.Label {
	if len(strip) == 0 || len(lt) == 0 {
		return lt
	}
	var out label.Label
	for _, t := range lt {
		if !s.eng.hier.Covers(strip, t) {
			out = append(out, t)
		}
	}
	return out
}

// writeLabel returns the label applied to tuples written by this
// session (exactly the process label, §4.2); nil when IFC is off. It is
// the process label itself, shared with every version written under
// it: labels are never modified in place.
func (s *Session) writeLabel() label.Label {
	if !s.eng.cfg.IFC {
		return nil
	}
	return s.plabel
}

// writeILabel returns the integrity label applied to written tuples
// (exactly the process integrity label, shared as writeLabel's is).
func (s *Session) writeILabel() label.Label {
	if !s.eng.cfg.IFC {
		return nil
	}
	return s.pilabel
}

// QueryEach is the per-tuple iterator sketched as future work in the
// paper's §10: each tuple selected by the query is handled "in its own
// context with that tuple's label". For every result row, fn runs with
// the process label temporarily raised to cover that row's label (and
// only that row's); the label is restored between rows, so handling N
// differently-tagged tuples does not accumulate N tags of
// contamination.
//
// Like authority closures, this is a trusted-base primitive: fn must
// not smuggle data between per-row contexts through program state it
// later releases. The platform uses it for fan-out rendering where
// each row's output is released (or dropped) independently.
func (s *Session) QueryEach(query string, params []types.Value, fn func(row []types.Value, rowLabel label.Label) error) error {
	res, err := s.Exec(query, params...)
	if err != nil {
		return err
	}
	saved := s.plabel.Clone()
	defer func() { s.plabel = saved }()
	for i, row := range res.Rows {
		var rl label.Label
		if res.RowLabels != nil {
			rl = res.RowLabels[i]
		}
		s.plabel = saved.Union(rl)
		if err := fn(row, rl); err != nil {
			return err
		}
	}
	return nil
}

// CallProc invokes a stored procedure by name. If the proc is a stored
// authority closure the call runs with the closure's bound authority.
func (s *Session) CallProc(name string, args ...types.Value) (types.Value, error) {
	p, ok := s.eng.LookupProc(name)
	if !ok {
		return types.Null, fmt.Errorf("engine: no procedure %q", name)
	}
	if p.Closure != nil {
		var out types.Value
		err := s.runAs(p.Closure.Bound, func() error {
			var err error
			out, err = p.Fn(s, args)
			return err
		})
		return out, err
	}
	return p.Fn(s, args)
}
