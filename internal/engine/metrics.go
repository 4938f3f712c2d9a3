package engine

import "ifdb/internal/obs"

// Engine-layer metrics. Registered at package init so every series a
// binary can emit is present (at zero) from the first /metrics scrape.
// Counters are process-wide: a process hosting several engines (the
// bench harness) aggregates across them.
var (
	mParses = obs.NewCounter("ifdb_engine_parses_total",
		"SQL texts parsed (parse-cache misses)")
	mParseCacheHits = obs.NewCounter("ifdb_engine_parse_cache_hits_total",
		"statement-cache hits that skipped the parser")
	mRowsScanned = obs.NewCounter("ifdb_engine_rows_scanned_total",
		"tuple versions visited by table and index scans")
	mRowsStored = obs.NewCounter("ifdb_engine_rows_stored_total",
		"rows table scans sent to the client as their stored bytes, neither decoded nor re-encoded")
	mPlans = obs.NewCounter("ifdb_engine_plans_total",
		"query plans built (plan-cache misses)")
	mPlanCacheHits = obs.NewCounter("ifdb_engine_plan_cache_hits_total",
		"plan-cache hits that skipped analysis")
	mTxnCommits = obs.NewCounter("ifdb_txn_commits_total",
		"committed transactions (explicit and autocommit)")
	mTxnAborts = obs.NewCounter("ifdb_txn_aborts_total",
		"aborted transactions, including failed commits")
	mStmtRetries = obs.NewCounter("ifdb_txn_statement_retries_total",
		"autocommit statements run again on a fresh snapshot after a serialization failure")
	mLabelDenials = obs.NewCounter("ifdb_ifc_label_denials_total",
		"tuples hidden by Query by Label (secrecy or integrity)")
	mDeclass = obs.NewCounter("ifdb_ifc_declassifications_total",
		"successful declassifications (secrecy tag removals)")
	mAuthChecks = obs.NewCounter("ifdb_ifc_authority_checks_total",
		"authority checks performed for IFC operations")
	mAuthDenials = obs.NewCounter("ifdb_ifc_authority_denials_total",
		"authority checks that failed")
)

// StmtStats is the timing breakdown of a session's most recent
// statement, keyed by the client-supplied trace ID. The wire server
// fills PlanNs (pre-execution admission: label sync, shard fencing,
// read-your-writes waits) and StreamNs (result streaming); the engine
// fills ParseNs and ExecNs.
type StmtStats struct {
	TraceID  uint64
	SQL      string
	ParseNs  int64
	PlanNs   int64
	ExecNs   int64
	StreamNs int64
}

// SetTraceID stamps the next statement's trace ID and starts its
// breakdown afresh: one refused before it runs reports no older times.
func (s *Session) SetTraceID(id uint64) { s.stats = StmtStats{TraceID: id} }

// TraceID returns the current statement trace ID (0 = untraced).
func (s *Session) TraceID() uint64 { return s.stats.TraceID }

// beginStmtStats resets the per-statement breakdown, keeping the trace
// ID already stamped for this statement.
func (s *Session) beginStmtStats(sql string) {
	s.stats = StmtStats{TraceID: s.stats.TraceID, SQL: sql}
}

// NotePlanNs records the server-side pre-execution time.
func (s *Session) NotePlanNs(ns int64) { s.stats.PlanNs = ns }

// NoteStreamNs records the server-side result-streaming time.
func (s *Session) NoteStreamNs(ns int64) { s.stats.StreamNs = ns }

// LastStmtStats returns the most recent statement's breakdown.
func (s *Session) LastStmtStats() StmtStats { return s.stats }
