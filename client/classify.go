// Statement analysis: the single classifier behind the Router's
// routing decisions and the v2 prepare path.
//
// Every statement the Router sees is analyzed exactly once (results
// are cached by text, like the engine's parse cache; prepared
// statements pin their plan in the handle): the real SQL parser
// produces a stmtPlan carrying the routing classification — read-only
// / transaction control / DDL / side effects — and the shard-key
// derivation (shardkey.go). Client and server call the same parser
// (sql.ParseAll), so text the client cannot parse the server cannot
// either: such a batch is a non-read-only statement with no shard key.
// Unsharded it goes to the primary, which answers with the parser's
// error; sharded the Router refuses it with that error.
//
// A statement has side effects when it calls a function of kind
// exec.EngineEffect in exec's function table, the one record of what
// each SQL function is: the paper's label functions (addsecrecy,
// declassify, endorse, dropintegrity) and the sequence functions. Such
// a statement is never load-balanced to a replica and never routed by
// shard key. A name the table does not hold — a stored procedure — is
// let through: one that writes answers ErrReadOnlyReplica at runtime,
// which the routing layers already chase to the primary.

package client

import (
	"sync"

	"ifdb/internal/exec"
	"ifdb/internal/sql"
)

// stmtPlan is one statement batch's analysis. Immutable once built;
// shared freely across goroutines and prepared handles.
type stmtPlan struct {
	parseErr error // the text does not parse; every field below is zero

	txnControl bool // any BEGIN/COMMIT/ROLLBACK
	ddl        bool // any CREATE/DROP
	readOnly   bool // pure SELECT/EXPLAIN batch without side-effect functions
	sideEffect bool // any exec.EngineEffect call
	// explained is the SELECT of a single EXPLAIN SELECT, rendered
	// back to text: a keyless one renders its plan client-side.
	explained string

	// Shard-key derivation inputs (single-statement, single-table
	// plans only; see shardkey.go):
	table      string    // the one table addressed, "" when none/unknown
	insertCols []string  // INSERT column list (nil = positional)
	insertVals []keyExpr // INSERT single-row VALUES extractors
	eqPairs    []eqPair  // WHERE top-level conjunct equalities / IN lists
	setCols    []string  // UPDATE SET columns (key reassignment check)
	derivable  bool      // the shapes above may confine the statement
}

// planCache memoizes analysis by statement text. Bounded: a client
// interpolating values into SQL (the naive pattern the prepared API
// exists to replace) generates unbounded distinct texts, and unlike
// the engine's parse cache this map lives in every client process —
// past the cap an arbitrary entry is evicted (re-analysis is cheap).
var (
	planMu    sync.Mutex
	planCache = make(map[string]*stmtPlan)
)

const planCacheCap = 1024

// planFor returns the (cached) analysis of sqlText.
func planFor(sqlText string) *stmtPlan {
	planMu.Lock()
	if p := planCache[sqlText]; p != nil {
		planMu.Unlock()
		return p
	}
	planMu.Unlock()
	p := analyzeStmt(sqlText) // parse outside the lock
	planMu.Lock()
	if len(planCache) >= planCacheCap {
		for k := range planCache {
			delete(planCache, k)
			break
		}
	}
	planCache[sqlText] = p
	planMu.Unlock()
	return p
}

// analyzeStmt builds a stmtPlan from the parsed AST.
func analyzeStmt(sqlText string) *stmtPlan {
	p := &stmtPlan{}
	stmts, err := sql.ParseAll(sqlText)
	if err != nil {
		p.parseErr = err
		return p
	}

	allSelect := len(stmts) > 0 // an empty batch is nothing to load-balance
	ddlCount := 0
	for _, st := range stmts {
		switch st.(type) {
		case *sql.BeginStmt, *sql.CommitStmt, *sql.RollbackStmt:
			p.txnControl = true
			allSelect = false
		case *sql.CreateTableStmt, *sql.DropTableStmt, *sql.CreateIndexStmt,
			*sql.CreateViewStmt, *sql.CreateTriggerStmt:
			ddlCount++
			allSelect = false
		case *sql.SelectStmt:
		case *sql.ExplainStmt:
			// EXPLAIN executes everywhere a SELECT does (replicas
			// included); a keyless sharded EXPLAIN of a SELECT
			// renders the distributed plan client-side.
		default:
			allSelect = false
		}
		sql.WalkExprs(st, func(e sql.Expr) {
			if fc, ok := e.(*sql.FuncCall); ok && exec.FuncKindOf(fc.Name) == exec.EngineEffect {
				p.sideEffect = true
			}
		})
	}
	// ddl means PURELY DDL: only such a batch may fan out to every
	// shard primary. A batch mixing DDL with DML must not — its DML
	// would execute on shards that don't own the rows (the ownership
	// guard would abort it half-applied) — so it falls through to the
	// write path, where key derivation refuses multi-statement input.
	p.ddl = ddlCount > 0 && ddlCount == len(stmts)
	p.readOnly = allSelect && !p.sideEffect

	if len(stmts) == 1 {
		if ex, ok := stmts[0].(*sql.ExplainStmt); ok {
			if sel, ok := ex.Stmt.(*sql.SelectStmt); ok {
				p.explained, _ = sql.FormatSelect(sel)
			}
		}
		p.deriveShardShape(stmts[0])
	}
	return p
}
