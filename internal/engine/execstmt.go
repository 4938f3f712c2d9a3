package engine

import (
	"fmt"
	"time"

	"ifdb/internal/sql"
	"ifdb/internal/txn"
	"ifdb/internal/types"
)

// Exec parses and executes SQL. Multiple semicolon-separated
// statements run in order; the result of the last one is returned.
// Positional parameters ($1, $2, ...) bind to params.
//
// Parsed query/DML statements are cached engine-wide by query text
// (the prepared-statement optimization every real DBMS has); DDL is
// never cached because its execution consumes parts of the AST.
func (s *Session) Exec(query string, params ...types.Value) (*Result, error) {
	stmts, top, err := s.statements(query, nil)
	if err != nil {
		return nil, err
	}
	return s.run(stmts, top, params)
}

// statements resolves a batch to run: a prepared handle's pinned AST,
// or else the text through the parse cache. top reports a top-level
// statement, whose timing breakdown it starts (ParseNs stays zero for a
// pinned batch: that it never parses is what the breakdown should
// show). Nested statements (triggers, stored procedures, QueryEach
// fan-out) run inside the enclosing statement and must not clobber its
// breakdown.
func (s *Session) statements(text string, pinned []sql.Statement) (stmts []sql.Statement, top bool, err error) {
	top = s.stmtTx == nil || s.stmtTx.Done()
	if top {
		s.beginStmtStats(text)
	}
	if pinned != nil {
		return pinned, top, nil
	}
	var t0 time.Time
	if top {
		t0 = time.Now()
	}
	stmts, err = s.eng.parseCached(text)
	if top {
		s.stats.ParseNs = time.Since(t0).Nanoseconds()
	}
	return stmts, top, err
}

// run executes a resolved batch in order and returns the last
// statement's result, timing a top-level batch as ExecNs.
func (s *Session) run(stmts []sql.Statement, top bool, params []types.Value) (*Result, error) {
	if len(stmts) == 0 {
		return &Result{}, nil
	}
	if top {
		t0 := time.Now()
		defer func() { s.stats.ExecNs = time.Since(t0).Nanoseconds() }()
	}
	var res *Result
	for _, st := range stmts {
		var err error
		if res, err = s.ExecStmt(st, params...); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Query is Exec for callers that expect rows.
func (s *Session) Query(query string, params ...types.Value) (*Result, error) {
	return s.Exec(query, params...)
}

// QueryRow runs a query expected to return at most one row; ok is
// false if it returned none.
func (s *Session) QueryRow(query string, params ...types.Value) ([]types.Value, bool, error) {
	res, err := s.Exec(query, params...)
	if err != nil {
		return nil, false, err
	}
	if len(res.Rows) == 0 {
		return nil, false, nil
	}
	return res.Rows[0], true, nil
}

// ExecStmt executes one parsed statement.
func (s *Session) ExecStmt(st sql.Statement, params ...types.Value) (*Result, error) {
	if err := s.checkCanceled(); err != nil {
		return nil, err
	}
	switch x := st.(type) {
	case *sql.BeginStmt:
		mode := txn.SnapshotIsolation
		if x.Serializable {
			mode = txn.Serializable
		}
		if err := s.Begin(mode); err != nil {
			return nil, err
		}
		return s.affected(0), nil
	case *sql.CommitStmt:
		if err := s.Commit(); err != nil {
			return nil, err
		}
		return s.affected(0), nil
	case *sql.RollbackStmt:
		if err := s.Abort(); err != nil {
			return nil, err
		}
		return s.affected(0), nil
	}

	// Replica read-only enforcement: everything except SELECT and
	// EXPLAIN (and the transaction-control statements handled above)
	// mutates state.
	switch st.(type) {
	case *sql.SelectStmt, *sql.ExplainStmt:
	default:
		if err := s.requireWritable(); err != nil {
			return nil, err
		}
	}

	qc := s.frame(params)
	defer s.release(qc)
	var res *Result
	err := s.withStmt(func(t *txn.Txn) error {
		switch x := st.(type) {
		case *sql.SelectStmt:
			var err error
			res, err = s.executeSelect(x, qc)
			return err
		case *sql.ExplainStmt:
			var err error
			res, err = s.explain(x.Stmt)
			return err
		case *sql.InsertStmt:
			n, err := s.executeInsert(x, qc)
			res = s.affected(n)
			return err
		case *sql.UpdateStmt:
			n, err := s.executeUpdate(x, qc)
			res = s.affected(n)
			return err
		case *sql.DeleteStmt:
			n, err := s.executeDelete(x, qc)
			res = s.affected(n)
			return err
		case *sql.CreateTableStmt:
			res = s.affected(0)
			if err := s.executeCreateTable(x); err != nil {
				return err
			}
			return s.logDDLNoted(x.Text)
		case *sql.DropTableStmt:
			res = s.affected(0)
			err := s.eng.dropTable(x.Name)
			if err != nil && (x.IfExists || s.eng.replaying()) {
				return nil
			}
			if err != nil {
				return err
			}
			return s.logDDLNoted(x.Text)
		case *sql.CreateIndexStmt:
			res = s.affected(0)
			if err := s.executeCreateIndex(x); err != nil {
				return err
			}
			return s.logDDLNoted(x.Text)
		case *sql.CreateViewStmt:
			res = s.affected(0)
			if err := s.executeCreateView(x); err != nil {
				return err
			}
			return s.logDDLNoted(x.Text)
		case *sql.CreateTriggerStmt:
			res = s.affected(0)
			if err := s.executeCreateTrigger(x); err != nil {
				return err
			}
			return s.logDDLNoted(x.Text)
		default:
			return fmt.Errorf("engine: unsupported statement %T", st)
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
