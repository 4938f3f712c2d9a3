// Package plan is the pull-based query executor behind the engine:
// parse → logical plan tree → ordered rule-based analysis
// (IFC-label-aware predicate pushdown below scans, index selection) →
// volcano-style iterators whose Next() produces one row at a time, so a
// large result streams to the wire instead of materializing.
//
// It is the only SELECT executor: the engine runs every SELECT —
// top-level, subquery, view body, INSERT … SELECT — through it, and
// the Router's gateway merge is a tree of its operators over shard
// streams. UPDATE and DELETE find their targets with it too: the rows
// of SELECT * FROM t WHERE p, each carrying its TID. What it answers is
// pinned by internal/suite, whose recorded cases every backend must
// reproduce to the byte, error text included.
// The rules the operators keep:
//
//   - A statement's stages run in SQL's order — sources and joins,
//     WHERE, aggregate or projection, ORDER BY, DISTINCT, OFFSET, LIMIT
//     — and an analysis rule may move work only where no answer and no
//     error can change. Predicate pushdown therefore happens only when
//     the whole WHERE tree is infallible (no expression shape exec.Eval
//     can fail on): splitting a conjunction between the scan and the
//     residual filter then cannot reorder or suppress an error.
//   - Pushed predicates are evaluated only after MVCC visibility and
//     the Label Confinement Rule have admitted the tuple — a pushed
//     predicate can never observe (or leak through a side channel of)
//     a row the process label does not cover. This keeps the paper's
//     §7.1 property: information flow is enforced below the executor,
//     so planner bugs cannot bypass it.
//   - Error messages raised while assembling or running a SELECT carry
//     the "engine:" prefix: they are the engine's, whichever package
//     words them, and clients match on the text.
//   - A scan hands over the heap's own row; the operator that keeps a
//     row (projection, sort, a group's first row, a join) is its one
//     copy. Operators read plain column references by ordinal,
//     resolved once; anything else, including a name that does not
//     resolve, goes through exec.Eval per row, so an unknown or
//     ambiguous name fails on the first row and never on an empty
//     input.
//   - LIMIT and OFFSET are evaluated once, when the iterator opens,
//     against an empty row: a bound may be a literal or a parameter,
//     never a column.
//   - When a statement holds several independent runtime faults, the
//     one that surfaces is the one the pipeline reaches first, pulling
//     row by row.
//   - A LIMIT stops pulling its child as soon as it is satisfied when
//     the subtree is provably free of state-changing functions, and
//     drains it otherwise: evaluation counts can differ under LIMIT,
//     side effects and results cannot.
package plan

import (
	"ifdb/internal/exec"
	"ifdb/internal/label"
	"ifdb/internal/storage"
	"ifdb/internal/types"
)

// Row is one tuple flowing through a plan: values, the tuple's
// (strip-adjusted) secrecy label, its integrity label, and — between
// an operator that computes ORDER BY keys and the sort — those keys.
//
// TID is the tuple version a table scan read the row from, and means
// something only on a row that reached the consumer from a scan through
// nothing but filters — the shape of SELECT * FROM t WHERE p, whose rows
// the engine's UPDATE and DELETE write through. An operator that builds
// rows of its own does not set it.
type Row struct {
	Vals []types.Value
	Lbl  label.Label
	ILbl label.Label
	Sort []types.Value
	TID  storage.TID
}

// Iter is a volcano-style iterator: Next returns the next row, or
// (nil, nil) when the input is exhausted. Close releases resources and
// flushes scan accounting; it is idempotent.
//
// The *Row belongs to the iterator and is valid until its next Next or
// Close: a consumer that keeps a row past that copies the struct (the
// join does, the sort for the rows it keeps, the aggregate
// for each group's first). What the row's
// fields point to — Vals, Sort, the labels — is never overwritten, so
// a copied Row, or Vals alone (DISTINCT, the engine's cursor), stays
// good for the life of the statement. Nobody may modify them.
type Iter interface {
	Next() (*Row, error)
	Close()
}

// Runtime supplies the session-dependent hooks a plan needs to
// execute. The plan tree itself is immutable and session-free (that is
// what makes it cacheable); everything that depends on the current
// transaction, process label, or parameters arrives here. Only Params
// and Subqs belong to one statement, and Visible to one transaction:
// the rest is the same for every statement of a session, which binds
// it once.
type Runtime struct {
	// Params are the statement's positional parameters.
	Params []types.Value
	// Funcs resolves scalar function calls (session functions and
	// stored procedures).
	Funcs exec.FuncResolver
	// Subqs hands the statement's expressions their subquery runner,
	// bound to the declassify strip of the operator that evaluates them
	// — subqueries inside a declassifying view body must run with the
	// view's strip, not the statement's. Nil where subqueries cannot run.
	Subqs exec.Subqueries
	// Visible is the MVCC snapshot predicate of the statement's
	// transaction.
	Visible func(xmin, xmax storage.XID) bool
	// Confinement returns the label predicate of one scan under strip
	// (storage.Visibility.LabelOK: Label Confinement, its integrity dual
	// and the declassifying strip), bound to the process labels as they
	// stand when the scan opens, so a label change later in the
	// statement does not reach a running scan; nil when IFC is off. The
	// predicate only judges: the heap remembers its verdict per distinct
	// label pair, and the scan counts refusals and reports them through
	// OnScanned.
	Confinement func(strip label.Label) func(l, il label.Label) (label.Label, bool)
	// Check polls for statement cancellation; scans call it per tuple.
	Check func() error
	// OnScanned receives each scan's counts once, when the scan
	// finishes or is closed: tuples examined, and of those how many
	// Label Confinement hid.
	OnScanned func(visited, denied int64)
}

func (rt *Runtime) check() error {
	if rt.Check == nil {
		return nil
	}
	return rt.Check()
}

// env builds an expression environment over schema whose subqueries
// run under strip. An operator asks for one only if it evaluates
// expressions.
func (rt *Runtime) env(schema exec.Schema, strip label.Label) *exec.Env {
	return &exec.Env{Schema: schema, Params: rt.Params, Funcs: rt.Funcs, Subqs: rt.Subqs, Strip: strip}
}

// Node is one operator of the plan tree.
type Node interface {
	// Schema is the operator's output schema.
	Schema() exec.Schema
	// open instantiates the operator's iterator.
	open(rt *Runtime) (Iter, error)
}

// Plan is an analyzed, executable query plan.
type Plan struct {
	Root Node

	// cols are the result's column names, shared by every execution.
	cols []string

	// blocking reports whether any operator must see its whole input
	// before its first output row, or remembers rows it has passed on
	// (sort, aggregate, join, distinct): when false, the plan streams
	// with O(batch) memory regardless of result size.
	blocking bool
}

// Schema returns the plan's output schema.
func (p *Plan) Schema() exec.Schema { return p.Root.Schema() }

// Cols returns the column names of the plan's result. The slice is the
// plan's own: every execution hands out the same one, and nobody may
// modify it.
func (p *Plan) Cols() []string { return p.cols }

// Open instantiates the plan's iterator tree against rt.
func (p *Plan) Open(rt *Runtime) (Iter, error) { return p.Root.open(rt) }

// Streaming reports whether the plan is fully pipelined: no operator
// holds more than one scan batch of rows at a time, so the result
// streams with bounded memory.
func (p *Plan) Streaming() bool { return !p.blocking }
