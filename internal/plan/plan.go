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
	"sync"
	"sync/atomic"

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
// Close — after Close the iterator may already serve another
// statement (Plan.Open): a consumer that keeps a row past that copies
// the struct (the join does, the sort for the rows it keeps, the
// aggregate for each group's first). What the row's
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
	// Confinement is Query by Label for the statement's scans; nil when
	// IFC is off. A scan reads the process labels once, when it opens,
	// and judges every tuple label pair under those, so a label change
	// later in the statement does not reach a running scan.
	Confinement Confiner
	// Check polls for statement cancellation; scans call it per tuple.
	Check func() error
	// OnScanned receives each scan's counts once, when the scan
	// finishes or is closed: tuples examined, of those how many Label
	// Confinement hid, and the rows it sent on as their stored bytes
	// (Handle.SendStored).
	OnScanned func(visited, denied, stored int64)
}

func (rt *Runtime) check() error {
	if rt.Check == nil {
		return nil
	}
	return rt.Check()
}

// Confiner judges Label Confinement (storage.Visibility.LabelOK) for
// one session's scans.
type Confiner interface {
	// ProcessLabels returns the process secrecy and integrity labels as
	// they stand now. Labels are never modified in place, so the scan
	// that keeps them copies nothing.
	ProcessLabels() (pl, pil label.Label)
	// LabelsOK judges one tuple label pair (l, il) for a reader whose
	// process labels are pl and pil, under the declassifying strip: the
	// label the reader sees (l less what strip covers) and whether it
	// may see the tuple (Label Confinement and its integrity dual). It
	// is a pure function of its arguments: the heap remembers its
	// verdict per distinct pair, and the scan counts refusals and
	// reports them through OnScanned.
	LabelsOK(pl, pil, strip, l, il label.Label) (seen label.Label, ok bool)
}

// env builds an expression environment over schema whose subqueries
// run under strip. An operator asks for one only if it evaluates
// expressions.
func (rt *Runtime) env(schema exec.Schema, strip label.Label) exec.Env {
	return exec.Env{Schema: schema, Params: rt.Params, Funcs: rt.Funcs, Subqs: rt.Subqs, Strip: strip}
}

// Node is one operator of the plan tree.
type Node interface {
	// Schema is the operator's output schema.
	Schema() exec.Schema
	// open instantiates the operator's iterator against rt, re-using
	// old — what it opened the last time its tree ran, nil in a new
	// tree — through recycle, and handing each child the iterator old
	// kept for it.
	open(rt *Runtime, old Iter) (Iter, error)
}

// recycle returns old as a *T when it is one and a new T otherwise, so
// a fresh tree and a recycled one come out of the same open code. It
// is the one place in the package an iterator is made. The caller
// re-initialises every field that belongs to one opening; what it
// keeps (child iterators, bound method values) is what a recycled tree
// saves.
func recycle[T any, P interface {
	*T
	Iter
}](old Iter) P {
	if it, ok := old.(P); ok {
		return it
	}
	return P(new(T))
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

	// stored reports whether the plan's rows are a heap scan's of a
	// table on disk, passed up by nothing but identity projections and
	// renames: rows whose stored bytes are already their result's
	// encoding (Handle.SendStored).
	stored bool

	// spare and trees hold the plan's closed iterator trees: spare the
	// one a Close returned last, trees (*tree) the rest. A cached plan is
	// shared by every session, so each opening takes a tree of its own,
	// and a re-entrant opening — a subquery or a stored procedure running
	// the same statement mid-scan — takes another. spare makes a
	// session's run of one statement reuse one tree whatever the pool
	// does, which under the race detector is to drop a quarter of what
	// it is given.
	spare atomic.Pointer[tree]
	trees sync.Pool
}

// tree is one iterator tree of a plan: the root its last opening
// returned, whose iterators hold their children.
type tree struct{ root Iter }

// Handle is one opening of a plan: the iterator tree a statement
// pulls. Its first Close closes the tree and hands it back to the plan
// for the next opening; a later Close does nothing. A Handle is used
// where it was opened, not copied.
type Handle struct {
	p *Plan
	t *tree
	// scan is the tree's scan once SendStored asked it for stored rows.
	scan *scanIter
}

// Next returns the tree's next row (Iter.Next); nil once closed.
func (h *Handle) Next() (*Row, error) {
	if h.t == nil {
		return nil, nil
	}
	return h.t.root.Next()
}

// Close closes the tree and returns it to the plan. The rows it handed
// out are the iterators' own and die with it (Iter); what their fields
// point to does not.
func (h *Handle) Close() {
	t := h.t
	if t == nil {
		return
	}
	h.t, h.scan = nil, nil
	t.root.Close()
	if !h.p.spare.CompareAndSwap(nil, t) {
		h.p.trees.Put(t)
	}
}

// SendStored asks the tree, before its first Next, for its rows as
// the heap stores them: when the plan's rows are a scan's of a table
// on disk, passed up unchanged (the plan decided when it was built),
// each row Next returns from then on has no values, and Stored returns
// its bytes. Every check the scan makes runs as before any byte is
// kept, and the bytes carry no label: the row's label is its Lbl, as
// on any row. It reports whether the rows will come stored.
func (h *Handle) SendStored() bool {
	if h.scan == nil && h.t != nil && h.p.stored {
		it := h.t.root
		for v, ok := it.(*viewIter); ok; v, ok = it.(*viewIter) {
			it = v.child
		}
		h.scan = it.(*scanIter)
		h.scan.st.WantEncoded = true
	}
	return h.scan != nil
}

// Stored returns the stored bytes of the row Next returned last —
// types.EncodeRow's form of its values — or nil when it has none (the
// rows were not asked for stored, or the table keeps them decoded).
// They are never overwritten and stay good after Close.
func (h *Handle) Stored() []byte {
	if h.scan == nil {
		return nil
	}
	return h.scan.storedRow()
}

// Schema returns the plan's output schema.
func (p *Plan) Schema() exec.Schema { return p.Root.Schema() }

// Cols returns the column names of the plan's result. The slice is the
// plan's own: every execution hands out the same one, and nobody may
// modify it.
func (p *Plan) Cols() []string { return p.cols }

// Open opens the plan against rt: a tree a closed Handle returned,
// re-initialised, or a new one when none is free. A tree whose opening
// fails is dropped.
func (p *Plan) Open(rt *Runtime) (Handle, error) {
	t := p.spare.Swap(nil)
	if t == nil {
		t, _ = p.trees.Get().(*tree)
	}
	if t == nil {
		t = new(tree)
	}
	root, err := p.Root.open(rt, t.root)
	if err != nil {
		return Handle{}, err
	}
	t.root = root
	return Handle{p: p, t: t}, nil
}

// Streaming reports whether the plan is fully pipelined: no operator
// holds more than one scan batch of rows at a time, so the result
// streams with bounded memory.
func (p *Plan) Streaming() bool { return !p.blocking }
