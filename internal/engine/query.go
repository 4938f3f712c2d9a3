package engine

import (
	"fmt"
	"time"

	"ifdb/internal/authority"
	"ifdb/internal/exec"
	"ifdb/internal/label"
	"ifdb/internal/plan"
	"ifdb/internal/sql"
	"ifdb/internal/types"
)

// Result is the outcome of one statement. A SELECT's Result is its
// own. Any other statement's (an affected-rows count) is the session's,
// overwritten by the session's next statement: read the count before
// issuing another.
type Result struct {
	Cols      []string
	Rows      [][]types.Value
	RowLabels []label.Label // per-row labels (nil when IFC is off)
	Affected  int           // rows affected by DML

	// row1 and label1 hold a SELECT's first row and its label, so a
	// point read's result is one allocation.
	row1   [1][]types.Value
	label1 [1]label.Label
}

// qctx carries per-query execution state. It is also what runs the
// query's subqueries (exec.SubqueryRunner), each level under its own
// strip (exec.Subqueries). A statement's own qctx is a frame of its
// session (Session.frame), kept from statement to statement.
type qctx struct {
	s *Session
	// params are the statement's parameters: a frame's own copy
	// (Session.frame), shared with its subqueries.
	params []types.Value
	// strip is the set of tags declassified by enclosing declassifying
	// views (§4.3); tags covered by it are removed from tuple labels
	// before the confinement check.
	strip label.Label
	// rt is the plan.Runtime of every plan the query opens: the
	// session's hooks (Session.rt) with the query's parameters and
	// subquery context (planRuntime).
	rt plan.Runtime
	// targets holds an UPDATE's or DELETE's targets (Session.targets).
	targets []target
}

// bind points qc, holding its query's parameters, at the query of s
// under strip.
func (qc *qctx) bind(s *Session, strip label.Label) {
	qc.s, qc.strip = s, strip
	qc.rt = s.rt
	qc.rt.Params, qc.rt.Subqs = qc.params, qc
}

// SubqueryRunner returns the context subqueries met under strip run in:
// the statement's parameters, that strip.
func (qc *qctx) SubqueryRunner(strip label.Label) exec.SubqueryRunner {
	sub := &qctx{params: qc.params}
	sub.bind(qc.s, strip)
	return sub
}

// sessionFuncs adapts the session to exec.FuncResolver, providing the
// IFDB SQL-callable functions (§7.1) — the exec.EnginePure and
// exec.EngineEffect names of exec's function table — and stored
// procedures.
type sessionFuncs struct{ s *Session }

// CallFunc dispatches scalar function calls.
func (f sessionFuncs) CallFunc(name string, args []types.Value) (types.Value, error) {
	s := f.s
	eng := s.eng
	tagArg := func(i int) (label.Tag, error) {
		if i >= len(args) {
			return label.InvalidTag, fmt.Errorf("engine: %s: missing tag argument", name)
		}
		switch args[i].Kind() {
		case types.KindInt:
			return label.Tag(uint64(args[i].Int())), nil
		case types.KindText:
			t, ok := eng.LookupTag(args[i].Text())
			if !ok {
				return label.InvalidTag, fmt.Errorf("engine: unknown tag %q", args[i].Text())
			}
			return t, nil
		default:
			return label.InvalidTag, fmt.Errorf("engine: %s: tag argument must be id or name", name)
		}
	}
	switch name {
	case "addsecrecy", "declassify", "endorse", "dropintegrity":
		t, err := tagArg(0)
		if err != nil {
			return types.Null, err
		}
		change := s.AddSecrecy
		switch name {
		case "declassify":
			change = s.Declassify
		case "endorse":
			change = s.Endorse
		case "dropintegrity":
			change = s.DropIntegrity
		}
		if err := change(t); err != nil {
			return types.Null, err
		}
		return types.NewBool(true), nil
	case "getlabel":
		return types.NewLabel(s.Label()), nil
	case "getintegrity":
		return types.NewLabel(s.Integrity()), nil
	case "tag":
		t, err := tagArg(0)
		if err != nil {
			return types.Null, err
		}
		return types.NewInt(int64(uint64(t))), nil
	case "has_authority":
		t, err := tagArg(0)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool(s.HasAuthority(t)), nil
	case "create_principal":
		if len(args) != 1 || args[0].Kind() != types.KindText {
			return types.Null, fmt.Errorf("engine: create_principal('name')")
		}
		p, err := s.CreatePrincipal(args[0].Text())
		if err != nil {
			return types.Null, err
		}
		return types.NewInt(int64(uint64(p))), nil
	case "create_tag":
		names := make([]string, len(args))
		for i, a := range args {
			if a.Kind() != types.KindText {
				names = nil
				break
			}
			names[i] = a.Text()
		}
		if len(names) == 0 {
			return types.Null, fmt.Errorf("engine: create_tag('name', 'compound', ...)")
		}
		t, err := s.CreateTag(names[0], names[1:]...)
		if err != nil {
			return types.Null, err
		}
		return types.NewInt(int64(uint64(t))), nil
	case "delegate", "revoke":
		if len(args) != 2 || args[0].Kind() != types.KindInt {
			return types.Null, fmt.Errorf("engine: %s(grantee, tag)", name)
		}
		t, err := tagArg(1)
		if err != nil {
			return types.Null, err
		}
		change := s.Delegate
		if name == "revoke" {
			change = s.Revoke
		}
		if err := change(authority.Principal(uint64(args[0].Int())), t); err != nil {
			return types.Null, err
		}
		return types.NewBool(true), nil
	case "promote":
		return s.promote()
	case "shard_map":
		if len(args) != 0 {
			return types.Null, fmt.Errorf("engine: shard_map() takes no arguments")
		}
		return s.shardMap()
	case "current_principal":
		return types.NewInt(int64(uint64(s.principal))), nil
	case "now":
		return types.NewTime(time.Now()), nil
	case "sleep":
		// sleep(ms) — pauses the statement, checking for cancellation.
		// Exists so context cancellation (client API v2) is testable
		// deterministically; read-only, so replicas may serve it.
		if len(args) != 1 || args[0].Kind() != types.KindInt || args[0].Int() < 0 {
			return types.Null, fmt.Errorf("engine: sleep(milliseconds)")
		}
		if err := s.cancelableSleep(time.Duration(args[0].Int()) * time.Millisecond); err != nil {
			return types.Null, err
		}
		return types.NewBool(true), nil
	case "nextval":
		if len(args) != 1 || args[0].Kind() != types.KindText {
			return types.Null, fmt.Errorf("engine: nextval('sequence_name')")
		}
		return s.nextval(args[0].Text())
	case "create_sequence":
		if len(args) != 1 || args[0].Kind() != types.KindText {
			return types.Null, fmt.Errorf("engine: create_sequence('name')")
		}
		if err := s.requireWritable(); err != nil {
			// A replica's sequences arrive through the stream; a local
			// registration would fork from the primary's.
			return types.Null, err
		}
		if err := eng.CreateSequence(args[0].Text()); err != nil {
			return types.Null, err
		}
		return types.NewBool(true), nil
	}
	if _, ok := eng.LookupProc(name); ok {
		return s.CallProc(name, args...)
	}
	return types.Null, fmt.Errorf("engine: unknown function %q", name)
}

// ScalarSubquery runs sub and returns its single value.
func (qc *qctx) ScalarSubquery(sub *sql.SelectStmt) (types.Value, error) {
	res, err := qc.s.executeSelect(sub, qc)
	if err != nil {
		return types.Null, err
	}
	if len(res.Rows) == 0 {
		return types.Null, nil
	}
	if len(res.Rows) > 1 {
		return types.Null, fmt.Errorf("engine: scalar subquery returned %d rows", len(res.Rows))
	}
	if len(res.Rows[0]) != 1 {
		return types.Null, fmt.Errorf("engine: scalar subquery must return one column")
	}
	return res.Rows[0][0], nil
}

// InSubquery evaluates v IN (sub), three-valued.
func (qc *qctx) InSubquery(sub *sql.SelectStmt, v types.Value) (types.Value, error) {
	res, err := qc.s.executeSelect(sub, qc)
	if err != nil {
		return types.Null, err
	}
	sawNull := false
	for _, row := range res.Rows {
		if len(row) != 1 {
			return types.Null, fmt.Errorf("engine: IN subquery must return one column")
		}
		switch {
		case v.IsNull() || row[0].IsNull():
			sawNull = true
		case v.Equal(row[0]):
			return types.NewBool(true), nil
		}
	}
	if sawNull {
		return types.Null, nil
	}
	return types.NewBool(false), nil
}

// ExistsSubquery reports whether sub returns any rows.
func (qc *qctx) ExistsSubquery(sub *sql.SelectStmt) (bool, error) {
	res, err := qc.s.executeSelect(sub, qc)
	if err != nil {
		return false, err
	}
	return len(res.Rows) > 0, nil
}

// newEnv is the environment of the expressions a statement evaluates
// outside its plan (VALUES, SET, defaults, constraints): subqueries in
// them run under the statement's own strip.
func (s *Session) newEnv(schema exec.Schema, qc *qctx) *exec.Env {
	return &exec.Env{
		Schema: schema,
		Params: qc.params,
		Funcs:  s.rt.Funcs,
		Subqs:  qc,
		Strip:  qc.strip,
	}
}
