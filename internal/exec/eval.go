// Package exec implements expression evaluation and row-pipeline
// helpers for the executor. It is deliberately independent of the
// catalog and the transaction layer: the engine feeds it rows that
// have already passed MVCC and label visibility (paper §7.1 puts those
// filters below the executor, so bugs here cannot leak data the
// process was not entitled to read).
package exec

import (
	"errors"
	"fmt"
	"strings"

	"ifdb/internal/label"
	"ifdb/internal/sql"
	"ifdb/internal/types"
)

// ColMeta names one column of a row schema, with the table alias it
// came from ("" for computed columns).
type ColMeta struct {
	Table string
	Name  string
}

// Schema describes the columns of rows flowing through the executor.
type Schema []ColMeta

// Resolve finds the ordinal for a (possibly qualified) column
// reference. It returns an error for unknown or ambiguous names.
func (s Schema) Resolve(table, name string) (int, error) {
	found := -1
	for i, c := range s {
		if c.Name != name {
			continue
		}
		if table != "" && !strings.EqualFold(c.Table, table) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("exec: ambiguous column %q", name)
		}
		found = i
	}
	if found < 0 {
		if table != "" {
			return 0, fmt.Errorf("exec: unknown column %s.%s", table, name)
		}
		return 0, fmt.Errorf("exec: unknown column %q", name)
	}
	return found, nil
}

// FuncResolver evaluates scalar function calls (the engine provides
// the IFDB builtins — tag lookups, label predicates, and so on).
type FuncResolver interface {
	CallFunc(name string, args []types.Value) (types.Value, error)
}

// SubqueryRunner evaluates subqueries against the current session.
type SubqueryRunner interface {
	// ScalarSubquery runs sub and returns its single value (NULL if no
	// rows; an error if more than one row or column).
	ScalarSubquery(sub *sql.SelectStmt) (types.Value, error)
	// InSubquery evaluates v IN (sub) over sub's single-column result,
	// three-valued as the list form is: TRUE on a match; else NULL when
	// a comparison was with a NULL (v's own, or one in the set); else
	// FALSE — so against the empty set even a NULL v is FALSE.
	InSubquery(sub *sql.SelectStmt, v types.Value) (types.Value, error)
	// ExistsSubquery reports whether sub returns any row.
	ExistsSubquery(sub *sql.SelectStmt) (bool, error)
}

// Subqueries hands out the runner for the subqueries of one
// statement met under a declassify strip: a subquery inside a
// declassifying view's body runs with the view's strip, not the
// statement's.
type Subqueries interface {
	SubqueryRunner(strip label.Label) SubqueryRunner
}

// Env is the evaluation environment for one row.
type Env struct {
	Schema    Schema
	Row       []types.Value
	RowLabel  label.Label // exposed as the _label system column
	RowILabel label.Label // exposed as the _ilabel system column
	Params    []types.Value
	Funcs     FuncResolver
	// Subqs and Strip are where the subquery runner comes from; Eval
	// asks for it the first time it meets a subquery node and keeps it
	// in subq, so an expression without subqueries never builds one.
	// With Subqs nil a subquery is an error.
	Subqs Subqueries
	Strip label.Label
	subq  SubqueryRunner
}

// subqueries is the runner of env's subqueries, built on first use.
func (env *Env) subqueries() (SubqueryRunner, error) {
	if env.subq == nil {
		if env.Subqs == nil {
			return nil, fmt.Errorf("exec: subquery not supported in this context")
		}
		env.subq = env.Subqs.SubqueryRunner(env.Strip)
	}
	return env.subq, nil
}

// ErrAggregateInScalar is returned when an aggregate function appears
// where a scalar expression is required.
var ErrAggregateInScalar = errors.New("exec: aggregate function in scalar context")

// Eval evaluates a scalar expression in env, with SQL NULL semantics.
func Eval(e sql.Expr, env *Env) (types.Value, error) {
	switch x := e.(type) {
	case *sql.Literal:
		return x.Value, nil
	case *sql.Param:
		if x.Index > len(env.Params) {
			return types.Null, fmt.Errorf("exec: parameter $%d not supplied", x.Index)
		}
		return env.Params[x.Index-1], nil
	case *sql.ColumnRef:
		if x.Column == "_label" {
			return types.NewLabel(env.RowLabel), nil
		}
		if x.Column == "_ilabel" {
			return types.NewLabel(env.RowILabel), nil
		}
		i, err := env.Schema.Resolve(x.Table, x.Column)
		if err != nil {
			return types.Null, err
		}
		if i >= len(env.Row) {
			return types.Null, fmt.Errorf("exec: column ordinal %d out of range", i)
		}
		return env.Row[i], nil
	case *sql.UnaryExpr:
		v, err := Eval(x.Expr, env)
		if err != nil {
			return types.Null, err
		}
		switch x.Op {
		case "-":
			switch v.Kind() {
			case types.KindNull:
				return types.Null, nil
			case types.KindInt:
				return types.NewInt(-v.Int()), nil
			case types.KindFloat:
				return types.NewFloat(-v.Float()), nil
			default:
				return types.Null, fmt.Errorf("exec: cannot negate %s", v.Kind())
			}
		case "NOT":
			if v.IsNull() {
				return types.Null, nil
			}
			if v.Kind() != types.KindBool {
				return types.Null, fmt.Errorf("exec: NOT applied to %s", v.Kind())
			}
			return types.NewBool(!v.Bool()), nil
		default:
			return types.Null, fmt.Errorf("exec: unknown unary op %q", x.Op)
		}
	case *sql.BinaryExpr:
		return evalBinary(x, env)
	case *sql.IsNullExpr:
		v, err := Eval(x.Expr, env)
		if err != nil {
			return types.Null, err
		}
		res := v.IsNull()
		if x.Not {
			res = !res
		}
		return types.NewBool(res), nil
	case *sql.BetweenExpr:
		v, err := Eval(x.Expr, env)
		if err != nil {
			return types.Null, err
		}
		lo, err := Eval(x.Lo, env)
		if err != nil {
			return types.Null, err
		}
		hi, err := Eval(x.Hi, env)
		if err != nil {
			return types.Null, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return types.Null, nil
		}
		in := v.Compare(lo) >= 0 && v.Compare(hi) <= 0
		if x.Not {
			in = !in
		}
		return types.NewBool(in), nil
	case *sql.InExpr:
		v, err := Eval(x.Expr, env)
		if err != nil {
			return types.Null, err
		}
		if x.Sub != nil {
			subq, err := env.subqueries()
			if err != nil {
				return types.Null, err
			}
			in, err := subq.InSubquery(x.Sub, v)
			if err != nil || in.IsNull() || !x.Not {
				return in, err
			}
			return types.NewBool(!in.Bool()), nil
		}
		if v.IsNull() {
			return types.Null, nil
		}
		sawNull := false
		for _, item := range x.List {
			iv, err := Eval(item, env)
			if err != nil {
				return types.Null, err
			}
			if iv.IsNull() {
				sawNull = true
				continue
			}
			if v.Equal(iv) {
				return types.NewBool(!x.Not), nil
			}
		}
		if sawNull {
			return types.Null, nil
		}
		return types.NewBool(x.Not), nil
	case *sql.ExistsExpr:
		subq, err := env.subqueries()
		if err != nil {
			return types.Null, err
		}
		ok, err := subq.ExistsSubquery(x.Sub)
		if err != nil {
			return types.Null, err
		}
		if x.Not {
			ok = !ok
		}
		return types.NewBool(ok), nil
	case *sql.SubqueryExpr:
		subq, err := env.subqueries()
		if err != nil {
			return types.Null, err
		}
		return subq.ScalarSubquery(x.Sub)
	case *sql.FuncCall:
		fn := funcs[x.Name]
		if fn.kind == Aggregate {
			return types.Null, ErrAggregateInScalar
		}
		args := make([]types.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := Eval(a, env)
			if err != nil {
				return types.Null, err
			}
			args[i] = v
		}
		if fn.call != nil {
			return fn.call(args)
		}
		if env.Funcs != nil {
			return env.Funcs.CallFunc(x.Name, args)
		}
		return types.Null, fmt.Errorf("exec: unknown function %q", x.Name)
	default:
		return types.Null, fmt.Errorf("exec: unsupported expression %T", e)
	}
}

func evalBinary(x *sql.BinaryExpr, env *Env) (types.Value, error) {
	// AND/OR use Kleene logic and short-circuit.
	if x.Op == "AND" || x.Op == "OR" {
		l, err := Eval(x.Left, env)
		if err != nil {
			return types.Null, err
		}
		if x.Op == "AND" {
			if !l.IsNull() && l.Kind() == types.KindBool && !l.Bool() {
				return types.NewBool(false), nil
			}
		} else {
			if !l.IsNull() && l.Kind() == types.KindBool && l.Bool() {
				return types.NewBool(true), nil
			}
		}
		r, err := Eval(x.Right, env)
		if err != nil {
			return types.Null, err
		}
		lb, lnull := boolOrNull(l)
		rb, rnull := boolOrNull(r)
		if x.Op == "AND" {
			switch {
			case !lnull && !lb, !rnull && !rb:
				return types.NewBool(false), nil
			case lnull || rnull:
				return types.Null, nil
			default:
				return types.NewBool(true), nil
			}
		}
		switch {
		case !lnull && lb, !rnull && rb:
			return types.NewBool(true), nil
		case lnull || rnull:
			return types.Null, nil
		default:
			return types.NewBool(false), nil
		}
	}

	l, err := Eval(x.Left, env)
	if err != nil {
		return types.Null, err
	}
	r, err := Eval(x.Right, env)
	if err != nil {
		return types.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return types.Null, nil
	}
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		c := l.Compare(r)
		var res bool
		switch x.Op {
		case "=":
			res = l.Equal(r)
		case "<>":
			res = !l.Equal(r)
		case "<":
			res = c < 0
		case "<=":
			res = c <= 0
		case ">":
			res = c > 0
		case ">=":
			res = c >= 0
		}
		return types.NewBool(res), nil
	case "+", "-", "*", "/", "%":
		return evalArith(x.Op, l, r)
	case "||":
		return types.NewText(l.String() + r.String()), nil
	case "LIKE":
		if l.Kind() != types.KindText || r.Kind() != types.KindText {
			return types.Null, fmt.Errorf("exec: LIKE requires text operands")
		}
		return types.NewBool(likeMatch(l.Text(), r.Text())), nil
	default:
		return types.Null, fmt.Errorf("exec: unknown operator %q", x.Op)
	}
}

func boolOrNull(v types.Value) (b, notNull bool) {
	if v.IsNull() {
		return false, true
	}
	if v.Kind() != types.KindBool {
		return false, true
	}
	return v.Bool(), false
}

func evalArith(op string, l, r types.Value) (types.Value, error) {
	li := l.Kind() == types.KindInt
	ri := r.Kind() == types.KindInt
	if li && ri {
		a, b := l.Int(), r.Int()
		switch op {
		case "+":
			return types.NewInt(a + b), nil
		case "-":
			return types.NewInt(a - b), nil
		case "*":
			return types.NewInt(a * b), nil
		case "/":
			if b == 0 {
				return types.Null, fmt.Errorf("exec: division by zero")
			}
			return types.NewInt(a / b), nil
		case "%":
			if b == 0 {
				return types.Null, fmt.Errorf("exec: division by zero")
			}
			return types.NewInt(a % b), nil
		}
	}
	lf := li || l.Kind() == types.KindFloat
	rf := ri || r.Kind() == types.KindFloat
	if !lf || !rf {
		return types.Null, fmt.Errorf("exec: arithmetic on %s and %s", l.Kind(), r.Kind())
	}
	a, b := l.Float(), r.Float()
	switch op {
	case "+":
		return types.NewFloat(a + b), nil
	case "-":
		return types.NewFloat(a - b), nil
	case "*":
		return types.NewFloat(a * b), nil
	case "/":
		if b == 0 {
			return types.Null, fmt.Errorf("exec: division by zero")
		}
		return types.NewFloat(a / b), nil
	case "%":
		return types.Null, fmt.Errorf("exec: %% requires integer operands")
	}
	return types.Null, fmt.Errorf("exec: unknown arithmetic op %q", op)
}

// likeMatch implements SQL LIKE: '%' matches any run, '_' any single
// character. Matching is case-sensitive, like PostgreSQL's LIKE.
func likeMatch(s, pattern string) bool {
	// Iterative two-pointer matcher with backtracking on '%'.
	si, pi := 0, 0
	star, sback := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			sback = si
			pi++
		case star >= 0:
			sback++
			si = sback
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}
