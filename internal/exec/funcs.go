package exec

import (
	"fmt"
	"sort"
	"strings"

	"ifdb/internal/label"
	"ifdb/internal/types"
)

// FuncKind is what a SQL-callable function is: who computes it, and
// whether a call changes anything. Every reader of a function's class
// — Eval, LIMIT's early exit, the Router's split, the client's replica
// routing — asks FuncKindOf, so a new function is written once, in
// funcs below.
type FuncKind uint8

const (
	// NoFunc is a name funcs does not hold: a stored procedure, or
	// nothing at all. The engine resolves it when the call runs.
	NoFunc FuncKind = iota
	// Aggregate folds a group: COUNT, SUM, AVG, MIN, MAX.
	Aggregate
	// Builtin is computed by Eval itself and is pure: the only kind of
	// call a Router's gateway may evaluate.
	Builtin
	// EnginePure is computed by the engine (Env.Funcs) and changes
	// nothing, so a call LIMIT skips is not missed.
	EnginePure
	// EngineEffect is computed by the engine and changes the session's
	// labels or the database: the paper's label functions (§7.1), the
	// authority mutations and sequences. A statement calling one runs
	// on the primary.
	EngineEffect
)

type funcDef struct {
	kind FuncKind
	call func(args []types.Value) (types.Value, error) // Builtin only
	// sessionOnly marks a call accepted only in a session's own
	// statement text (SessionOnly).
	sessionOnly bool
}

// funcs is every SQL-callable name the system defines, with its kind;
// a Builtin entry carries its implementation.
var funcs = map[string]funcDef{
	"count": {kind: Aggregate},
	"sum":   {kind: Aggregate},
	"avg":   {kind: Aggregate},
	"min":   {kind: Aggregate},
	"max":   {kind: Aggregate},

	"lower": {kind: Builtin, call: unary("lower", func(v types.Value) (types.Value, error) {
		return types.NewText(strings.ToLower(v.Text())), nil
	})},
	"upper": {kind: Builtin, call: unary("upper", func(v types.Value) (types.Value, error) {
		return types.NewText(strings.ToUpper(v.Text())), nil
	})},
	"length": {kind: Builtin, call: unary("length", func(v types.Value) (types.Value, error) {
		return types.NewInt(int64(len(v.Text()))), nil
	})},
	"abs": {kind: Builtin, call: unary("abs", func(v types.Value) (types.Value, error) {
		switch v.Kind() {
		case types.KindInt:
			n := v.Int()
			if n < 0 {
				n = -n
			}
			return types.NewInt(n), nil
		case types.KindFloat:
			f := v.Float()
			if f < 0 {
				f = -f
			}
			return types.NewFloat(f), nil
		}
		return types.Null, fmt.Errorf("exec: abs on %s", v.Kind())
	})},
	"coalesce": {kind: Builtin, call: func(args []types.Value) (types.Value, error) {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return types.Null, nil
	}},
	// label_contains(_label, tagid) — explicit label predicates (paper
	// §4.2: queries may refer to the _label column).
	"label_contains": {kind: Builtin, call: func(args []types.Value) (types.Value, error) {
		if len(args) != 2 {
			return types.Null, fmt.Errorf("exec: label_contains takes 2 arguments")
		}
		if args[0].IsNull() || args[1].IsNull() {
			return types.Null, nil
		}
		if args[0].Kind() != types.KindLabel || args[1].Kind() != types.KindInt {
			return types.Null, fmt.Errorf("exec: label_contains(label, tag)")
		}
		return types.NewBool(args[0].Label().Has(label.Tag(uint64(args[1].Int())))), nil
	}},
	"label_size": {kind: Builtin, call: unary("label_size", func(v types.Value) (types.Value, error) {
		if v.Kind() != types.KindLabel {
			return types.Null, fmt.Errorf("exec: label_size(label)")
		}
		return types.NewInt(int64(v.Label().Len())), nil
	})},

	"getlabel":          {kind: EnginePure},
	"getintegrity":      {kind: EnginePure},
	"tag":               {kind: EnginePure},
	"has_authority":     {kind: EnginePure},
	"current_principal": {kind: EnginePure},
	"now":               {kind: EnginePure},
	"sleep":             {kind: EnginePure},
	"shard_map":         {kind: EnginePure},

	"addsecrecy":      {kind: EngineEffect},
	"declassify":      {kind: EngineEffect},
	"endorse":         {kind: EngineEffect},
	"dropintegrity":   {kind: EngineEffect},
	"nextval":         {kind: EngineEffect},
	"create_sequence": {kind: EngineEffect},

	"create_principal": {kind: EngineEffect, sessionOnly: true},
	"create_tag":       {kind: EngineEffect, sessionOnly: true},
	"delegate":         {kind: EngineEffect, sessionOnly: true},
	"revoke":           {kind: EngineEffect, sessionOnly: true},
	"promote":          {kind: EngineEffect, sessionOnly: true},
}

// unary is a one-argument builtin that maps NULL to NULL.
func unary(name string, fn func(types.Value) (types.Value, error)) func([]types.Value) (types.Value, error) {
	return func(args []types.Value) (types.Value, error) {
		if len(args) != 1 {
			return types.Null, fmt.Errorf("exec: %s takes 1 argument", name)
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		return fn(args[0])
	}
}

// FuncKindOf is the kind of the function called name (lower-case).
func FuncKindOf(name string) FuncKind { return funcs[name].kind }

// SessionOnly reports whether a call of name is accepted only in a
// session's own statement text: the authority mutations and promote().
// Stored SQL — a view body, a column DEFAULT, a CHECK or LABEL
// constraint — runs in the session of whoever reads or writes through
// it, under that session's principal, so a stored delegate() would
// spend the reader's authority on the definer's behalf.
func SessionOnly(name string) bool { return funcs[name].sessionOnly }

// FuncNames lists the functions of kind k, sorted.
func FuncNames(k FuncKind) []string {
	var names []string
	for name, f := range funcs {
		if f.kind == k {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// IsAggregateName reports whether name is an aggregate function.
func IsAggregateName(name string) bool { return funcs[name].kind == Aggregate }
