package exec

import (
	"fmt"

	"ifdb/internal/sql"
	"ifdb/internal/types"
)

// Aggregate accumulation, shared by the plan executor's engine
// accumulator and the distributed gateway merge. The two must fold
// values identically — the suite's Router backends are held to the
// single node's answers — so the state machine lives here once.
//
// Error texts keep the "engine:" prefix: they surface to clients as
// engine errors regardless of which executor hit them.

// AggState accumulates one aggregate call over one group.
type AggState struct {
	fn       string
	distinct bool
	star     bool

	count   int64
	sumI    int64
	sumF    float64
	isFloat bool
	minV    types.Value
	maxV    types.Value
	seen    map[string]bool // for DISTINCT
	any     bool
}

// NewAggState builds the accumulator for one aggregate call.
func NewAggState(fc *sql.FuncCall) *AggState {
	st := &AggState{fn: fc.Name, distinct: fc.Distinct, star: fc.Star}
	if fc.Distinct {
		st.seen = make(map[string]bool)
	}
	return st
}

// Add folds one input value. For COUNT(*) states the value is ignored;
// otherwise NULLs are skipped and DISTINCT de-duplicates.
func (a *AggState) Add(v types.Value) error {
	if a.star {
		a.count++
		return nil
	}
	if v.IsNull() {
		return nil // aggregates ignore NULLs
	}
	if a.distinct {
		k := string(rune(v.Kind())) + v.String()
		if a.seen[k] {
			return nil
		}
		a.seen[k] = true
	}
	a.any = true
	a.count++
	switch a.fn {
	case "count":
	case "sum", "avg":
		switch v.Kind() {
		case types.KindInt:
			a.sumI += v.Int()
			a.sumF += float64(v.Int())
		case types.KindFloat:
			a.isFloat = true
			a.sumF += v.Float()
		default:
			return fmt.Errorf("engine: %s over %s", a.fn, v.Kind())
		}
	case "min":
		if a.minV.IsNull() || v.Compare(a.minV) < 0 {
			a.minV = v
		}
	case "max":
		if a.maxV.IsNull() || v.Compare(a.maxV) > 0 {
			a.maxV = v
		}
	default:
		return fmt.Errorf("engine: unknown aggregate %q", a.fn)
	}
	return nil
}

// Result finalizes the accumulator.
func (a *AggState) Result() types.Value {
	switch a.fn {
	case "count":
		return types.NewInt(a.count)
	case "sum":
		if !a.any {
			return types.Null
		}
		if a.isFloat {
			return types.NewFloat(a.sumF)
		}
		return types.NewInt(a.sumI)
	case "avg":
		if !a.any {
			return types.Null
		}
		return types.NewFloat(a.sumF / float64(a.count))
	case "min":
		return a.minV
	case "max":
		return a.maxV
	}
	return types.Null
}

// CollectAggs gathers the distinct aggregate call nodes in an
// expression tree (by pointer identity).
func CollectAggs(e sql.Expr, out *[]*sql.FuncCall, seen map[*sql.FuncCall]bool) {
	switch x := e.(type) {
	case nil:
	case *sql.FuncCall:
		if IsAggregateName(x.Name) {
			if !seen[x] {
				seen[x] = true
				*out = append(*out, x)
			}
			return
		}
		for _, a := range x.Args {
			CollectAggs(a, out, seen)
		}
	case *sql.BinaryExpr:
		CollectAggs(x.Left, out, seen)
		CollectAggs(x.Right, out, seen)
	case *sql.UnaryExpr:
		CollectAggs(x.Expr, out, seen)
	case *sql.IsNullExpr:
		CollectAggs(x.Expr, out, seen)
	case *sql.BetweenExpr:
		CollectAggs(x.Expr, out, seen)
		CollectAggs(x.Lo, out, seen)
		CollectAggs(x.Hi, out, seen)
	case *sql.InExpr:
		CollectAggs(x.Expr, out, seen)
		for _, it := range x.List {
			CollectAggs(it, out, seen)
		}
	}
}

// ReplaceAggs rewrites aggregate call nodes to parameter placeholders
// (indexes from mapping), leaving everything else shared.
func ReplaceAggs(e sql.Expr, mapping map[*sql.FuncCall]int) sql.Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *sql.FuncCall:
		if idx, ok := mapping[x]; ok {
			return &sql.Param{Index: idx}
		}
		args := make([]sql.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = ReplaceAggs(a, mapping)
		}
		return &sql.FuncCall{Name: x.Name, Star: x.Star, Distinct: x.Distinct, Args: args}
	case *sql.BinaryExpr:
		return &sql.BinaryExpr{Op: x.Op, Left: ReplaceAggs(x.Left, mapping), Right: ReplaceAggs(x.Right, mapping)}
	case *sql.UnaryExpr:
		return &sql.UnaryExpr{Op: x.Op, Expr: ReplaceAggs(x.Expr, mapping)}
	case *sql.IsNullExpr:
		return &sql.IsNullExpr{Expr: ReplaceAggs(x.Expr, mapping), Not: x.Not}
	case *sql.BetweenExpr:
		return &sql.BetweenExpr{Expr: ReplaceAggs(x.Expr, mapping), Lo: ReplaceAggs(x.Lo, mapping), Hi: ReplaceAggs(x.Hi, mapping), Not: x.Not}
	case *sql.InExpr:
		list := make([]sql.Expr, len(x.List))
		for i, it := range x.List {
			list[i] = ReplaceAggs(it, mapping)
		}
		return &sql.InExpr{Expr: ReplaceAggs(x.Expr, mapping), List: list, Sub: x.Sub, Not: x.Not}
	default:
		return e
	}
}
