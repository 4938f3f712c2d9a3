package sql

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ifdb/internal/types"
)

// walkCase is one node of one Expr kind whose operands are column
// references named for what they are, so a walk's path is readable.
type walkCase struct {
	e        Expr
	operands []string // the column names Inspect must reach, in order
}

func col(name string) *ColumnRef { return &ColumnRef{Column: name} }

// everyKind holds a node of every Expr kind in ast.go (InExpr twice:
// its list form and its subquery form). The subqueries' SELECT names a
// column "inner", which neither walker may reach.
func everyKind() []walkCase {
	sub := &SelectStmt{Items: []SelectItem{{Expr: col("inner")}}, Where: col("inner")}
	return []walkCase{
		{&ColumnRef{Table: "t", Column: "c"}, nil},
		{&Literal{Value: types.NewInt(7)}, nil},
		{&Param{Index: 2}, nil},
		{&BinaryExpr{Op: "+", Left: col("left"), Right: col("right")}, []string{"left", "right"}},
		{&UnaryExpr{Op: "-", Expr: col("x")}, []string{"x"}},
		{&IsNullExpr{Expr: col("x"), Not: true}, []string{"x"}},
		{&InExpr{Expr: col("x"), List: []Expr{col("a"), col("b")}, Not: true}, []string{"x", "a", "b"}},
		{&InExpr{Expr: col("x"), Sub: sub}, []string{"x"}},
		{&BetweenExpr{Expr: col("x"), Lo: col("lo"), Hi: col("hi"), Not: true}, []string{"x", "lo", "hi"}},
		{&FuncCall{Name: "f", Distinct: true, Args: []Expr{col("a"), col("b")}}, []string{"a", "b"}},
		{&FuncCall{Name: "count", Star: true}, nil},
		{&ExistsExpr{Sub: sub, Not: true}, nil},
		{&SubqueryExpr{Sub: sub}, nil},
	}
}

// exprKinds lists the types ast.go gives an expr() method: the kinds
// every walker must know.
func exprKinds(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "expr" || fd.Recv == nil {
			continue
		}
		kinds = append(kinds, fd.Recv.List[0].Type.(*ast.StarExpr).X.(*ast.Ident).Name)
	}
	sort.Strings(kinds)
	return kinds
}

// visited is the column names Inspect reaches under e, in order, with
// the number of nodes it calls fn on.
func visited(e Expr) (names []string, nodes int) {
	Inspect(e, func(n Expr) bool {
		nodes++
		if cr, ok := n.(*ColumnRef); ok && n != e {
			names = append(names, cr.Column)
		}
		return true
	})
	return names, nodes
}

func TestWalkersKnowEveryKind(t *testing.T) {
	covered := map[string]bool{}
	for _, c := range everyKind() {
		covered[reflect.TypeOf(c.e).Elem().Name()] = true
	}
	for _, k := range exprKinds(t) {
		if !covered[k] {
			t.Errorf("%s: no case in everyKind; teach Inspect, Rewrite and this test the new kind", k)
		}
	}
}

func TestInspect(t *testing.T) {
	for _, c := range everyKind() {
		kind := reflect.TypeOf(c.e).Elem().Name()
		names, nodes := visited(c.e)
		if !reflect.DeepEqual(names, c.operands) {
			t.Errorf("%s: Inspect reached %v, want %v (a subquery's SELECT is not entered)", kind, names, c.operands)
		}
		if nodes != 1+len(c.operands) {
			t.Errorf("%s: fn called on %d nodes, want %d", kind, nodes, 1+len(c.operands))
		}
		// false skips the operands.
		calls := 0
		Inspect(c.e, func(Expr) bool { calls++; return false })
		if calls != 1 {
			t.Errorf("%s: fn returned false and was still called %d times", kind, calls)
		}
	}
	Inspect(nil, func(Expr) bool { t.Fatal("fn called on nil"); return true })
}

func TestRewrite(t *testing.T) {
	for _, c := range everyKind() {
		kind := reflect.TypeOf(c.e).Elem().Name()
		// nil from fn keeps every node: a deep copy, fields and all.
		cp := Rewrite(c.e, func(Expr) Expr { return nil })
		if !reflect.DeepEqual(cp, c.e) {
			t.Errorf("%s: identity rewrite gave %#v, want %#v", kind, cp, c.e)
		}
		if len(c.operands) > 0 && cp == c.e {
			t.Errorf("%s: rewrite returned the node itself, not a copy", kind)
		}
		// A replaced leaf shows in the copy and not in the original.
		renamed := Rewrite(c.e, func(e Expr) Expr {
			if cr, ok := e.(*ColumnRef); ok && e != c.e {
				return col(strings.ToUpper(cr.Column))
			}
			return nil
		})
		names, _ := visited(renamed)
		var want []string
		for _, o := range c.operands {
			want = append(want, strings.ToUpper(o))
		}
		if !reflect.DeepEqual(names, want) {
			t.Errorf("%s: rewritten operands %v, want %v", kind, names, want)
		}
		if names, _ := visited(c.e); !reflect.DeepEqual(names, c.operands) {
			t.Errorf("%s: rewrite changed the original: %v", kind, names)
		}
		// A replaced node's operands are not visited.
		calls := 0
		lit := &Literal{Value: types.NewInt(1)}
		if got := Rewrite(c.e, func(Expr) Expr { calls++; return lit }); got != lit || calls != 1 {
			t.Errorf("%s: replacing the root gave %v after %d calls", kind, got, calls)
		}
	}
	if Rewrite(nil, func(Expr) Expr { t.Fatal("fn called on nil"); return nil }) != nil {
		t.Error("Rewrite(nil) is not nil")
	}
}

// TestWalkExprsEntersSubqueries: unlike Inspect, the statement walk
// reaches inside every subquery.
func TestWalkExprsEntersSubqueries(t *testing.T) {
	for _, c := range everyKind() {
		kind := reflect.TypeOf(c.e).Elem().Name()
		inner := 0
		WalkExprs(&SelectStmt{Where: c.e}, func(e Expr) {
			if cr, ok := e.(*ColumnRef); ok && cr.Column == "inner" {
				inner++
			}
		})
		want := 0
		switch x := c.e.(type) {
		case *InExpr:
			if x.Sub != nil {
				want = 2
			}
		case *ExistsExpr, *SubqueryExpr:
			want = 2
		}
		if inner != want {
			t.Errorf("%s: WalkExprs reached the subquery's columns %d times, want %d", kind, inner, want)
		}
	}
}
