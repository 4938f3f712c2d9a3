package plan

import (
	"fmt"
	"strconv"
	"strings"

	"ifdb/internal/sql"
	"ifdb/internal/types"
)

// Explain renders the analyzed plan tree as indented text, one
// operator per line, leaves (scans) at the bottom. The rendering is
// deterministic — it is golden-tested — and shows every analysis
// decision: chosen index and bound prefix, pushed predicates, join
// strategy, where a sort runs and its bound, and whether LIMIT may
// early-exit.
func (p *Plan) Explain() string {
	var sb strings.Builder
	renderNode(p.Root, &sb, "", true, true)
	return sb.String()
}

func renderNode(n Node, sb *strings.Builder, prefix string, last, root bool) {
	text, children := describe(n)
	if root {
		sb.WriteString(text)
		sb.WriteByte('\n')
	} else {
		connector, childIndent := "├─ ", "│  "
		if last {
			connector, childIndent = "└─ ", "   "
		}
		sb.WriteString(prefix)
		sb.WriteString(connector)
		sb.WriteString(text)
		sb.WriteByte('\n')
		prefix += childIndent
	}
	for i, c := range children {
		renderNode(c, sb, prefix, i == len(children)-1, false)
	}
}

// describe renders one operator and lists its children.
func describe(n Node) (string, []Node) {
	switch x := n.(type) {
	case *ValuesNode:
		return "values (1 row)", nil
	case *ScanNode:
		var b strings.Builder
		b.WriteString("scan ")
		b.WriteString(x.Table.Name)
		if x.Alias != "" && x.Alias != x.Table.Name {
			b.WriteString(" AS ")
			b.WriteString(x.Alias)
		}
		if x.Index != nil {
			fmt.Fprintf(&b, " | index=%s prefix=%d", x.Index.Name, x.Prefix)
		}
		if len(x.Eq) > 0 {
			b.WriteString(" | eq=[")
			for i, e := range x.Eq {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(x.schema[e.Col].Name)
				b.WriteString("=")
				b.WriteString(formatExpr(e.Expr))
			}
			b.WriteString("]")
		}
		if len(x.Pushed) > 0 {
			b.WriteString(" | push=[")
			for i, p := range x.Pushed {
				if i > 0 {
					b.WriteString(" AND ")
				}
				b.WriteString(formatExpr(p))
			}
			b.WriteString("]")
		}
		if !x.Strip.IsEmpty() {
			b.WriteString(" | strip=")
			b.WriteString(x.Strip.String())
		}
		return b.String(), nil
	case *RenameNode:
		if x.ViewName != "" {
			s := "view " + x.ViewName
			if x.Alias != "" && x.Alias != x.ViewName {
				s += " AS " + x.Alias
			}
			if !x.Strip.IsEmpty() {
				s += " | declassify=" + x.Strip.String()
			}
			return s, []Node{x.Child}
		}
		s := "derived"
		if x.Alias != "" {
			s += " AS " + x.Alias
		}
		return s, []Node{x.Child}
	case *FilterNode:
		return "filter " + formatExpr(x.Cond), []Node{x.Child}
	case *JoinNode:
		if x.Strategy != JoinIndex {
			return fmt.Sprintf("join %s %s on %s", x.Strategy, x.Kind, formatExpr(x.On)),
				[]Node{x.Left, x.Right}
		}
		// The probed table is named on the join's line, not as a child.
		r := x.Right.(*ScanNode)
		s := fmt.Sprintf("join index %s %s", x.Kind, r.Table.Name)
		if r.Alias != "" && r.Alias != r.Table.Name {
			s += " AS " + r.Alias
		}
		s += fmt.Sprintf(" | index=%s prefix=%d on %s", r.Index.Name, r.Prefix, formatExpr(x.On))
		return s, []Node{x.Left}
	case *ProjectNode:
		return "project [" + formatItems(x.Items) + "]", []Node{x.Child}
	case *AggregateNode:
		s := "aggregate [" + formatItems(x.Items) + "]"
		if len(x.GroupBy) > 0 {
			parts := make([]string, len(x.GroupBy))
			for i, e := range x.GroupBy {
				parts[i] = formatExpr(e)
			}
			s += " group by=[" + strings.Join(parts, ", ") + "]"
		}
		if x.Having != nil {
			s += " having=" + formatExpr(x.Having)
		}
		return s, []Node{x.Child}
	case *SortNode:
		parts := make([]string, len(x.Exprs))
		for i, e := range x.Exprs {
			parts[i] = formatExpr(e)
			if x.Desc[i] {
				parts[i] += " DESC"
			}
		}
		s := "sort [" + strings.Join(parts, ", ") + "]"
		if x.Limit != nil {
			s += " top " + formatBound(x.Limit, x.Offset)
		}
		return s, []Node{x.Child}
	case *DistinctNode:
		return "distinct", []Node{x.Child}
	case *OffsetNode:
		return "offset " + formatExpr(x.Expr), []Node{x.Child}
	case *LimitNode:
		s := "limit " + formatExpr(x.Expr)
		if x.Pure {
			s += " (early-exit)"
		}
		return s, []Node{x.Child}
	}
	return fmt.Sprintf("<%T>", n), nil
}

// formatBound renders how many rows a bounded sort keeps: the sum when
// both parts are written out, else the parts.
func formatBound(limit, offset sql.Expr) string {
	if offset == nil {
		return formatExpr(limit)
	}
	l, lok := limit.(*sql.Literal)
	o, ook := offset.(*sql.Literal)
	if lok && ook && l.Value.Kind() == types.KindInt && o.Value.Kind() == types.KindInt {
		return strconv.FormatInt(l.Value.Int()+o.Value.Int(), 10)
	}
	return formatExpr(limit) + " + " + formatExpr(offset)
}

func formatItems(items []sql.SelectItem) string {
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = formatExpr(it.Expr)
		// Suppress the redundant alias a star expansion (or a plain
		// column item) carries.
		auto := ""
		if cr, ok := it.Expr.(*sql.ColumnRef); ok {
			auto = cr.Column
		}
		if it.Alias != "" && it.Alias != auto {
			parts[i] += " AS " + it.Alias
		}
	}
	return strings.Join(parts, ", ")
}

// formatExpr renders an expression deterministically for EXPLAIN
// output. Subquery bodies are elided — the plan tree shows structure,
// not nested SQL.
func formatExpr(e sql.Expr) string {
	switch x := e.(type) {
	case nil:
		return "<nil>"
	case *sql.Literal:
		return formatValue(x.Value)
	case *sql.Param:
		return "$" + strconv.Itoa(x.Index)
	case *sql.ColumnRef:
		if x.Table != "" {
			return x.Table + "." + x.Column
		}
		return x.Column
	case *sql.BinaryExpr:
		return "(" + formatExpr(x.Left) + " " + x.Op + " " + formatExpr(x.Right) + ")"
	case *sql.UnaryExpr:
		if x.Op == "NOT" {
			return "(NOT " + formatExpr(x.Expr) + ")"
		}
		return "(" + x.Op + formatExpr(x.Expr) + ")"
	case *sql.IsNullExpr:
		if x.Not {
			return "(" + formatExpr(x.Expr) + " IS NOT NULL)"
		}
		return "(" + formatExpr(x.Expr) + " IS NULL)"
	case *sql.BetweenExpr:
		op := " BETWEEN "
		if x.Not {
			op = " NOT BETWEEN "
		}
		return "(" + formatExpr(x.Expr) + op + formatExpr(x.Lo) + " AND " + formatExpr(x.Hi) + ")"
	case *sql.InExpr:
		op := " IN "
		if x.Not {
			op = " NOT IN "
		}
		if x.Sub != nil {
			return "(" + formatExpr(x.Expr) + op + "(subquery))"
		}
		parts := make([]string, len(x.List))
		for i, it := range x.List {
			parts[i] = formatExpr(it)
		}
		return "(" + formatExpr(x.Expr) + op + "(" + strings.Join(parts, ", ") + "))"
	case *sql.ExistsExpr:
		if x.Not {
			return "NOT EXISTS (subquery)"
		}
		return "EXISTS (subquery)"
	case *sql.SubqueryExpr:
		return "(subquery)"
	case *sql.FuncCall:
		if x.Star {
			return x.Name + "(*)"
		}
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = formatExpr(a)
		}
		inner := strings.Join(parts, ", ")
		if x.Distinct {
			inner = "DISTINCT " + inner
		}
		return x.Name + "(" + inner + ")"
	}
	return fmt.Sprintf("<%T>", e)
}

func formatValue(v types.Value) string {
	switch v.Kind() {
	case types.KindNull:
		return "NULL"
	case types.KindText:
		return "'" + strings.ReplaceAll(v.Text(), "'", "''") + "'"
	case types.KindBool:
		if v.Bool() {
			return "TRUE"
		}
		return "FALSE"
	case types.KindTime:
		return "'" + v.String() + "'"
	default:
		return v.String()
	}
}
