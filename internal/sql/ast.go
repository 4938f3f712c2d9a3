package sql

import (
	"ifdb/internal/types"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any scalar expression node.
type Expr interface{ expr() }

// ---------------------------------------------------------------------------
// Expressions

// ColumnRef names a column, optionally qualified by table or alias.
// The special column "_label" exposes each tuple's label (paper §4.2).
type ColumnRef struct {
	Table  string // "" if unqualified
	Column string
}

// Literal is a constant value.
type Literal struct {
	Value types.Value
}

// Param is a positional placeholder ($1, $2, ...). Index is 1-based.
type Param struct {
	Index int
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op          string // "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "AND", "OR", "LIKE", "||"
	Left, Right Expr
}

// UnaryExpr applies a unary operator: "-", "NOT".
type UnaryExpr struct {
	Op   string
	Expr Expr
}

// IsNullExpr tests IS [NOT] NULL.
type IsNullExpr struct {
	Expr Expr
	Not  bool
}

// InExpr tests membership in a literal list or a subquery.
type InExpr struct {
	Expr Expr
	List []Expr      // non-nil for IN (a, b, c)
	Sub  *SelectStmt // non-nil for IN (SELECT ...)
	Not  bool
}

// BetweenExpr tests range membership.
type BetweenExpr struct {
	Expr   Expr
	Lo, Hi Expr
	Not    bool
}

// FuncCall invokes a function: aggregates (COUNT, SUM, AVG, MIN, MAX)
// or scalar builtins (including the IFDB functions like tag_of,
// label_contains).
type FuncCall struct {
	Name     string // lower-case
	Star     bool   // COUNT(*)
	Distinct bool
	Args     []Expr
}

// ExistsExpr tests EXISTS (SELECT ...).
type ExistsExpr struct {
	Sub *SelectStmt
	Not bool
}

// SubqueryExpr is a scalar subquery.
type SubqueryExpr struct {
	Sub *SelectStmt
}

func (*ColumnRef) expr()    {}
func (*Literal) expr()      {}
func (*Param) expr()        {}
func (*BinaryExpr) expr()   {}
func (*UnaryExpr) expr()    {}
func (*IsNullExpr) expr()   {}
func (*InExpr) expr()       {}
func (*BetweenExpr) expr()  {}
func (*FuncCall) expr()     {}
func (*ExistsExpr) expr()   {}
func (*SubqueryExpr) expr() {}

// ---------------------------------------------------------------------------
// SELECT

// SelectItem is one output expression with an optional alias; a bare
// `*` or `t.*` is represented with Star set.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
	Table string // for t.*
}

// TableRef is a FROM-clause item: a base table or view with an
// optional alias, or a parenthesized subquery.
type TableRef struct {
	Name  string
	Alias string
	Sub   *SelectStmt // non-nil for (SELECT ...) alias
}

// JoinClause attaches one joined table.
type JoinClause struct {
	Kind  string // "INNER" or "LEFT"
	Table TableRef
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct  bool
	Items     []SelectItem
	From      *TableRef // nil for FROM-less SELECT (e.g. SELECT fn())
	Joins     []JoinClause
	Where     Expr
	GroupBy   []Expr
	Having    Expr
	OrderBy   []OrderItem
	Limit     Expr // nil if absent
	Offset    Expr
	ForUpdate bool
}

func (*SelectStmt) stmt() {}

// ExplainStmt renders the analyzed plan of the wrapped statement
// instead of executing it: a SELECT's plan, or under a line naming the
// write the plan that selects an UPDATE's or DELETE's targets. The
// parser accepts any statement and the engine rejects the rest.
type ExplainStmt struct {
	Stmt Statement
}

func (*ExplainStmt) stmt() {}

// ---------------------------------------------------------------------------
// DML

// InsertStmt is INSERT INTO ... VALUES / SELECT, with the IFDB
// DECLASSIFYING extension for the Foreign Key Rule (§5.2.2).
type InsertStmt struct {
	Table         string
	Columns       []string // nil = table order
	Rows          [][]Expr // literal rows, nil if Select is set
	Select        *SelectStmt
	Declassifying []string // tag names whose channel the inserter vouches for
}

// UpdateStmt is UPDATE ... SET ... WHERE.
type UpdateStmt struct {
	Table         string
	Set           []SetClause
	Where         Expr
	Declassifying []string
}

// SetClause assigns one column.
type SetClause struct {
	Column string
	Value  Expr
}

// DeleteStmt is DELETE FROM ... WHERE.
type DeleteStmt struct {
	Table string
	Where Expr
}

func (*InsertStmt) stmt() {}
func (*UpdateStmt) stmt() {}
func (*DeleteStmt) stmt() {}

// ---------------------------------------------------------------------------
// DDL

// ColumnDef defines one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       types.Kind
	NotNull    bool
	PrimaryKey bool
	Unique     bool
	Default    Expr
	RefTable   string // inline REFERENCES
	RefColumn  string
}

// TableConstraint is a table-level constraint in CREATE TABLE.
type TableConstraint struct {
	Name string
	Kind string // "PRIMARY KEY", "UNIQUE", "FOREIGN KEY", "LABEL EXACTLY", "LABEL CONTAINS", "CHECK"

	Columns []string // for PK/UNIQUE/FK
	// FK target:
	RefTable   string
	RefColumns []string
	OnDelete   string // "RESTRICT" (default), "CASCADE"

	// LABEL EXACTLY/CONTAINS: expressions evaluating to tag ids over
	// the inserted row (paper §5.2.4).
	LabelExprs []Expr

	// CHECK:
	Check Expr
}

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	Text        string // original source, for WAL replay
	Name        string
	IfNotExists bool
	Columns     []ColumnDef
	Constraints []TableConstraint
	OnDisk      bool // USING DISK selects the paged heap backend
}

// DropTableStmt is DROP TABLE.
type DropTableStmt struct {
	Text     string // original source, for WAL replay
	Name     string
	IfExists bool
}

// CreateIndexStmt is CREATE [UNIQUE] INDEX.
type CreateIndexStmt struct {
	Text    string // original source, for WAL replay
	Name    string
	Table   string
	Columns []string
	Unique  bool
}

// CreateViewStmt is CREATE VIEW, optionally a declassifying view
// (paper §4.3).
type CreateViewStmt struct {
	Text          string // original source, for WAL replay
	Name          string
	Columns       []string // optional column name overrides
	Select        *SelectStmt
	Declassifying []string // tag names the view declassifies
}

// CreateTriggerStmt is CREATE TRIGGER ... EXECUTE PROCEDURE proc. The
// procedure must be registered with the engine; if it was registered
// as a stored authority closure it runs with its bound authority
// (paper §5.2.3).
type CreateTriggerStmt struct {
	Text   string // original source, for WAL replay
	Name   string
	Timing string // "BEFORE", "AFTER"
	Event  string // "INSERT", "UPDATE", "DELETE"
	Table  string
	Proc   string
	// Deferred triggers run at commit with the label of the
	// originating query (paper §5.2.3).
	Deferred bool
}

func (*CreateTableStmt) stmt()   {}
func (*DropTableStmt) stmt()     {}
func (*CreateIndexStmt) stmt()   {}
func (*CreateViewStmt) stmt()    {}
func (*CreateTriggerStmt) stmt() {}

// ---------------------------------------------------------------------------
// Transactions

// BeginStmt starts a transaction.
type BeginStmt struct {
	Serializable bool
}

// CommitStmt commits.
type CommitStmt struct{}

// RollbackStmt aborts.
type RollbackStmt struct{}

func (*BeginStmt) stmt()    {}
func (*CommitStmt) stmt()   {}
func (*RollbackStmt) stmt() {}
