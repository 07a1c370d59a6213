package sqldb

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     *TableRef
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    *int64
	Offset   *int64
}

// SelectItem is one projection: an expression with an optional alias, or *.
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// JoinClause is "[INNER|LEFT] JOIN table [alias] ON cond".
type JoinClause struct {
	Kind  string // "inner" or "left"
	Table *TableRef
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// InsertStmt is "INSERT INTO table (cols...) VALUES (...), (...)".
type InsertStmt struct {
	Table string
	Cols  []string
	Rows  [][]Expr
}

// UpdateStmt is "UPDATE table SET col = expr, ... [WHERE cond]".
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where Expr
}

// SetClause is one assignment in UPDATE.
type SetClause struct {
	Col  string
	Expr Expr
}

// DeleteStmt is "DELETE FROM table [WHERE cond]".
type DeleteStmt struct {
	Table string
	Where Expr
}

// CreateTableStmt is "CREATE TABLE name (col type, ...)"; types are parsed
// but only recorded (storage is dynamically typed).
type CreateTableStmt struct {
	Table string
	Cols  []string
	Types []string
}

func (*SelectStmt) stmt()      {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*CreateTableStmt) stmt() {}

// Expr is any SQL expression node.
type Expr interface{ expr() }

// Literal is a constant: nil, bool, int64, float64 or string.
type Literal struct{ Value any }

// ColumnRef references a column, optionally table-qualified.
type ColumnRef struct {
	Table string // "" when unqualified
	Name  string

	// ws, src and data cache where the reference last resolved: source src
	// of working set ws, and the slice of the column it names. The rest of
	// the rows of ws skip resolution; the cache is valid for the single
	// statement execution that owns this AST.
	ws   *workingSet
	src  int
	data []any
}

// BinaryExpr applies Op to Left and Right. Op is upper-case: =, !=, <, <=,
// >, >=, +, -, *, /, %, AND, OR or LIKE.
type BinaryExpr struct {
	Op          string
	Left, Right Expr
}

// UnaryExpr applies Op ("-" or "NOT") to X.
type UnaryExpr struct {
	Op string
	X  Expr
}

// FuncCall calls an SQL function: COUNT, SUM, AVG, MIN, MAX, LENGTH, UPPER,
// LOWER, ABS, ROUND, SUBSTR, COALESCE. Star marks COUNT(*).
type FuncCall struct {
	Name     string
	Star     bool
	Distinct bool
	Args     []Expr
}

// InExpr is "x [NOT] IN (a, b, c)".
type InExpr struct {
	X      Expr
	Not    bool
	Values []Expr
}

// IsNullExpr is "x IS [NOT] NULL".
type IsNullExpr struct {
	X   Expr
	Not bool
}

// BetweenExpr is "x [NOT] BETWEEN lo AND hi".
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

// CaseExpr is "CASE WHEN cond THEN v ... [ELSE e] END".
type CaseExpr struct {
	Whens []WhenClause
	Else  Expr
}

// WhenClause is one WHEN/THEN arm of a CASE expression.
type WhenClause struct {
	Cond Expr
	Then Expr
}

func (*Literal) expr()     {}
func (*ColumnRef) expr()   {}
func (*BinaryExpr) expr()  {}
func (*UnaryExpr) expr()   {}
func (*FuncCall) expr()    {}
func (*InExpr) expr()      {}
func (*IsNullExpr) expr()  {}
func (*BetweenExpr) expr() {}
func (*CaseExpr) expr()    {}
