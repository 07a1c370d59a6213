package nql

import (
	"fmt"
	"sync"
)

// Node is any AST node; Line reports the 1-based source line for errors.
type Node interface{ Pos() int }

// Stmt is a statement node.
type Stmt interface {
	Node
	stmt()
}

// Expr is an expression node.
type Expr interface {
	Node
	expr()
}

type base struct{ Line int }

// Pos returns the node's source line.
func (b base) Pos() int { return b.Line }

// --- statements ---

// Program is a parsed NQL script. The bytecode form is compiled once on
// first execution (or via Compiled) and cached here, so programs shared
// through the sandbox's source-keyed cache compile exactly once no matter
// how many trials execute them. Apart from that cache, nothing writes a
// Program or its AST after Parse, so one may be shared across goroutines.
type Program struct {
	Stmts []Stmt

	// srcHash is the FNV-64a hash of the source text, stamped by Parse.
	// It names the program in observability surfaces (flight records,
	// diagnostic bundles) without carrying tenant source text around.
	srcHash uint64

	compileOnce sync.Once
	code        *Code
	compileErr  error
}

// Hash returns the FNV-64a hash of the program's source text (0 for a
// Program built by hand rather than by Parse).
func (p *Program) Hash() uint64 { return p.srcHash }

// HashString renders Hash as fixed-width hex — the program identity shown
// in flight records and bundles ("" when the hash is unset).
func (p *Program) HashString() string {
	if p.srcHash == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", p.srcHash)
}

// LetStmt declares a new variable in the current scope.
type LetStmt struct {
	base
	Name string
	Init Expr
}

// AssignStmt assigns to an existing variable, index or attribute target.
type AssignStmt struct {
	base
	Target Expr // *Ident, *IndexExpr or *AttrExpr
	Value  Expr
}

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct {
	base
	X Expr
}

// IfStmt is if/else-if/else.
type IfStmt struct {
	base
	Cond Expr
	Then []Stmt
	Else []Stmt // nil, or single IfStmt for else-if chains
}

// ForStmt iterates over a list, map (keys), or string (runes as 1-char
// strings).
type ForStmt struct {
	base
	Var  string
	Var2 string // optional second variable: "for k, v in map"
	Iter Expr
	Body []Stmt
}

// WhileStmt loops while the condition is truthy.
type WhileStmt struct {
	base
	Cond Expr
	Body []Stmt
}

// FuncStmt declares a named function.
type FuncStmt struct {
	base
	Name   string
	Params []string
	Body   []Stmt
}

// ReturnStmt returns from the enclosing function or ends the script with a
// result value.
type ReturnStmt struct {
	base
	Value Expr // may be nil
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ base }

// ContinueStmt skips to the next loop iteration.
type ContinueStmt struct{ base }

func (*LetStmt) stmt()      {}
func (*AssignStmt) stmt()   {}
func (*ExprStmt) stmt()     {}
func (*IfStmt) stmt()       {}
func (*ForStmt) stmt()      {}
func (*WhileStmt) stmt()    {}
func (*FuncStmt) stmt()     {}
func (*ReturnStmt) stmt()   {}
func (*BreakStmt) stmt()    {}
func (*ContinueStmt) stmt() {}

// --- expressions ---

// Ident references a variable by name.
type Ident struct {
	base
	Name string
}

// IntLit is an integer literal.
type IntLit struct {
	base
	Value int64
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	base
	Value float64
}

// StringLit is a string literal.
type StringLit struct {
	base
	Value string
}

// BoolLit is true/false.
type BoolLit struct {
	base
	Value bool
}

// NilLit is nil.
type NilLit struct{ base }

// ListLit is [a, b, c].
type ListLit struct {
	base
	Items []Expr
}

// MapLit is {"k": v, ...}; keys are arbitrary expressions.
type MapLit struct {
	base
	Keys   []Expr
	Values []Expr
}

// BinaryExpr applies Op: + - * / % == != < <= > >= and or in.
type BinaryExpr struct {
	base
	Op          string
	Left, Right Expr
}

// UnaryExpr applies "-" or "not".
type UnaryExpr struct {
	base
	Op string
	X  Expr
}

// IndexExpr is x[i].
type IndexExpr struct {
	base
	X     Expr
	Index Expr
}

// AttrExpr is x.name (member access).
type AttrExpr struct {
	base
	X    Expr
	Name string
}

// CallExpr is f(args) where Fn may be an Ident, AttrExpr (method call) or
// any callable expression.
type CallExpr struct {
	base
	Fn   Expr
	Args []Expr
}

// LambdaExpr is fn(params) => expr.
type LambdaExpr struct {
	base
	Params []string
	Body   Expr
}

func (*Ident) expr()      {}
func (*IntLit) expr()     {}
func (*FloatLit) expr()   {}
func (*StringLit) expr()  {}
func (*BoolLit) expr()    {}
func (*NilLit) expr()     {}
func (*ListLit) expr()    {}
func (*MapLit) expr()     {}
func (*BinaryExpr) expr() {}
func (*UnaryExpr) expr()  {}
func (*IndexExpr) expr()  {}
func (*AttrExpr) expr()   {}
func (*CallExpr) expr()   {}
func (*LambdaExpr) expr() {}
