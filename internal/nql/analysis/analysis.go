// Package analysis is the NQL semantic analyzer: a static pass over the
// parsed AST that finds the failures a program is guaranteed (or very
// likely) to hit at runtime, before anything pays to execute it. It is
// the prepare step of the parse → prepare → execute pipeline: the sandbox
// caches its diagnostics next to the compiled program (sandbox.Vet),
// netqueryd rejects error-bearing programs before admission control
// spends tenant quota, and nqlvet runs it over the golden-program registry
// in CI. It is read-only: the AST it walks may be shared, through the
// sandbox cache, with concurrent executions.
//
// # Rule catalogue
//
// Errors (the program will fail at runtime if the flagged code runs):
//
//	NQ001  syntax error (reported by callers that wrap the parser)
//	NQ100  undefined name — resolves to no binding, builtin, or host global
//	NQ101  assignment to an undeclared name
//	NQ200  wrong argument count for a builtin or known function
//	NQ201  call of a value that is provably not callable
//	NQ210  builtin argument has a provably wrong type
//	NQ300  operator applied to provably incompatible operand types
//	NQ301  division or modulo by a constant zero
//	NQ302  provably invalid index, map key, or attribute access
//
// Warnings (suspicious but not definitely fatal; the eval matrix treats
// every diagnostic as a warning so its tables stay byte-identical):
//
//	NQ102  unused binding
//	NQ103  binding shadows an earlier binding or a builtin
//	NQ110  duplicate parameter name
//	NQ400  unreachable statement
//	NQ401  break/continue outside any loop (ends the function)
//	NQ402  pure expression statement whose result is discarded
//	NQ403  duplicate key in a map literal
//
// Name-resolution rules fire only when the caller supplies the host
// global surface (Options.Globals): without it a free name might be a
// legitimate host binding. Everything else is surface-independent.
//
// # Type lattice
//
// Forward inference runs over a small lattice: any ⊐ {nil, bool, int,
// float, num, str, list, map, func, frame, graph, object}, with num the
// join of int and float. Precision is deliberately conservative — a
// binding keeps its initializer's type only when no assignment anywhere
// in the program reassigns that name, so every reported type is a proof,
// and every type-based error diagnostic is a guaranteed runtime failure
// (should the code execute; code behind a never-true branch is still
// flagged, the same trade every prepare-time checker makes).
//
// # Effects
//
// Alongside types the analyzer tracks, per expression, whether it is pure
// (no print, no mutation, no call of anything but provably-pure builtins)
// and total (cannot fail). The only consumer is NQ402: an expression
// statement that is both has no observable effect, so its result being
// discarded is a mistake. Totality excludes the sandbox's own resource
// budget (step, allocation, wall-clock and cancellation limits), which is
// accounted to the run as a whole.
package analysis

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/nql"
)

// Severity grades a diagnostic.
type Severity int

// Diagnostic severities.
const (
	Warn Severity = iota
	Error
)

// String names the severity for rendering.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// MarshalJSON renders severities as their names ("error", "warning") so
// API responses are self-describing rather than exposing enum ordinals.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON accepts the names MarshalJSON produces.
func (s *Severity) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"error"`:
		*s = Error
	case `"warning"`:
		*s = Warn
	default:
		return fmt.Errorf("analysis: unknown severity %s", b)
	}
	return nil
}

// Diagnostic is one analyzer finding, positioned by source line.
type Diagnostic struct {
	Line     int      `json:"line"`
	Severity Severity `json:"severity"`
	Code     string   `json:"code"`
	Message  string   `json:"message"`
}

// / String renders "line N: error[NQ100] message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("line %d: %s[%s] %s", d.Line, d.Severity, d.Code, d.Message)
}

// SyntaxDiagnostic renders a parse failure as the NQ001 diagnostic, so
// callers that vet source text can report syntax and semantic findings
// through one channel.
func SyntaxDiagnostic(err error) Diagnostic {
	line := 0
	var se *nql.SyntaxError
	if errors.As(err, &se) {
		line = se.Line
	}
	return Diagnostic{Line: line, Severity: Error, Code: "NQ001", Message: err.Error()}
}

// HasErrors reports whether any diagnostic is error-severity.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Options configures an analysis pass.
type Options struct {
	// Globals is the host binding surface the program will run against,
	// with the static type of each binding (TAny when unknown). nil means
	// "surface unknown": name-resolution rules (NQ100, NQ101) are
	// suppressed, everything else still runs.
	Globals map[string]Type
}

// Analyze runs the semantic analyzer over a parsed program and returns
// its diagnostics ordered by line. It does not modify prog, so analyzing
// a program already shared through the sandbox cache is safe.
func Analyze(prog *nql.Program, opts Options) []Diagnostic {
	a := newAnalyzer(opts.Globals, false)
	a.run(prog)
	sort.SliceStable(a.diags, func(i, j int) bool { return a.diags[i].Line < a.diags[j].Line })
	return a.diags
}

// CheckNames runs only the name-resolution rules (NQ100, NQ101) against a
// concrete host surface. It is the cheap per-surface complement to a
// cached surface-independent Analyze: netqueryd vets each request's
// program against its backend's globals without re-deriving anything
// else.
func CheckNames(prog *nql.Program, globals map[string]Type) []Diagnostic {
	a := newAnalyzer(globals, true)
	a.run(prog)
	sort.SliceStable(a.diags, func(i, j int) bool { return a.diags[i].Line < a.diags[j].Line })
	return a.diags
}

func newAnalyzer(globals map[string]Type, namesOnly bool) *analyzer {
	return &analyzer{
		globals:    globals,
		namesOnly:  namesOnly,
		reassigned: map[string]bool{},
		topDecls:   map[string]bool{},
	}
}

func (a *analyzer) run(prog *nql.Program) {
	a.prepass(prog.Stmts)
	a.pushScope(true)
	a.stmts(prog.Stmts)
	a.popScope()
}

// --- analyzer state ------------------------------------------------------

// binding is one declared name in scope.
type binding struct {
	name   string
	line   int
	kind   string // "let", "func", "param", "loop variable"
	typ    Type
	params int // parameter count for func-valued bindings, -1 unknown
	used   bool
}

// scope is one lexical block; fn marks function boundaries (the block
// holding the parameters).
type scope struct {
	fn    bool
	binds []*binding
}

// eff tracks purity/totality through expression checking.
type eff struct{ pure, total bool }

func (e eff) and(o eff) eff { return eff{e.pure && o.pure, e.total && o.total} }

var (
	pureTotal   = eff{pure: true, total: true}
	purePartial = eff{pure: true, total: false}
	opaque      = eff{pure: false, total: false}
)

type analyzer struct {
	diags     []Diagnostic
	globals   map[string]Type
	namesOnly bool // CheckNames mode: only NQ100/NQ101

	// reassigned holds every name that is the target of an assignment
	// anywhere in the program (collected by prepass, keyed by name alone):
	// such names never keep a precise type or builtin identity.
	reassigned map[string]bool
	// topDecls holds names declared by top-level let/func statements:
	// inside function bodies these resolve at call time, so a textually
	// later declaration is not an undefined reference.
	topDecls map[string]bool

	scopes    []*scope
	inFunc    int // nesting depth of function/lambda bodies
	loopDepth int
}

func (a *analyzer) report(line int, sev Severity, code, format string, args ...any) {
	if a.namesOnly && code != "NQ100" && code != "NQ101" {
		return
	}
	a.diags = append(a.diags, Diagnostic{Line: line, Severity: sev, Code: code,
		Message: fmt.Sprintf(format, args...)})
}

func (a *analyzer) pushScope(fn bool) { a.scopes = append(a.scopes, &scope{fn: fn}) }

func (a *analyzer) popScope() {
	s := a.scopes[len(a.scopes)-1]
	a.scopes = a.scopes[:len(a.scopes)-1]
	for _, b := range s.binds {
		if !b.used && (b.kind == "let" || b.kind == "func") && b.name != "_" {
			a.report(b.line, Warn, "NQ102", "%s binding %q is never used", b.kind, b.name)
		}
	}
}

// declare adds a binding to the innermost scope, warning when it shadows
// an earlier binding or a builtin.
func (a *analyzer) declare(b *binding) {
	// Parameters are exempt from shadow warnings: naming a lambda's
	// parameter after the value it maps over is idiomatic, not a hazard.
	if b.kind != "param" {
		if prev := a.lookup(b.name); prev != nil {
			a.report(b.line, Warn, "NQ103", "%q shadows the %s declared on line %d", b.name, prev.kind, prev.line)
		} else if _, isBuiltin := builtinSpecs[b.name]; isBuiltin {
			a.report(b.line, Warn, "NQ103", "%q shadows the builtin of the same name", b.name)
		}
	}
	s := a.scopes[len(a.scopes)-1]
	s.binds = append(s.binds, b)
}

// lookup resolves a name lexically, latest declaration first, crossing
// function boundaries (closures capture their enclosing scopes in both
// engines).
func (a *analyzer) lookup(name string) *binding {
	for i := len(a.scopes) - 1; i >= 0; i-- {
		binds := a.scopes[i].binds
		for j := len(binds) - 1; j >= 0; j-- {
			if binds[j].name == name {
				return binds[j]
			}
		}
	}
	return nil
}

// prepass collects assignment targets and top-level declarations before
// the main walk; both are name-keyed and deliberately scope-blind, which
// only ever costs precision, never soundness.
func (a *analyzer) prepass(stmts []nql.Stmt) {
	for _, st := range stmts {
		if l, ok := st.(*nql.LetStmt); ok {
			a.topDecls[l.Name] = true
		}
		if f, ok := st.(*nql.FuncStmt); ok {
			a.topDecls[f.Name] = true
		}
	}
	var walkStmts func([]nql.Stmt)
	var walkExpr func(nql.Expr)
	walkStmts = func(ss []nql.Stmt) {
		for _, st := range ss {
			switch s := st.(type) {
			case *nql.LetStmt:
				walkExpr(s.Init)
			case *nql.AssignStmt:
				if id, ok := s.Target.(*nql.Ident); ok {
					a.reassigned[id.Name] = true
				} else {
					walkExpr(s.Target)
				}
				walkExpr(s.Value)
			case *nql.ExprStmt:
				walkExpr(s.X)
			case *nql.IfStmt:
				walkExpr(s.Cond)
				walkStmts(s.Then)
				walkStmts(s.Else)
			case *nql.ForStmt:
				walkExpr(s.Iter)
				walkStmts(s.Body)
			case *nql.WhileStmt:
				walkExpr(s.Cond)
				walkStmts(s.Body)
			case *nql.FuncStmt:
				walkStmts(s.Body)
			case *nql.ReturnStmt:
				if s.Value != nil {
					walkExpr(s.Value)
				}
			}
		}
	}
	walkExpr = func(e nql.Expr) {
		switch x := e.(type) {
		case *nql.ListLit:
			for _, it := range x.Items {
				walkExpr(it)
			}
		case *nql.MapLit:
			for i := range x.Keys {
				walkExpr(x.Keys[i])
				walkExpr(x.Values[i])
			}
		case *nql.BinaryExpr:
			walkExpr(x.Left)
			walkExpr(x.Right)
		case *nql.UnaryExpr:
			walkExpr(x.X)
		case *nql.IndexExpr:
			walkExpr(x.X)
			walkExpr(x.Index)
		case *nql.AttrExpr:
			walkExpr(x.X)
		case *nql.CallExpr:
			walkExpr(x.Fn)
			for _, arg := range x.Args {
				walkExpr(arg)
			}
		case *nql.LambdaExpr:
			walkExpr(x.Body)
		}
	}
	walkStmts(stmts)
}

// --- statements ----------------------------------------------------------

func (a *analyzer) block(stmts []nql.Stmt) {
	a.pushScope(false)
	a.stmts(stmts)
	a.popScope()
}

func (a *analyzer) stmts(stmts []nql.Stmt) {
	terminated := false
	for _, st := range stmts {
		if terminated {
			a.report(st.Pos(), Warn, "NQ400", "unreachable statement")
			terminated = false // one report per dead region
		}
		a.stmt(st)
		switch st.(type) {
		case *nql.ReturnStmt, *nql.BreakStmt, *nql.ContinueStmt:
			terminated = true
		}
	}
}

func (a *analyzer) stmt(st nql.Stmt) {
	switch s := st.(type) {
	case *nql.LetStmt:
		t, _ := a.expr(s.Init)
		b := &binding{name: s.Name, line: s.Line, kind: "let", typ: TAny, params: -1}
		if !a.reassigned[s.Name] {
			b.typ = t
			if lam, ok := s.Init.(*nql.LambdaExpr); ok {
				b.params = len(lam.Params)
			}
		}
		a.declare(b)
	case *nql.AssignStmt:
		a.expr(s.Value)
		switch t := s.Target.(type) {
		case *nql.Ident:
			if b := a.lookup(t.Name); b != nil {
				_ = b // rebinding a declared name; typ already widened by prepass
				return
			}
			// Assignment to a free name stores to a global, which must
			// already be bound (a host binding, or a top-level declaration
			// executed before this statement runs — always true for code
			// inside functions, never for textually-earlier top-level code).
			if a.globals == nil {
				return
			}
			if _, ok := a.globals[t.Name]; ok {
				return
			}
			if a.inFunc > 0 && a.topDecls[t.Name] {
				return
			}
			a.report(t.Line, Error, "NQ101", "assignment to undeclared name %q (use let)", t.Name)
		default:
			a.expr(s.Target)
		}
	case *nql.ExprStmt:
		_, e := a.expr(s.X)
		if e.pure && e.total {
			a.report(s.Line, Warn, "NQ402", "expression result is never used")
		}
	case *nql.IfStmt:
		a.expr(s.Cond)
		a.block(s.Then)
		if s.Else != nil {
			a.block(s.Else)
		}
	case *nql.ForStmt:
		t, _ := a.expr(s.Iter)
		switch t {
		case TNil, TBool, TInt, TFloat, TNum, TFunc:
			a.report(s.Line, Error, "NQ300", "cannot iterate over %s", t)
		case TStr:
			if s.Var2 != "" {
				a.report(s.Line, Error, "NQ300", "cannot unpack string iteration into two variables")
			}
		}
		a.pushScope(false)
		vt := TAny
		if t == TStr && !a.reassigned[s.Var] {
			vt = TStr
		}
		a.declare(&binding{name: s.Var, line: s.Line, kind: "loop variable", typ: vt, params: -1, used: true})
		if s.Var2 != "" {
			a.declare(&binding{name: s.Var2, line: s.Line, kind: "loop variable", typ: TAny, params: -1, used: true})
		}
		a.loopDepth++
		a.stmts(s.Body)
		a.loopDepth--
		a.popScope()
	case *nql.WhileStmt:
		a.expr(s.Cond)
		a.loopDepth++
		a.block(s.Body)
		a.loopDepth--
	case *nql.FuncStmt:
		// Declare before the body: recursion resolves the name at call
		// time, when the declaration has already executed.
		fb := &binding{name: s.Name, line: s.Line, kind: "func", typ: TAny, params: -1}
		if !a.reassigned[s.Name] {
			fb.typ, fb.params = TFunc, len(s.Params)
		}
		a.declare(fb)
		a.analyzeFunction(s.Params, s.Body, nil, s.Line)
	case *nql.ReturnStmt:
		if s.Value != nil {
			a.expr(s.Value)
		}
	case *nql.BreakStmt:
		if a.loopDepth == 0 {
			a.report(s.Line, Warn, "NQ401", "break outside a loop ends the function")
		}
	case *nql.ContinueStmt:
		if a.loopDepth == 0 {
			a.report(s.Line, Warn, "NQ401", "continue outside a loop ends the function")
		}
	}
}

// analyzeFunction checks a function body (body) or lambda body (expr) in
// a fresh function scope. Parameters are untyped: any caller may pass
// anything.
func (a *analyzer) analyzeFunction(params []string, body []nql.Stmt, expr nql.Expr, line int) {
	a.pushScope(true)
	seen := map[string]bool{}
	for _, p := range params {
		if seen[p] {
			a.report(line, Warn, "NQ110", "duplicate parameter %q", p)
		}
		seen[p] = true
		a.declare(&binding{name: p, line: line, kind: "param", typ: TAny, params: -1, used: true})
	}
	a.inFunc++
	savedLoops := a.loopDepth
	a.loopDepth = 0
	if expr != nil {
		a.expr(expr)
	} else {
		a.stmts(body)
	}
	a.loopDepth = savedLoops
	a.inFunc--
	a.popScope()
}
