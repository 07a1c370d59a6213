package nql

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// Limits bound a script's resource use inside the sandbox.
type Limits struct {
	MaxSteps    int           // evaluation steps (0 = default)
	MaxDepth    int           // call depth (0 = default)
	MaxAllocs   int           // container element allocations (0 = default)
	MaxDuration time.Duration // wall clock (0 = default)

	// Context, when non-nil, is polled at the interpreter's periodic
	// checkpoint (every 4096 steps, one dispatch quantum): a cancelled or
	// deadline-expired context aborts the run with an ErrCancel-class
	// error wrapping ctx.Err(). Its deadline also tightens the wall-clock
	// budget when sooner than MaxDuration. Host bindings that run long
	// operations (federated plans, SQL queries) read it via
	// Interp.Context and add their own checkpoints.
	Context context.Context

	// Profile, when non-nil, collects an opcode-class and builtin
	// time/alloc profile for the run (see VMProfile). Strictly opt-in:
	// a nil Profile costs the VM one predictable branch per instruction
	// and the tree-walker nothing.
	Profile *VMProfile
}

// DefaultLimits are generous enough for every benchmark query yet small
// enough that runaway generated code is cut off quickly.
var DefaultLimits = Limits{
	MaxSteps:    100_000_000,
	MaxDepth:    200,
	MaxAllocs:   50_000_000,
	MaxDuration: 30 * time.Second,
}

// Interp executes parsed NQL programs under resource limits. Engine
// selects the execution strategy: the default EngineVM compiles (once,
// cached on the Program) and runs bytecode; EngineInterp tree-walks the
// AST. Both engines share this struct's resource accounting, stdout
// capture and call dispatch, so builtins and host bindings are
// engine-agnostic.
type Interp struct {
	Engine ExecEngine

	host     map[string]Value // injected host globals (never mutated)
	xglobals map[string]Value // per-run global overrides from foreign-Code closures
	genv     *Env             // lazily built scope chain for the tree-walk engine
	m        *machine         // VM state, pooled; non-nil only during a VM run
	limits   Limits
	steps    int
	allocs   int
	depth    int
	deadline time.Time
	stdout   *strings.Builder
	// argPool recycles call-argument slices (LIFO). Callees — builtins,
	// host-object methods and closures — must not retain the args slice
	// beyond the call; they may retain its elements.
	argPool [][]Value
}

// getArgs returns a zeroed-length arg slice of length n, reusing a pooled
// backing array when one is large enough.
func (in *Interp) getArgs(n int) []Value {
	if k := len(in.argPool); k > 0 && cap(in.argPool[k-1]) >= n {
		s := in.argPool[k-1][:n]
		in.argPool = in.argPool[:k-1]
		return s
	}
	if n < 4 {
		return make([]Value, n, 4)
	}
	return make([]Value, n)
}

// putArgs returns a slice obtained from getArgs to the pool.
func (in *Interp) putArgs(s []Value) {
	for i := range s {
		s[i] = nil // drop references so finished values can be collected
	}
	in.argPool = append(in.argPool, s)
}

// NewInterp creates an interpreter with the standard builtins installed plus
// any extra globals (host objects like graph/db).
func NewInterp(limits Limits, globals map[string]Value) *Interp {
	if limits.MaxSteps == 0 {
		limits.MaxSteps = DefaultLimits.MaxSteps
	}
	if limits.MaxDepth == 0 {
		limits.MaxDepth = DefaultLimits.MaxDepth
	}
	if limits.MaxAllocs == 0 {
		limits.MaxAllocs = DefaultLimits.MaxAllocs
	}
	if limits.MaxDuration == 0 {
		limits.MaxDuration = DefaultLimits.MaxDuration
	}
	return &Interp{
		Engine: DefaultEngine,
		host:   globals,
		limits: limits,
		stdout: &strings.Builder{},
	}
}

// globalsEnv builds the tree-walk engine's host scope on first use; the VM
// resolves globals through slot tables instead and never pays for it.
func (in *Interp) globalsEnv() *Env {
	if in.genv == nil {
		in.genv = NewEnv(builtinEnv)
		for k, v := range in.host {
			in.genv.Define(k, v)
		}
	}
	return in.genv
}

// builtinEnv holds the standard library, installed once and shared by every
// interpreter as a frozen root scope. Builtins are stateless (per-run state
// arrives via the *Interp argument), so sharing is safe across goroutines;
// Env.Assign shadows instead of writing when a script rebinds a builtin.
var builtinEnv = func() *Env {
	e := NewEnv(nil)
	installBuiltins(e)
	e.frozen = true
	return e
}()

// Stdout returns everything print() wrote during the run.
func (in *Interp) Stdout() string { return in.stdout.String() }

// Steps returns the evaluation steps executed so far (one per VM
// instruction), the count charged against Limits.MaxSteps.
func (in *Interp) Steps() int { return in.steps }

// Run parses and executes src, returning the script's result: the value of
// a top-level `return`, or nil.
func (in *Interp) Run(src string) (Value, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return in.RunProgram(prog)
}

// RunProgram executes an already-parsed program on the configured engine.
func (in *Interp) RunProgram(prog *Program) (Value, error) {
	in.deadline = time.Now().Add(in.limits.MaxDuration)
	if in.limits.Context != nil {
		if dl, ok := in.limits.Context.Deadline(); ok && dl.Before(in.deadline) {
			in.deadline = dl
		}
	}
	if in.Engine == EngineVM {
		code, err := prog.Compiled()
		if err != nil {
			return nil, err
		}
		return in.runCode(code)
	}
	env := NewEnv(in.globalsEnv())
	res, err := in.execBlock(prog.Stmts, env)
	if err != nil {
		return nil, err
	}
	if res != nil && res.kind == ctlReturn {
		return res.value, nil
	}
	return nil, nil
}

// control signals flowing out of statement execution.
type ctlKind int

const (
	ctlReturn ctlKind = iota
	ctlBreak
	ctlContinue
)

type control struct {
	kind  ctlKind
	value Value
}

func (in *Interp) step(line int) error {
	in.steps++
	if in.steps > in.limits.MaxSteps {
		return errf(ErrLimit, line, "step budget exceeded (%d steps)", in.limits.MaxSteps)
	}
	if in.steps%4096 == 0 {
		return in.checkpoint(line)
	}
	return nil
}

// checkpoint is the periodic cooperative-cancellation and wall-clock test
// both engines run every 4096 steps (one dispatch quantum). Context
// cancellation is checked first so a cancelled request reports ErrCancel
// even when its context deadline also tightened the wall-clock budget.
func (in *Interp) checkpoint(line int) error {
	if in.limits.Context != nil {
		if cerr := in.limits.Context.Err(); cerr != nil {
			return cancelErr(line, cerr)
		}
	}
	if time.Now().After(in.deadline) {
		// When the context's own deadline tightened the wall-clock budget,
		// attribute the expiry to the context: its timer can lag the clock
		// by a scheduler tick, so ctx.Err() above may not have flipped yet.
		if in.limits.Context != nil {
			if dl, ok := in.limits.Context.Deadline(); ok && time.Now().After(dl) {
				return cancelErr(line, context.DeadlineExceeded)
			}
		}
		return errf(ErrLimit, line, "wall-clock budget exceeded")
	}
	return nil
}

// Context returns the host context configured in Limits (never nil): host
// bindings pass it to cancellable substrate operations so one request
// deadline covers the whole execution pipeline.
func (in *Interp) Context() context.Context {
	if in.limits.Context != nil {
		return in.limits.Context
	}
	return context.Background()
}

func (in *Interp) alloc(line, n int) error {
	in.allocs += n
	if in.allocs > in.limits.MaxAllocs {
		return errf(ErrLimit, line, "allocation budget exceeded")
	}
	return nil
}

func (in *Interp) execBlock(stmts []Stmt, env *Env) (*control, error) {
	for _, st := range stmts {
		ctl, err := in.execStmt(st, env)
		if err != nil {
			return nil, err
		}
		if ctl != nil {
			return ctl, nil
		}
	}
	return nil, nil
}

func (in *Interp) execStmt(st Stmt, env *Env) (*control, error) {
	if err := in.step(st.Pos()); err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *LetStmt:
		v, err := in.eval(s.Init, env)
		if err != nil {
			return nil, err
		}
		env.Define(s.Name, v)
		return nil, nil
	case *AssignStmt:
		return nil, in.assign(s, env)
	case *ExprStmt:
		_, err := in.eval(s.X, env)
		return nil, err
	case *IfStmt:
		cond, err := in.eval(s.Cond, env)
		if err != nil {
			return nil, err
		}
		if Truthy(cond) {
			return in.execBlock(s.Then, NewEnv(env))
		}
		if s.Else != nil {
			return in.execBlock(s.Else, NewEnv(env))
		}
		return nil, nil
	case *WhileStmt:
		for {
			cond, err := in.eval(s.Cond, env)
			if err != nil {
				return nil, err
			}
			if !Truthy(cond) {
				return nil, nil
			}
			ctl, err := in.execBlock(s.Body, NewEnv(env))
			if err != nil {
				return nil, err
			}
			if ctl != nil {
				switch ctl.kind {
				case ctlBreak:
					return nil, nil
				case ctlReturn:
					return ctl, nil
				}
			}
			if err := in.step(s.Line); err != nil {
				return nil, err
			}
		}
	case *ForStmt:
		iter, err := in.eval(s.Iter, env)
		if err != nil {
			return nil, err
		}
		items, seconds, err := iterate(iter, s.Line, s.Var2 != "")
		if err != nil {
			return nil, err
		}
		for i, item := range items {
			loopEnv := NewEnv(env)
			loopEnv.Define(s.Var, item)
			if s.Var2 != "" {
				loopEnv.Define(s.Var2, seconds[i])
			}
			ctl, err := in.execBlock(s.Body, loopEnv)
			if err != nil {
				return nil, err
			}
			if ctl != nil {
				switch ctl.kind {
				case ctlBreak:
					return nil, nil
				case ctlReturn:
					return ctl, nil
				}
			}
			if err := in.step(s.Line); err != nil {
				return nil, err
			}
		}
		return nil, nil
	case *FuncStmt:
		env.Define(s.Name, &Closure{Name: s.Name, Params: s.Params, Body: s.Body, Env: env})
		return nil, nil
	case *ReturnStmt:
		var v Value
		if s.Value != nil {
			var err error
			v, err = in.eval(s.Value, env)
			if err != nil {
				return nil, err
			}
		}
		return &control{kind: ctlReturn, value: v}, nil
	case *BreakStmt:
		return &control{kind: ctlBreak}, nil
	case *ContinueStmt:
		return &control{kind: ctlContinue}, nil
	default:
		return nil, errf(ErrInternal, st.Pos(), "unknown statement %T", st)
	}
}

// iterate expands an iterable into items (and parallel second values when
// two loop variables are used: map yields key/value, list-of-pairs yields
// pair elements).
func iterate(v Value, line int, wantPairs bool) (items, seconds []Value, err error) {
	switch x := v.(type) {
	case *List:
		if wantPairs {
			for _, it := range x.Items {
				pair, ok := it.(*List)
				if !ok || len(pair.Items) != 2 {
					return nil, nil, errf(ErrOp, line, "two-variable for over a list requires [a, b] pairs, got %s", TypeName(it))
				}
				items = append(items, pair.Items[0])
				seconds = append(seconds, pair.Items[1])
			}
			return items, seconds, nil
		}
		return append([]Value(nil), x.Items...), nil, nil
	case *Map:
		if wantPairs {
			return x.Keys(), x.Values(), nil
		}
		return x.Keys(), nil, nil
	case string:
		for _, r := range x {
			items = append(items, string(r))
		}
		if wantPairs {
			return nil, nil, errf(ErrOp, line, "cannot unpack string iteration into two variables")
		}
		return items, nil, nil
	default:
		return nil, nil, errf(ErrOp, line, "value of type %s is not iterable", TypeName(v))
	}
}

func (in *Interp) assign(s *AssignStmt, env *Env) error {
	v, err := in.eval(s.Value, env)
	if err != nil {
		return err
	}
	switch target := s.Target.(type) {
	case *Ident:
		if !env.Assign(target.Name, v) {
			return errf(ErrName, s.Line, "cannot assign to undefined variable %q (use let)", target.Name)
		}
		return nil
	case *IndexExpr:
		container, err := in.eval(target.X, env)
		if err != nil {
			return err
		}
		idx, err := in.eval(target.Index, env)
		if err != nil {
			return err
		}
		return setIndex(container, idx, v, s.Line)
	case *AttrExpr:
		container, err := in.eval(target.X, env)
		if err != nil {
			return err
		}
		if setter, ok := container.(AttrSettable); ok {
			return setter.SetMember(target.Name, v, s.Line)
		}
		return errf(ErrOp, s.Line, "cannot assign attribute %q on %s", target.Name, TypeName(container))
	default:
		return errf(ErrInternal, s.Line, "bad assignment target %T", s.Target)
	}
}

// AttrSettable is implemented by host objects that allow `obj.name = v`.
type AttrSettable interface {
	SetMember(name string, v Value, line int) error
}

func setIndex(container, idx, v Value, line int) error {
	switch c := container.(type) {
	case *List:
		i, ok := idx.(int64)
		if !ok {
			return errf(ErrIndex, line, "list index must be int, got %s", TypeName(idx))
		}
		j := int(i)
		if j < 0 {
			j += len(c.Items)
		}
		if j < 0 || j >= len(c.Items) {
			return errf(ErrIndex, line, "list index %d out of range (len %d)", i, len(c.Items))
		}
		c.Items[j] = v
		return nil
	case *Map:
		if err := c.Set(idx, v); err != nil {
			return errf(ErrIndex, line, "%s", err)
		}
		return nil
	case IndexSettable:
		return c.SetIndex(idx, v, line)
	default:
		return errf(ErrOp, line, "cannot index-assign into %s", TypeName(container))
	}
}

// IndexSettable is implemented by host objects that allow `obj[k] = v`.
type IndexSettable interface {
	SetIndex(idx, v Value, line int) error
}

// Indexable is implemented by host objects that allow `obj[k]`.
type Indexable interface {
	Index(idx Value, line int) (Value, error)
}

func (in *Interp) eval(e Expr, env *Env) (Value, error) {
	if err := in.step(e.Pos()); err != nil {
		return nil, err
	}
	switch x := e.(type) {
	case *IntLit:
		if x.box != nil {
			return x.box, nil
		}
		return x.Value, nil
	case *FloatLit:
		if x.box != nil {
			return x.box, nil
		}
		return x.Value, nil
	case *StringLit:
		if x.box != nil {
			return x.box, nil
		}
		return x.Value, nil
	case *BoolLit:
		return x.Value, nil
	case *NilLit:
		return nil, nil
	case *Ident:
		v, ok := env.Get(x.Name)
		if !ok {
			return nil, errf(ErrName, x.Line, "undefined name %q", x.Name)
		}
		return v, nil
	case *ListLit:
		if err := in.alloc(x.Line, len(x.Items)); err != nil {
			return nil, err
		}
		items := make([]Value, len(x.Items))
		for i, it := range x.Items {
			v, err := in.eval(it, env)
			if err != nil {
				return nil, err
			}
			items[i] = v
		}
		return &List{Items: items}, nil
	case *MapLit:
		if err := in.alloc(x.Line, len(x.Keys)); err != nil {
			return nil, err
		}
		m := NewMap()
		for i := range x.Keys {
			k, err := in.eval(x.Keys[i], env)
			if err != nil {
				return nil, err
			}
			v, err := in.eval(x.Values[i], env)
			if err != nil {
				return nil, err
			}
			if err := m.Set(k, v); err != nil {
				return nil, errf(ErrIndex, x.Line, "%s", err)
			}
		}
		return m, nil
	case *UnaryExpr:
		v, err := in.eval(x.X, env)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			switch n := v.(type) {
			case int64:
				return -n, nil
			case float64:
				return -n, nil
			default:
				return nil, errf(ErrOp, x.Line, "cannot negate %s", TypeName(v))
			}
		case "not":
			return !Truthy(v), nil
		}
		return nil, errf(ErrInternal, x.Line, "unknown unary op %q", x.Op)
	case *BinaryExpr:
		return in.evalBinary(x, env)
	case *IndexExpr:
		return in.evalIndex(x, env)
	case *AttrExpr:
		v, err := in.eval(x.X, env)
		if err != nil {
			return nil, err
		}
		return memberOf(v, x.Name, x.Line)
	case *LambdaExpr:
		return &Closure{Params: x.Params, Expr: x.Body, Env: env, lambda: x}, nil
	case *CallExpr:
		fn, err := in.eval(x.Fn, env)
		if err != nil {
			return nil, err
		}
		args := in.getArgs(len(x.Args))
		for i, a := range x.Args {
			v, err := in.eval(a, env)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		v, err := in.Call(fn, args, x.Line)
		in.putArgs(args)
		return v, err
	default:
		return nil, errf(ErrInternal, e.Pos(), "unknown expression %T", e)
	}
}

// memberOf resolves `v.name`: host objects dispatch through Member; maps
// allow dot-lookup of string keys (matching attribute-dict ergonomics);
// lists and strings expose no members.
func memberOf(v Value, name string, line int) (Value, error) {
	switch x := v.(type) {
	case Object:
		m, ok := x.Member(name)
		if !ok {
			return nil, errf(ErrAttr, line, "%s has no attribute %q", x.TypeName(), name)
		}
		return m, nil
	case *Map:
		if mv, ok := x.Get(name); ok {
			return mv, nil
		}
		return nil, errf(ErrAttr, line, "map has no key %q", name)
	default:
		return nil, errf(ErrAttr, line, "%s has no attribute %q", TypeName(v), name)
	}
}

// Call invokes a callable value with the given arguments. Compiled
// closures are dispatched onto the VM; everything else tree-walks.
func (in *Interp) Call(fn Value, args []Value, line int) (Value, error) {
	if f, ok := fn.(*Closure); ok && f.proto != nil {
		return in.vmCall(f, args, line)
	}
	in.depth++
	defer func() { in.depth-- }()
	if in.depth > in.limits.MaxDepth {
		return nil, errf(ErrLimit, line, "call depth exceeded (%d)", in.limits.MaxDepth)
	}
	switch f := fn.(type) {
	case *Builtin:
		if p := in.limits.Profile; p != nil {
			t0 := time.Now()
			a0 := in.allocs
			v, err := f.Fn(in, line, args)
			p.noteBuiltin(f.Name, time.Since(t0), in.allocs-a0)
			return v, err
		}
		return f.Fn(in, line, args)
	case *Closure:
		if len(args) != len(f.Params) {
			name := f.Name
			if name == "" {
				name = "<lambda>"
			}
			return nil, errf(ErrArg, line, "%s takes %d argument(s), got %d", name, len(f.Params), len(args))
		}
		env := NewEnv(f.Env)
		for i, p := range f.Params {
			env.Define(p, args[i])
		}
		if f.Expr != nil { // lambda
			return in.eval(f.Expr, env)
		}
		ctl, err := in.execBlock(f.Body, env)
		if err != nil {
			return nil, err
		}
		if ctl != nil && ctl.kind == ctlReturn {
			return ctl.value, nil
		}
		return nil, nil
	default:
		return nil, errf(ErrOp, line, "%s is not callable", TypeName(fn))
	}
}

func (in *Interp) evalIndex(x *IndexExpr, env *Env) (Value, error) {
	container, err := in.eval(x.X, env)
	if err != nil {
		return nil, err
	}
	idx, err := in.eval(x.Index, env)
	if err != nil {
		return nil, err
	}
	return indexValue(container, idx, x.Line)
}

// indexValue implements `container[idx]` for both engines.
func indexValue(container, idx Value, line int) (Value, error) {
	switch c := container.(type) {
	case *List:
		i, ok := idx.(int64)
		if !ok {
			return nil, errf(ErrIndex, line, "list index must be int, got %s", TypeName(idx))
		}
		j := int(i)
		if j < 0 {
			j += len(c.Items)
		}
		if j < 0 || j >= len(c.Items) {
			return nil, errf(ErrIndex, line, "list index %d out of range (len %d)", i, len(c.Items))
		}
		return c.Items[j], nil
	case *Map:
		v, ok := c.Get(idx)
		if !ok {
			return nil, errf(ErrIndex, line, "map has no key %s", Repr(idx))
		}
		return v, nil
	case string:
		i, ok := idx.(int64)
		if !ok {
			return nil, errf(ErrIndex, line, "string index must be int, got %s", TypeName(idx))
		}
		j := int(i)
		if j < 0 {
			j += len(c)
		}
		if j < 0 || j >= len(c) {
			return nil, errf(ErrIndex, line, "string index %d out of range (len %d)", i, len(c))
		}
		return string(c[j]), nil
	case Indexable:
		return c.Index(idx, line)
	default:
		return nil, errf(ErrOp, line, "value of type %s is not indexable", TypeName(container))
	}
}

func (in *Interp) evalBinary(x *BinaryExpr, env *Env) (Value, error) {
	// Short-circuit logic.
	if x.Op == "and" || x.Op == "or" {
		l, err := in.eval(x.Left, env)
		if err != nil {
			return nil, err
		}
		if x.Op == "and" && !Truthy(l) {
			return false, nil
		}
		if x.Op == "or" && Truthy(l) {
			return true, nil
		}
		r, err := in.eval(x.Right, env)
		if err != nil {
			return nil, err
		}
		return Truthy(r), nil
	}
	l, err := in.eval(x.Left, env)
	if err != nil {
		return nil, err
	}
	r, err := in.eval(x.Right, env)
	if err != nil {
		return nil, err
	}
	return binaryOp(x.Op, l, r, x.Line)
}

func binaryOp(op string, l, r Value, line int) (Value, error) {
	switch op {
	case "==":
		return ValuesEqual(l, r), nil
	case "!=":
		return !ValuesEqual(l, r), nil
	case "in":
		return containsValue(r, l, line)
	case "<", "<=", ">", ">=":
		cmp, err := CompareNQL(l, r)
		if err != nil {
			return nil, errf(ErrOp, line, "%s", err)
		}
		switch op {
		case "<":
			return cmp < 0, nil
		case "<=":
			return cmp <= 0, nil
		case ">":
			return cmp > 0, nil
		default:
			return cmp >= 0, nil
		}
	case "+":
		if ls, ok := l.(string); ok {
			if rs, ok := r.(string); ok {
				return ls + rs, nil
			}
			return nil, errf(ErrOp, line, "cannot add string and %s (use str())", TypeName(r))
		}
		if ll, ok := l.(*List); ok {
			if rl, ok := r.(*List); ok {
				items := make([]Value, 0, len(ll.Items)+len(rl.Items))
				items = append(items, ll.Items...)
				items = append(items, rl.Items...)
				return &List{Items: items}, nil
			}
			return nil, errf(ErrOp, line, "cannot add list and %s", TypeName(r))
		}
		return numericOp(op, l, r, line)
	case "-", "*", "/", "%":
		return numericOp(op, l, r, line)
	default:
		return nil, errf(ErrInternal, line, "unknown operator %q", op)
	}
}

func numericOp(op string, l, r Value, line int) (Value, error) {
	lf, lInt, lok := asNumber(l)
	rf, rInt, rok := asNumber(r)
	if !lok || !rok {
		return nil, errf(ErrOp, line, "unsupported operand types for %s: %s and %s", op, TypeName(l), TypeName(r))
	}
	bothInt := lInt && rInt
	switch op {
	case "+":
		if bothInt {
			return int64(lf) + int64(rf), nil
		}
		return lf + rf, nil
	case "-":
		if bothInt {
			return int64(lf) - int64(rf), nil
		}
		return lf - rf, nil
	case "*":
		if bothInt {
			return int64(lf) * int64(rf), nil
		}
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return nil, errf(ErrValue, line, "division by zero")
		}
		return lf / rf, nil
	case "%":
		if !bothInt {
			return nil, errf(ErrOp, line, "%% requires integers")
		}
		if int64(rf) == 0 {
			return nil, errf(ErrValue, line, "modulo by zero")
		}
		return int64(lf) % int64(rf), nil
	}
	return nil, errf(ErrInternal, line, "unknown numeric op %q", op)
}

func asNumber(v Value) (f float64, isInt, ok bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true, true
	case float64:
		return x, false, true
	case bool:
		if x {
			return 1, true, true
		}
		return 0, true, true
	default:
		return 0, false, false
	}
}

// ValuesEqual implements NQL ==: numbers compare across int/float; lists
// and maps compare deeply; other types require identical kind.
func ValuesEqual(l, r Value) bool {
	switch a := l.(type) {
	case nil:
		return r == nil
	case bool:
		b, ok := r.(bool)
		return ok && a == b
	case int64:
		switch b := r.(type) {
		case int64:
			return a == b
		case float64:
			return float64(a) == b
		}
		return false
	case float64:
		switch b := r.(type) {
		case int64:
			return a == float64(b)
		case float64:
			return a == b
		}
		return false
	case string:
		b, ok := r.(string)
		return ok && a == b
	case *List:
		b, ok := r.(*List)
		if !ok || len(a.Items) != len(b.Items) {
			return false
		}
		for i := range a.Items {
			if !ValuesEqual(a.Items[i], b.Items[i]) {
				return false
			}
		}
		return true
	case *Map:
		b, ok := r.(*Map)
		if !ok || a.Len() != b.Len() {
			return false
		}
		for i, k := range a.keys {
			bv, ok := b.Get(k)
			if !ok || !ValuesEqual(a.vals[i], bv) {
				return false
			}
		}
		return true
	default:
		return l == r
	}
}

// CompareNQL orders two values for <, sorted() etc. Numbers interoperate;
// strings compare lexicographically; lists compare elementwise.
func CompareNQL(l, r Value) (int, error) {
	lf, _, lok := asNumber(l)
	rf, _, rok := asNumber(r)
	if lok && rok {
		switch {
		case lf < rf:
			return -1, nil
		case lf > rf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if ls, ok := l.(string); ok {
		if rs, ok := r.(string); ok {
			return strings.Compare(ls, rs), nil
		}
	}
	if ll, ok := l.(*List); ok {
		if rl, ok := r.(*List); ok {
			for i := 0; i < len(ll.Items) && i < len(rl.Items); i++ {
				c, err := CompareNQL(ll.Items[i], rl.Items[i])
				if err != nil {
					return 0, err
				}
				if c != 0 {
					return c, nil
				}
			}
			return len(ll.Items) - len(rl.Items), nil
		}
	}
	return 0, fmt.Errorf("cannot compare %s and %s", TypeName(l), TypeName(r))
}

func containsValue(container, item Value, line int) (Value, error) {
	switch c := container.(type) {
	case *List:
		for _, it := range c.Items {
			if ValuesEqual(it, item) {
				return true, nil
			}
		}
		return false, nil
	case *Map:
		_, ok := c.Get(item)
		return ok, nil
	case string:
		s, ok := item.(string)
		if !ok {
			return nil, errf(ErrOp, line, "'in <string>' requires a string operand, got %s", TypeName(item))
		}
		return strings.Contains(c, s), nil
	default:
		return nil, errf(ErrOp, line, "'in' not supported for %s", TypeName(container))
	}
}
