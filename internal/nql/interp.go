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

	// Context, when non-nil, is polled at the VM's periodic checkpoint
	// (every 4096 steps, one dispatch quantum): a cancelled or
	// deadline-expired context aborts the run with an ErrCancel-class
	// error wrapping ctx.Err(). Its deadline also tightens the wall-clock
	// budget when sooner than MaxDuration. Host bindings that run long
	// operations (federated plans, SQL queries) read it via
	// Interp.Context and add their own checkpoints.
	Context context.Context

	// Profile, when non-nil, collects an opcode-class and builtin
	// time/alloc profile for the run (see VMProfile). Strictly opt-in:
	// a nil Profile costs the VM one predictable branch per instruction.
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

// Interp runs parsed NQL programs on the bytecode VM under resource
// limits. It holds one run's state: the host globals, the resource
// accounting, captured stdout, and the pooled VM machine while a run is
// in progress. Builtins and host bindings receive it to charge allocations,
// print, and call back into script functions.
type Interp struct {
	host     map[string]Value // injected host globals (never mutated)
	xglobals map[string]Value // global stores, kept across runs on this Interp
	m        *machine         // VM state, pooled; non-nil only during a VM run
	limits   Limits
	steps    int
	allocs   int
	depth    int
	deadline time.Time
	stdout   *strings.Builder
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
		host:   globals,
		limits: limits,
		stdout: &strings.Builder{},
	}
}

// builtins holds the standard library, installed once and shared by every
// interpreter. Builtins are stateless (per-run state arrives via the
// *Interp argument), so sharing is safe across goroutines. The compiler
// pre-binds each global name it finds here; host globals and script
// stores take precedence at run time.
var builtins = func() map[string]*Builtin {
	m := map[string]*Builtin{}
	installBuiltins(m)
	return m
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

// RunProgram executes an already-parsed program: it compiles the program
// on first use (the bytecode is cached on the Program) and runs it on the
// VM.
func (in *Interp) RunProgram(prog *Program) (Value, error) {
	in.deadline = time.Now().Add(in.limits.MaxDuration)
	if in.limits.Context != nil {
		if dl, ok := in.limits.Context.Deadline(); ok && dl.Before(in.deadline) {
			in.deadline = dl
		}
	}
	code, err := prog.Compiled()
	if err != nil {
		return nil, err
	}
	return in.runCode(code)
}

// checkpoint is the periodic cooperative-cancellation and wall-clock test
// the VM runs every 4096 steps (one dispatch quantum). Context
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

// Call invokes a callable value with the given arguments: compiled
// closures run on the VM, builtins directly. Builtins and host bindings use
// it to call back into script functions (sorted key functions,
// frame.apply, fed.where, ...).
func (in *Interp) Call(fn Value, args []Value, line int) (Value, error) {
	if f, ok := fn.(*Closure); ok {
		return in.vmCall(f, args, line)
	}
	in.depth++
	defer func() { in.depth-- }()
	if in.depth > in.limits.MaxDepth {
		return nil, errf(ErrLimit, line, "call depth exceeded (%d)", in.limits.MaxDepth)
	}
	f, ok := fn.(*Builtin)
	if !ok {
		return nil, errf(ErrOp, line, "%s is not callable", TypeName(fn))
	}
	if p := in.limits.Profile; p != nil {
		t0 := time.Now()
		a0 := in.allocs
		v, err := f.Fn(in, line, args)
		p.noteBuiltin(f.Name, time.Since(t0), in.allocs-a0)
		return v, err
	}
	return f.Fn(in, line, args)
}

// indexValue implements `container[idx]`.
func indexValue(container, idx Value, line int) (Value, error) {
	switch c := container.(type) {
	case *rowCursor:
		return c.index(idx, line)
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
