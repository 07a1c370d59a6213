package analysis

import "repro/internal/nql"

// expr type-checks one expression, emits diagnostics for provable
// failures, and returns the expression's inferred type plus its effect
// (purity and totality), which NQ402 reads.
func (a *analyzer) expr(e nql.Expr) (Type, eff) {
	switch x := e.(type) {
	case *nql.Ident:
		return a.resolveRead(x)
	case *nql.IntLit:
		return TInt, pureTotal
	case *nql.FloatLit:
		return TFloat, pureTotal
	case *nql.StringLit:
		return TStr, pureTotal
	case *nql.BoolLit:
		return TBool, pureTotal
	case *nql.NilLit:
		return TNil, pureTotal
	case *nql.ListLit:
		all := pureTotal
		for _, it := range x.Items {
			_, e := a.expr(it)
			all = all.and(e)
		}
		return TList, all
	case *nql.MapLit:
		return a.mapLit(x)
	case *nql.UnaryExpr:
		t, e := a.expr(x.X)
		if x.Op == "not" {
			return TBool, e
		}
		// Unary minus: strictly int64/float64 at runtime (bools are not
		// negatable, unlike in binary arithmetic).
		switch t {
		case TInt, TFloat, TNum:
			return t, e
		case TAny:
			return TAny, eff{e.pure, false}
		default:
			a.report(x.Line, Error, "NQ300", "cannot negate %s", t)
			return TAny, eff{e.pure, false}
		}
	case *nql.BinaryExpr:
		return a.binary(x)
	case *nql.IndexExpr:
		return a.index(x)
	case *nql.AttrExpr:
		t, e := a.expr(x.X)
		switch t {
		case TNil, TBool, TInt, TFloat, TNum, TStr, TList, TFunc:
			a.report(x.Line, Error, "NQ302", "%s has no attributes", t)
		}
		return TAny, eff{e.pure, false}
	case *nql.CallExpr:
		return a.call(x)
	case *nql.LambdaExpr:
		a.analyzeFunction(x.Params, nil, x.Body, x.Line)
		return TFunc, pureTotal
	default:
		return TAny, opaque
	}
}

func (a *analyzer) resolveRead(id *nql.Ident) (Type, eff) {
	if b := a.lookup(id.Name); b != nil {
		b.used = true
		return b.typ, pureTotal
	}
	if a.globals != nil {
		if t, ok := a.globals[id.Name]; ok {
			if a.reassigned[id.Name] {
				t = TAny
			}
			return t, pureTotal
		}
	}
	if _, ok := builtinSpecs[id.Name]; ok {
		// Builtins are pre-bound globals; a program-level rebinding
		// (tracked by the prepass) erases what we know about the value
		// but the read itself stays total.
		if a.reassigned[id.Name] {
			return TAny, pureTotal
		}
		return TFunc, pureTotal
	}
	if a.inFunc > 0 && a.topDecls[id.Name] {
		// Free variable of a function body naming a top-level
		// declaration: bound by call time in the usual declare-then-call
		// order, so not an undefined reference — but not provably bound
		// either.
		return TAny, purePartial
	}
	if a.globals != nil {
		a.report(id.Line, Error, "NQ100", "undefined name %q", id.Name)
	}
	// Unknown surface (or just reported): reading a free global may fail.
	return TAny, purePartial
}

func (a *analyzer) mapLit(x *nql.MapLit) (Type, eff) {
	seen := map[string]int{}
	all := pureTotal
	for i := range x.Keys {
		kt, ke := a.expr(x.Keys[i])
		_, ve := a.expr(x.Values[i])
		all = all.and(ke).and(ve)
		if kt == TNil || kt == TList || kt == TMap || kt == TFunc || isObject(kt) {
			a.report(x.Keys[i].Pos(), Error, "NQ302", "unhashable map key of type %s", kt)
		}
		if !isHashable(kt) {
			all.total = false
		}
		if repr, ok := litKeyRepr(x.Keys[i]); ok {
			if first, dup := seen[repr]; dup {
				a.report(x.Keys[i].Pos(), Warn, "NQ403", "duplicate map key %s (first used on line %d)", repr, first)
			} else {
				seen[repr] = x.Keys[i].Pos()
			}
		}
	}
	return TMap, all
}

// cmpClass buckets types by CompareNQL compatibility: two values order
// only within one class (scalar.Orderable, or two lists).
type cmpClass int

const (
	cmpUnknown cmpClass = iota // any: nothing provable
	cmpNum                     // int, float and num; a bool is not a number here
	cmpBool
	cmpStr
	cmpList
	cmpNone // nil, map, func, host objects: never ordered
)

func classOf(t Type) cmpClass {
	switch {
	case t == TAny:
		return cmpUnknown
	case t == TBool:
		return cmpBool
	case isNumeric(t):
		return cmpNum
	case t == TStr:
		return cmpStr
	case t == TList:
		return cmpList
	default:
		return cmpNone
	}
}

func (a *analyzer) binary(x *nql.BinaryExpr) (Type, eff) {
	lt, le := a.expr(x.Left)
	rt, re := a.expr(x.Right)
	both := le.and(re)
	switch x.Op {
	case "and", "or", "==", "!=":
		// Logic operators truthy-test and equality compares any pair of
		// values; none of the four can fail.
		return TBool, both
	case "<", "<=", ">", ">=":
		lc, rc := classOf(lt), classOf(rt)
		if lc == cmpNone || rc == cmpNone || (lc != cmpUnknown && rc != cmpUnknown && lc != rc) {
			a.report(x.Line, Error, "NQ300", "cannot compare %s and %s", lt, rt)
			return TBool, eff{both.pure, false}
		}
		// List comparisons recurse into elements and may fail there.
		total := both.total && lc == rc && (lc == cmpNum || lc == cmpBool || lc == cmpStr)
		return TBool, eff{both.pure, total}
	case "in":
		switch {
		case rt == TNil || rt == TFunc || isNumeric(rt) || isObject(rt):
			a.report(x.Line, Error, "NQ300", "'in' not supported for %s", rt)
			return TBool, eff{both.pure, false}
		case rt == TStr:
			if lt != TAny && lt != TStr {
				a.report(x.Line, Error, "NQ300", "'in <string>' requires a string operand, got %s", lt)
			}
			return TBool, eff{both.pure, both.total && lt == TStr}
		case rt == TList, rt == TMap:
			// List membership uses total equality; map membership swallows
			// unhashable probe keys.
			return TBool, both
		default:
			return TBool, eff{both.pure, false}
		}
	case "+":
		switch {
		case lt == TAny || rt == TAny:
			return TAny, eff{both.pure, false}
		case lt == TStr && rt == TStr:
			return TStr, both
		case lt == TList && rt == TList:
			return TList, both
		case isNumeric(lt) && isNumeric(rt):
			return arithType(lt, rt), both
		default:
			a.report(x.Line, Error, "NQ300", "unsupported operand types for +: %s and %s", lt, rt)
			return TAny, eff{both.pure, false}
		}
	case "-", "*":
		if lt != TAny && !isNumeric(lt) || rt != TAny && !isNumeric(rt) {
			a.report(x.Line, Error, "NQ300", "unsupported operand types for %s: %s and %s", x.Op, lt, rt)
			return TAny, eff{both.pure, false}
		}
		if isNumeric(lt) && isNumeric(rt) {
			return arithType(lt, rt), both
		}
		return TAny, eff{both.pure, false}
	case "/":
		if lt != TAny && !isNumeric(lt) || rt != TAny && !isNumeric(rt) {
			a.report(x.Line, Error, "NQ300", "unsupported operand types for /: %s and %s", lt, rt)
			return TFloat, eff{both.pure, false}
		}
		if f, ok := numLit(x.Right); ok && f == 0 {
			a.report(x.Line, Error, "NQ301", "division by zero")
			return TFloat, eff{both.pure, false}
		}
		divOK := isNumeric(lt) && isNumeric(rt) && provenNonZero(x.Right)
		return TFloat, eff{both.pure, both.total && divOK}
	case "%":
		bad := false
		for _, t := range [2]Type{lt, rt} {
			if t == TFloat || (t != TAny && !isNumeric(t)) {
				a.report(x.Line, Error, "NQ300", "%% requires integers, got %s and %s", lt, rt)
				bad = true
				break
			}
		}
		if !bad {
			if n, ok := intLit(x.Right); ok && n == 0 {
				a.report(x.Line, Error, "NQ301", "modulo by zero")
				bad = true
			}
		}
		intish := func(t Type) bool { return t == TInt || t == TBool }
		modOK := !bad && intish(lt) && intish(rt) && provenNonZeroInt(x.Right)
		return TInt, eff{both.pure, both.total && modOK}
	default:
		return TAny, eff{both.pure, false}
	}
}

func arithType(l, r Type) Type {
	if l == TFloat || r == TFloat {
		return TFloat
	}
	intish := func(t Type) bool { return t == TInt || t == TBool }
	if intish(l) && intish(r) {
		return TInt
	}
	return TNum
}

func (a *analyzer) index(x *nql.IndexExpr) (Type, eff) {
	ct, ce := a.expr(x.X)
	it, ie := a.expr(x.Index)
	both := ce.and(ie)
	switch {
	case ct == TNil || ct == TFunc || isNumeric(ct):
		a.report(x.Line, Error, "NQ302", "value of type %s is not indexable", ct)
	case ct == TList || ct == TStr:
		if it != TInt && it != TNum && it != TAny {
			a.report(x.Line, Error, "NQ302", "%s index must be int, got %s", ct, it)
		}
	case ct == TMap:
		if it == TList || it == TMap || it == TFunc || isObject(it) {
			a.report(x.Line, Error, "NQ302", "unhashable map key of type %s is never present", it)
		}
	}
	res := TAny
	if ct == TStr {
		res = TStr
	}
	// Indexing is never total: out-of-range and missing-key failures
	// depend on values, not types.
	return res, eff{both.pure, false}
}

func (a *analyzer) call(x *nql.CallExpr) (Type, eff) {
	if id, ok := x.Fn.(*nql.Ident); ok {
		if b := a.lookup(id.Name); b != nil {
			b.used = true
			for _, arg := range x.Args {
				a.expr(arg)
			}
			if provenNotCallable(b.typ) {
				a.report(x.Line, Error, "NQ201", "%s value %q is not callable", b.typ, id.Name)
			} else if b.typ == TFunc && b.params >= 0 && len(x.Args) != b.params {
				a.report(x.Line, Error, "NQ200", "%s takes %d argument(s), got %d", id.Name, b.params, len(x.Args))
			}
			return TAny, opaque
		}
		if spec, ok := a.builtinFor(id.Name); ok {
			return a.builtinCall(id.Name, spec, x)
		}
	}
	ft, fe := a.expr(x.Fn)
	all := fe
	for _, arg := range x.Args {
		_, e := a.expr(arg)
		all = all.and(e)
	}
	if provenNotCallable(ft) {
		a.report(x.Line, Error, "NQ201", "%s is not callable", ft)
	}
	return TAny, opaque
}

func provenNotCallable(t Type) bool {
	switch t {
	case TAny, TFunc:
		return false
	}
	return true
}

// builtinFor resolves a free call target to its builtin spec, unless the
// program's own bindings could shadow it at call time: a scope binding
// (checked by the caller), a host global, a prepass-visible rebinding, or
// — inside function bodies, where resolution happens at call time — any
// top-level declaration of the name.
func (a *analyzer) builtinFor(name string) (*bspec, bool) {
	if a.reassigned[name] {
		return nil, false
	}
	if a.globals != nil {
		if _, ok := a.globals[name]; ok {
			return nil, false
		}
	}
	if a.inFunc > 0 && a.topDecls[name] {
		return nil, false
	}
	spec, ok := builtinSpecs[name]
	return spec, ok
}

func (a *analyzer) builtinCall(name string, spec *bspec, x *nql.CallExpr) (Type, eff) {
	n := len(x.Args)
	at := make([]Type, n)
	all := pureTotal
	for i, arg := range x.Args {
		t, e := a.expr(arg)
		at[i] = t
		all = all.and(e)
	}
	if n < spec.min || (spec.max >= 0 && n > spec.max) {
		a.report(x.Line, Error, "NQ200", "%s() takes %s argument(s), got %d", name, spec.arity, n)
		return builtinResult(name, at, n), eff{all.pure && !spec.impure, false}
	}
	for i, as := range spec.args {
		if i < n && len(as.kinds) > 0 && !argOK(at[i], as.kinds) {
			a.report(x.Line, Error, "NQ210", "%s() argument %d must be %s, got %s", name, i+1, as.desc, at[i])
		}
	}
	// A couple of signatures need checks the positional table cannot say.
	switch name {
	case "min", "max":
		if n == 1 && !argOK(at[0], []Type{TList}) {
			a.report(x.Line, Error, "NQ210", "%s() requires a list or multiple arguments", name)
		}
	case "contains":
		if at[0] == TStr && n == 2 && at[1] != TAny && at[1] != TStr {
			a.report(x.Line, Error, "NQ210", "contains() on a string requires a string operand, got %s", at[1])
		}
	case "range":
		if n == 3 {
			if z, ok := intLit(x.Args[2]); ok && z == 0 {
				a.report(x.Line, Error, "NQ301", "range() step must be a non-zero int")
			}
		}
	}
	pure := all.pure && !spec.impure
	total := all.total && builtinTotal(name, x, at)
	if builtinCallsFn(name, at) {
		// The builtin invokes a caller-supplied function whose effect the
		// table cannot vouch for.
		pure, total = false, false
	}
	return builtinResult(name, at, n), eff{pure, total}
}

// argOK accepts a proven type against an allow-list; TAny always passes,
// and TNum passes wherever int or float would (its parity is unknown, so
// failure is not provable).
func argOK(t Type, kinds []Type) bool {
	if t == TAny {
		return true
	}
	for _, k := range kinds {
		if t == k {
			return true
		}
		if t == TNum && (k == TInt || k == TFloat) {
			return true
		}
	}
	return false
}

// isHashable reports types that always hash as map keys (nil does not).
func isHashable(t Type) bool {
	switch t {
	case TBool, TInt, TFloat, TNum, TStr:
		return true
	}
	return false
}

// --- literal helpers -----------------------------------------------------

func numLit(e nql.Expr) (float64, bool) {
	switch x := e.(type) {
	case *nql.IntLit:
		return float64(x.Value), true
	case *nql.FloatLit:
		return x.Value, true
	case *nql.UnaryExpr:
		if x.Op == "-" {
			if f, ok := numLit(x.X); ok {
				return -f, true
			}
		}
	}
	return 0, false
}

func intLit(e nql.Expr) (int64, bool) {
	switch x := e.(type) {
	case *nql.IntLit:
		return x.Value, true
	case *nql.UnaryExpr:
		if x.Op == "-" {
			if n, ok := intLit(x.X); ok {
				return -n, true
			}
		}
	}
	return 0, false
}

func provenNonZero(e nql.Expr) bool {
	f, ok := numLit(e)
	return ok && f != 0
}

func provenNonZeroInt(e nql.Expr) bool {
	n, ok := intLit(e)
	return ok && n != 0
}

// litKeyRepr renders a literal map key for duplicate detection, matching
// the runtime's key identity (ints and floats share one numeric key
// space).
func litKeyRepr(e nql.Expr) (string, bool) {
	switch x := e.(type) {
	case *nql.StringLit:
		return "\"" + x.Value + "\"", true
	case *nql.IntLit:
		return formatNum(float64(x.Value)), true
	case *nql.FloatLit:
		return formatNum(x.Value), true
	case *nql.BoolLit:
		if x.Value {
			return "true", true
		}
		return "false", true
	}
	return "", false
}

func formatNum(f float64) string {
	if f == float64(int64(f)) {
		return itoa(int64(f))
	}
	return ftoa(f)
}
