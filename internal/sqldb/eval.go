package sqldb

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/scalar"
)

// evalExpr evaluates a non-aggregate expression against a row scope (the
// zero scope allows only constants). It tests for the leaves first: WHERE
// reads one or two of them per comparison on every row.
func evalExpr(e Expr, s scope) (any, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Value, nil
	case *ColumnRef:
		if s.ws == nil {
			return nil, fmt.Errorf("sql: column reference %q outside row context", x.Name)
		}
		if s.group != nil && len(*s.group) == 0 {
			return nil, nil
		}
		return s.lookup(x)
	}
	return evalNode(e, s)
}

// evalNode evaluates every expression but a leaf.
func evalNode(e Expr, s scope) (any, error) {
	switch x := e.(type) {
	case *UnaryExpr:
		v, err := evalExpr(x.X, s)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			switch n := v.(type) {
			case int64:
				return scalar.Arith("-", int64(0), n)
			case float64:
				return -n, nil
			default:
				return nil, fmt.Errorf("sql: cannot negate %T", v)
			}
		case "NOT":
			return !truthy(v), nil
		}
		return nil, fmt.Errorf("sql: unknown unary op %q", x.Op)
	case *BinaryExpr:
		return evalBinary(x, s)
	case *InExpr:
		v, err := evalExpr(x.X, s)
		if err != nil {
			return nil, err
		}
		found := false
		for _, ve := range x.Values {
			w, err := evalExpr(ve, s)
			if err != nil {
				return nil, err
			}
			if scalar.Equal(v, w) {
				found = true
				break
			}
		}
		return found != x.Not, nil
	case *IsNullExpr:
		v, err := evalExpr(x.X, s)
		if err != nil {
			return nil, err
		}
		return (v == nil) != x.Not, nil
	case *BetweenExpr:
		v, err := evalExpr(x.X, s)
		if err != nil {
			return nil, err
		}
		lo, err := evalExpr(x.Lo, s)
		if err != nil {
			return nil, err
		}
		hi, err := evalExpr(x.Hi, s)
		if err != nil {
			return nil, err
		}
		in := scalar.Compare(v, lo) >= 0 && scalar.Compare(v, hi) <= 0
		return in != x.Not, nil
	case *CaseExpr:
		for _, w := range x.Whens {
			ok, err := evalBool(w.Cond, s)
			if err != nil {
				return nil, err
			}
			if ok {
				return evalExpr(w.Then, s)
			}
		}
		if x.Else != nil {
			return evalExpr(x.Else, s)
		}
		return nil, nil
	case *FuncCall:
		return evalScalarFunc(x, s)
	default:
		return nil, fmt.Errorf("sql: unsupported expression %T", e)
	}
}

// compare evaluates `l op r` for the comparison operators =, !=, <, <=, >
// and >=; ok is false for any other operator. Equality and order are
// scalar.Equal and scalar.Compare, the contract every substrate shares:
// numbers compare by value across int64 and float64, a string equals
// only an identical string (which seek relies on), and NaN equals only
// NaN and sorts below every other number.
func compare(op string, l, r any) (result, ok bool) {
	switch op {
	case "=":
		return scalar.Equal(l, r), true
	case "!=":
		return !scalar.Equal(l, r), true
	case "<":
		return scalar.Compare(l, r) < 0, true
	case "<=":
		return scalar.Compare(l, r) <= 0, true
	case ">":
		return scalar.Compare(l, r) > 0, true
	case ">=":
		return scalar.Compare(l, r) >= 0, true
	}
	return false, false
}

func truthy(v any) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case int64:
		return x != 0
	case float64:
		return x != 0
	case string:
		return x != ""
	default:
		return true
	}
}

// evalBool evaluates a condition. WHERE and ON run it on every row, so it
// decides AND, OR and the comparisons itself, without boxing a result.
func evalBool(e Expr, s scope) (bool, error) {
	x, ok := e.(*BinaryExpr)
	if !ok {
		v, err := evalExpr(e, s)
		return truthy(v), err
	}
	if x.Op == "AND" || x.Op == "OR" {
		// Short-circuit: AND stops at false, OR at true.
		l, err := evalBool(x.Left, s)
		if err != nil || l == (x.Op == "OR") {
			return l, err
		}
		return evalBool(x.Right, s)
	}
	l, err := evalExpr(x.Left, s)
	if err != nil {
		return false, err
	}
	r, err := evalExpr(x.Right, s)
	if err != nil {
		return false, err
	}
	if b, ok := compare(x.Op, l, r); ok {
		return b, nil
	}
	v, err := binaryOp(x.Op, l, r)
	return truthy(v), err
}

func evalBinary(x *BinaryExpr, s scope) (any, error) {
	if x.Op == "AND" || x.Op == "OR" {
		b, err := evalBool(x, s)
		if err != nil {
			return nil, err
		}
		return b, nil
	}
	l, err := evalExpr(x.Left, s)
	if err != nil {
		return nil, err
	}
	r, err := evalExpr(x.Right, s)
	if err != nil {
		return nil, err
	}
	return binaryOp(x.Op, l, r)
}

// binaryOp applies a non-logical binary operator to evaluated operands.
func binaryOp(op string, l, r any) (any, error) {
	if b, ok := compare(op, l, r); ok {
		return b, nil
	}
	switch op {
	case "LIKE":
		ls, ok1 := l.(string)
		rs, ok2 := r.(string)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("sql: LIKE requires strings, got %T and %T", l, r)
		}
		return likeMatch(ls, rs), nil
	case "+", "-", "*", "/", "%":
		if ls, ok := l.(string); ok && op == "+" {
			if rs, ok := r.(string); ok {
				return ls + rs, nil // string concatenation convenience
			}
		}
		v, err := scalar.Arith(op, l, r)
		switch err {
		case scalar.ErrNotNumber:
			return nil, fmt.Errorf("sql: arithmetic %q on non-numeric values %v (%T) and %v (%T)", op, l, l, r, r)
		case scalar.ErrModNotInt:
			return nil, fmt.Errorf("sql: %% requires integers")
		case scalar.ErrZeroDivisor:
			return nil, fmt.Errorf("sql: division by zero")
		}
		return v, err
	default:
		return nil, fmt.Errorf("sql: unknown operator %q", op)
	}
}

// likeMatch implements SQL LIKE over bytes: % matches any run and _ any
// one byte. It matches greedily and, on a mismatch, retries the last %
// one byte further on; an earlier % never needs a retry, since the last
// one can absorb whatever it would. It allocates nothing.
func likeMatch(s, pattern string) bool {
	i, j := 0, 0
	star, mark := -1, 0 // the last % and the byte of s it resumes from
	for i < len(s) {
		switch {
		case j < len(pattern) && pattern[j] == '%':
			star, mark = j, i
			j++
		case j < len(pattern) && (pattern[j] == '_' || pattern[j] == s[i]):
			i++
			j++
		case star >= 0:
			mark++
			i, j = mark, star+1
		default:
			return false
		}
	}
	for j < len(pattern) && pattern[j] == '%' {
		j++
	}
	return j == len(pattern)
}

// evalScalarFunc evaluates non-aggregate SQL functions.
func evalScalarFunc(f *FuncCall, s scope) (any, error) {
	if isAggregate(f.Name) {
		if s.group == nil {
			return nil, fmt.Errorf("sql: aggregate %s() not allowed here", f.Name)
		}
		return evalAggregateFunc(f, s.ws, *s.group)
	}
	args := make([]any, len(f.Args))
	for i, a := range f.Args {
		v, err := evalExpr(a, s)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	wantArgs := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sql: %s() takes %d argument(s), got %d", f.Name, n, len(args))
		}
		return nil
	}
	switch f.Name {
	case "LENGTH":
		if err := wantArgs(1); err != nil {
			return nil, err
		}
		str, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("sql: LENGTH() requires a string")
		}
		return int64(len(str)), nil
	case "UPPER":
		if err := wantArgs(1); err != nil {
			return nil, err
		}
		str, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("sql: UPPER() requires a string")
		}
		return strings.ToUpper(str), nil
	case "LOWER":
		if err := wantArgs(1); err != nil {
			return nil, err
		}
		str, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("sql: LOWER() requires a string")
		}
		return strings.ToLower(str), nil
	case "ABS":
		if err := wantArgs(1); err != nil {
			return nil, err
		}
		switch n := args[0].(type) {
		case int64:
			if n < 0 {
				return scalar.Arith("-", int64(0), n)
			}
			return n, nil
		case float64:
			return math.Abs(n), nil
		}
		return nil, fmt.Errorf("sql: ABS() requires a number")
	case "ROUND":
		if len(args) == 1 {
			n, ok := scalar.Float(args[0])
			if !ok {
				return nil, fmt.Errorf("sql: ROUND() requires a number")
			}
			return math.Round(n), nil
		}
		if err := wantArgs(2); err != nil {
			return nil, err
		}
		n, ok1 := scalar.Float(args[0])
		d, ok2 := args[1].(int64)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("sql: ROUND(x, digits) requires (number, int)")
		}
		scale := math.Pow(10, float64(d))
		return math.Round(n*scale) / scale, nil
	case "SUBSTR":
		if len(args) != 2 && len(args) != 3 {
			return nil, fmt.Errorf("sql: SUBSTR() takes 2 or 3 arguments")
		}
		str, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("sql: SUBSTR() requires a string")
		}
		start, ok := args[1].(int64)
		if !ok {
			return nil, fmt.Errorf("sql: SUBSTR() start must be an integer")
		}
		// SQL is 1-based.
		idx := int(start) - 1
		if idx < 0 {
			idx = 0
		}
		if idx > len(str) {
			idx = len(str)
		}
		rest := str[idx:]
		if len(args) == 3 {
			n, ok := args[2].(int64)
			if !ok {
				return nil, fmt.Errorf("sql: SUBSTR() length must be an integer")
			}
			if int(n) < len(rest) {
				if n < 0 {
					n = 0
				}
				rest = rest[:n]
			}
		}
		return rest, nil
	case "COALESCE":
		for _, a := range args {
			if a != nil {
				return a, nil
			}
		}
		return nil, nil
	case "INSTR":
		if err := wantArgs(2); err != nil {
			return nil, err
		}
		str, ok1 := args[0].(string)
		sub, ok2 := args[1].(string)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("sql: INSTR() requires strings")
		}
		return int64(strings.Index(str, sub) + 1), nil
	default:
		return nil, fmt.Errorf("sql: unknown function %s()", f.Name)
	}
}

func isAggregate(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}
