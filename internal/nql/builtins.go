package nql

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/scalar"
)

// installBuiltins registers the NQL standard library in m.
func installBuiltins(m map[string]*Builtin) {
	reg := func(name string, fn func(in *Interp, line int, args []Value) (Value, error)) {
		m[name] = &Builtin{Name: name, Fn: fn}
	}

	argErr := func(line int, name, want string, got int) error {
		return errf(ErrArg, line, "%s() takes %s argument(s), got %d", name, want, got)
	}

	reg("print", func(in *Interp, line int, args []Value) (Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = ToStr(a)
		}
		in.stdout.WriteString(strings.Join(parts, " "))
		in.stdout.WriteString("\n")
		return nil, nil
	})

	reg("len", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr(line, "len", "1", len(args))
		}
		switch x := args[0].(type) {
		case string:
			return int64(len(x)), nil
		case *List:
			return int64(len(x.Items)), nil
		case *Map:
			return int64(x.Len()), nil
		case Sizer:
			return int64(x.Size()), nil
		default:
			return nil, errf(ErrOp, line, "len() not supported for %s", TypeName(args[0]))
		}
	})

	reg("type", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr(line, "type", "1", len(args))
		}
		return TypeName(args[0]), nil
	})

	reg("str", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr(line, "str", "1", len(args))
		}
		return ToStr(args[0]), nil
	})

	reg("int", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr(line, "int", "1", len(args))
		}
		switch x := args[0].(type) {
		case int64:
			return x, nil
		case float64:
			// -2^63 <= x < 2^63 is false for NaN and ±Inf too.
			if x >= math.MinInt64 && x < -math.MinInt64 {
				return int64(x), nil
			}
			return nil, errf(ErrValue, line, "int() of %s is not an int", Repr(x))
		case bool:
			if x {
				return int64(1), nil
			}
			return int64(0), nil
		case string:
			n, err := strconv.ParseInt(strings.TrimSpace(x), 10, 64)
			if err != nil {
				return nil, errf(ErrValue, line, "cannot convert %q to int", x)
			}
			return n, nil
		default:
			return nil, errf(ErrOp, line, "int() not supported for %s", TypeName(args[0]))
		}
	})

	reg("float", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr(line, "float", "1", len(args))
		}
		switch x := args[0].(type) {
		case int64:
			return float64(x), nil
		case float64:
			return x, nil
		case string:
			f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
			if err != nil {
				return nil, errf(ErrValue, line, "cannot convert %q to float", x)
			}
			return f, nil
		default:
			return nil, errf(ErrOp, line, "float() not supported for %s", TypeName(args[0]))
		}
	})

	reg("abs", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr(line, "abs", "1", len(args))
		}
		switch x := args[0].(type) {
		case int64:
			if x < 0 {
				return scalar.Arith("-", int64(0), x)
			}
			return x, nil
		case float64:
			return math.Abs(x), nil
		default:
			return nil, errf(ErrOp, line, "abs() requires a number")
		}
	})

	reg("round", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 1 && len(args) != 2 {
			return nil, argErr(line, "round", "1 or 2", len(args))
		}
		f, ok := asNumber(args[0])
		if !ok {
			return nil, errf(ErrOp, line, "round() requires a number")
		}
		digits := int64(0)
		if len(args) == 2 {
			d, ok := args[1].(int64)
			if !ok {
				return nil, errf(ErrArg, line, "round() digits must be int")
			}
			digits = d
		}
		if digits != 0 {
			scale := math.Pow(10, float64(digits))
			return math.Round(f*scale) / scale, nil
		}
		if n, ok := args[0].(int64); ok {
			return n, nil
		}
		// -2^63 <= res < 2^63 is false for NaN and ±Inf too.
		if res := math.Round(f); res >= math.MinInt64 && res < -math.MinInt64 {
			return int64(res), nil
		}
		return nil, errf(ErrValue, line, "round() of %s is not an int", Repr(f))
	})

	reg("range", func(in *Interp, line int, args []Value) (Value, error) {
		var start, stop, step int64 = 0, 0, 1
		switch len(args) {
		case 1:
			s, ok := args[0].(int64)
			if !ok {
				return nil, errf(ErrArg, line, "range() requires ints")
			}
			stop = s
		case 2, 3:
			s1, ok1 := args[0].(int64)
			s2, ok2 := args[1].(int64)
			if !ok1 || !ok2 {
				return nil, errf(ErrArg, line, "range() requires ints")
			}
			start, stop = s1, s2
			if len(args) == 3 {
				s3, ok := args[2].(int64)
				if !ok || s3 == 0 {
					return nil, errf(ErrArg, line, "range() step must be a non-zero int")
				}
				step = s3
			}
		default:
			return nil, argErr(line, "range", "1-3", len(args))
		}
		// The length is computed in uint64, where the distance between two
		// int64s and the size of any step fit, and charged before the list
		// is built; a length past the whole budget is charged as the budget
		// plus one, which fails without overflowing the count.
		var n uint64
		if step > 0 && start < stop {
			n = (uint64(stop)-uint64(start)-1)/uint64(step) + 1
		} else if step < 0 && start > stop {
			n = (uint64(start)-uint64(stop)-1)/(-uint64(step)) + 1
		}
		if err := in.alloc(line, int(min(n, uint64(in.limits.MaxAllocs)+1))); err != nil {
			return nil, err
		}
		var items []Value
		if n > 0 {
			items = make([]Value, n)
		}
		v := start
		for i := range items {
			items[i] = v
			v += step // wraps only past the last item, whose successor is unused
		}
		return &List{Items: items}, nil
	})

	reg("push", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 2 {
			return nil, argErr(line, "push", "2", len(args))
		}
		l, ok := args[0].(*List)
		if !ok {
			return nil, errf(ErrArg, line, "push() first argument must be a list")
		}
		if err := in.alloc(line, 1); err != nil {
			return nil, err
		}
		l.Items = append(l.Items, args[1])
		return l, nil
	})

	reg("pop", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr(line, "pop", "1", len(args))
		}
		l, ok := args[0].(*List)
		if !ok {
			return nil, errf(ErrArg, line, "pop() requires a list")
		}
		if len(l.Items) == 0 {
			return nil, errf(ErrIndex, line, "pop from empty list")
		}
		last := l.Items[len(l.Items)-1]
		l.Items = l.Items[:len(l.Items)-1]
		return last, nil
	})

	reg("sum", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr(line, "sum", "1", len(args))
		}
		l, ok := args[0].(*List)
		if !ok {
			return nil, errf(ErrArg, line, "sum() requires a list")
		}
		var s scalar.Sum
		for _, it := range l.Items {
			if !s.Add(arithOperand(it)) {
				return nil, errf(ErrOp, line, "sum() over non-numeric element %s", Repr(it))
			}
		}
		return s.Value(), nil
	})

	minMax := func(name string) func(in *Interp, line int, args []Value) (Value, error) {
		return func(in *Interp, line int, args []Value) (Value, error) {
			var items []Value
			if len(args) == 1 {
				l, ok := args[0].(*List)
				if !ok {
					return nil, errf(ErrArg, line, "%s() requires a list or multiple arguments", name)
				}
				items = l.Items
			} else if len(args) >= 2 {
				items = args
			} else {
				return nil, argErr(line, name, "1+", len(args))
			}
			if len(items) == 0 {
				return nil, errf(ErrValue, line, "%s() of empty sequence", name)
			}
			best := items[0]
			for _, it := range items[1:] {
				cmp, err := CompareNQL(it, best)
				if err != nil {
					return nil, errf(ErrOp, line, "%s", err)
				}
				if (name == "min" && cmp < 0) || (name == "max" && cmp > 0) {
					best = it
				}
			}
			return best, nil
		}
	}
	reg("min", minMax("min"))
	reg("max", minMax("max"))

	reg("sorted", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) < 1 || len(args) > 3 {
			return nil, argErr(line, "sorted", "1-3", len(args))
		}
		l, ok := args[0].(*List)
		if !ok {
			return nil, errf(ErrArg, line, "sorted() requires a list")
		}
		var keyFn Value
		reverse := false
		if len(args) >= 2 {
			switch a := args[1].(type) {
			case *Closure, *Builtin:
				keyFn = a
			case bool:
				reverse = a
			default:
				return nil, errf(ErrArg, line, "sorted() second argument must be a key function or bool")
			}
		}
		if len(args) == 3 {
			b, ok := args[2].(bool)
			if !ok {
				return nil, errf(ErrArg, line, "sorted() reverse flag must be bool")
			}
			reverse = b
		}
		if err := in.alloc(line, len(l.Items)); err != nil {
			return nil, err
		}
		items := append([]Value(nil), l.Items...)
		keys := items
		if keyFn != nil {
			keys = make([]Value, len(items))
			for i, it := range items {
				k, err := in.Call(keyFn, []Value{it}, line)
				if err != nil {
					return nil, err
				}
				keys[i] = k
			}
		}
		var sortErr error
		idx := make([]int, len(items))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			if sortErr != nil {
				return false
			}
			cmp, err := CompareNQL(keys[idx[a]], keys[idx[b]])
			if err != nil {
				sortErr = errf(ErrOp, line, "%s", err)
				return false
			}
			if reverse {
				return cmp > 0
			}
			return cmp < 0
		})
		if sortErr != nil {
			return nil, sortErr
		}
		out := make([]Value, len(items))
		for i, j := range idx {
			out[i] = items[j]
		}
		return &List{Items: out}, nil
	})

	reg("reversed", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr(line, "reversed", "1", len(args))
		}
		l, ok := args[0].(*List)
		if !ok {
			return nil, errf(ErrArg, line, "reversed() requires a list")
		}
		if err := in.alloc(line, len(l.Items)); err != nil {
			return nil, err
		}
		out := make([]Value, len(l.Items))
		for i, it := range l.Items {
			out[len(out)-1-i] = it
		}
		return &List{Items: out}, nil
	})

	reg("keys", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr(line, "keys", "1", len(args))
		}
		m, ok := args[0].(*Map)
		if !ok {
			if km, ok := args[0].(KeysValuer); ok {
				return &List{Items: km.MapKeys()}, nil
			}
			return nil, errf(ErrArg, line, "keys() requires a map")
		}
		return &List{Items: m.Keys()}, nil
	})

	reg("values", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr(line, "values", "1", len(args))
		}
		m, ok := args[0].(*Map)
		if !ok {
			if km, ok := args[0].(KeysValuer); ok {
				return &List{Items: km.MapValues()}, nil
			}
			return nil, errf(ErrArg, line, "values() requires a map")
		}
		return &List{Items: m.Values()}, nil
	})

	reg("items", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr(line, "items", "1", len(args))
		}
		m, ok := args[0].(*Map)
		if !ok {
			return nil, errf(ErrArg, line, "items() requires a map")
		}
		out := make([]Value, 0, m.Len())
		ks, vs := m.Keys(), m.Values()
		for i := range ks {
			out = append(out, &List{Items: []Value{ks[i], vs[i]}})
		}
		return &List{Items: out}, nil
	})

	reg("get", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 2 && len(args) != 3 {
			return nil, argErr(line, "get", "2 or 3", len(args))
		}
		m, ok := args[0].(*Map)
		if !ok {
			return nil, errf(ErrArg, line, "get() requires a map")
		}
		if v, ok := m.Get(args[1]); ok {
			return v, nil
		}
		if len(args) == 3 {
			return args[2], nil
		}
		return nil, nil
	})

	reg("setdefault", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 3 {
			return nil, argErr(line, "setdefault", "3", len(args))
		}
		m, ok := args[0].(*Map)
		if !ok {
			return nil, errf(ErrArg, line, "setdefault() requires a map")
		}
		if v, ok := m.Get(args[1]); ok {
			return v, nil
		}
		if err := m.Set(args[1], args[2]); err != nil {
			return nil, errf(ErrIndex, line, "%s", err)
		}
		return args[2], nil
	})

	reg("delete", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 2 {
			return nil, argErr(line, "delete", "2", len(args))
		}
		m, ok := args[0].(*Map)
		if !ok {
			return nil, errf(ErrArg, line, "delete() requires a map")
		}
		m.Delete(args[1])
		return nil, nil
	})

	reg("contains", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 2 {
			return nil, argErr(line, "contains", "2", len(args))
		}
		return containsValue(args[0], args[1], line)
	})

	// String helpers.
	strFn := func(name string, arity int, fn func(line int, args []Value) (Value, error)) {
		reg(name, func(in *Interp, line int, args []Value) (Value, error) {
			if len(args) != arity {
				return nil, argErr(line, name, fmt.Sprintf("%d", arity), len(args))
			}
			if _, ok := args[0].(string); !ok {
				return nil, errf(ErrArg, line, "%s() first argument must be a string, got %s", name, TypeName(args[0]))
			}
			return fn(line, args)
		})
	}
	strFn("upper", 1, func(line int, args []Value) (Value, error) {
		return strings.ToUpper(args[0].(string)), nil
	})
	strFn("lower", 1, func(line int, args []Value) (Value, error) {
		return strings.ToLower(args[0].(string)), nil
	})
	strFn("strip", 1, func(line int, args []Value) (Value, error) {
		return strings.TrimSpace(args[0].(string)), nil
	})
	strFn("startswith", 2, func(line int, args []Value) (Value, error) {
		p, ok := args[1].(string)
		if !ok {
			return nil, errf(ErrArg, line, "startswith() prefix must be a string")
		}
		return strings.HasPrefix(args[0].(string), p), nil
	})
	strFn("endswith", 2, func(line int, args []Value) (Value, error) {
		p, ok := args[1].(string)
		if !ok {
			return nil, errf(ErrArg, line, "endswith() suffix must be a string")
		}
		return strings.HasSuffix(args[0].(string), p), nil
	})
	strFn("split", 2, func(line int, args []Value) (Value, error) {
		sep, ok := args[1].(string)
		if !ok {
			return nil, errf(ErrArg, line, "split() separator must be a string")
		}
		parts := strings.Split(args[0].(string), sep)
		items := make([]Value, len(parts))
		for i, p := range parts {
			items[i] = p
		}
		return &List{Items: items}, nil
	})
	strFn("replace", 3, func(line int, args []Value) (Value, error) {
		old, ok1 := args[1].(string)
		new_, ok2 := args[2].(string)
		if !ok1 || !ok2 {
			return nil, errf(ErrArg, line, "replace() arguments must be strings")
		}
		return strings.ReplaceAll(args[0].(string), old, new_), nil
	})

	reg("join", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 2 {
			return nil, argErr(line, "join", "2", len(args))
		}
		sep, ok := args[0].(string)
		if !ok {
			return nil, errf(ErrArg, line, "join() separator must be a string")
		}
		l, ok := args[1].(*List)
		if !ok {
			return nil, errf(ErrArg, line, "join() requires a list")
		}
		parts := make([]string, len(l.Items))
		for i, it := range l.Items {
			s, ok := it.(string)
			if !ok {
				return nil, errf(ErrOp, line, "join() list must contain strings, found %s", TypeName(it))
			}
			parts[i] = s
		}
		return strings.Join(parts, sep), nil
	})

	reg("slice", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 3 {
			return nil, argErr(line, "slice", "3", len(args))
		}
		lo, ok1 := args[1].(int64)
		hi, ok2 := args[2].(int64)
		if !ok1 || !ok2 {
			return nil, errf(ErrArg, line, "slice() bounds must be ints")
		}
		clamp := func(i, n int64) int64 {
			if i < 0 {
				i += n
			}
			if i < 0 {
				i = 0
			}
			if i > n {
				i = n
			}
			return i
		}
		switch x := args[0].(type) {
		case *List:
			n := int64(len(x.Items))
			lo, hi := clamp(lo, n), clamp(hi, n)
			if lo > hi {
				lo = hi
			}
			if err := in.alloc(line, int(hi-lo)); err != nil {
				return nil, err
			}
			return &List{Items: append([]Value(nil), x.Items[lo:hi]...)}, nil
		case string:
			n := int64(len(x))
			lo, hi := clamp(lo, n), clamp(hi, n)
			if lo > hi {
				lo = hi
			}
			return x[lo:hi], nil
		default:
			return nil, errf(ErrArg, line, "slice() requires a list or string")
		}
	})

	reg("map", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 2 {
			return nil, argErr(line, "map", "2", len(args))
		}
		l, ok := args[0].(*List)
		if !ok {
			return nil, errf(ErrArg, line, "map() first argument must be a list")
		}
		if err := in.alloc(line, len(l.Items)); err != nil {
			return nil, err
		}
		out := make([]Value, len(l.Items))
		for i, it := range l.Items {
			v, err := in.Call(args[1], []Value{it}, line)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return &List{Items: out}, nil
	})

	reg("filter", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 2 {
			return nil, argErr(line, "filter", "2", len(args))
		}
		l, ok := args[0].(*List)
		if !ok {
			return nil, errf(ErrArg, line, "filter() first argument must be a list")
		}
		var out []Value
		for _, it := range l.Items {
			v, err := in.Call(args[1], []Value{it}, line)
			if err != nil {
				return nil, err
			}
			if Truthy(v) {
				out = append(out, it)
			}
		}
		if err := in.alloc(line, len(out)); err != nil {
			return nil, err
		}
		return &List{Items: out}, nil
	})

	reg("unique", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr(line, "unique", "1", len(args))
		}
		l, ok := args[0].(*List)
		if !ok {
			return nil, errf(ErrArg, line, "unique() requires a list")
		}
		// An element is dropped when == finds it equal to an earlier one.
		// Scalars dedupe by scalar.Key, other values by appendValueKey.
		seen := map[scalar.Key]bool{}
		var seenKey map[string]bool
		var ids map[Value]uint64
		var buf []byte
		var out []Value
		for _, it := range l.Items {
			var dup bool
			if k, ok := scalar.KeyOf(it); ok {
				dup = seen[k]
				seen[k] = true
			} else {
				if seenKey == nil {
					seenKey, ids = map[string]bool{}, map[Value]uint64{}
				}
				var err error
				if buf, err = appendValueKey(buf[:0], it, ids, 0); err != nil {
					return nil, errf(ErrOp, line, "unique(): %s", err)
				}
				dup = seenKey[string(buf)]
				if !dup {
					seenKey[string(buf)] = true
				}
			}
			if !dup {
				out = append(out, it)
			}
		}
		return &List{Items: out}, nil
	})

	reg("zip", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 2 {
			return nil, argErr(line, "zip", "2", len(args))
		}
		a, ok1 := args[0].(*List)
		b, ok2 := args[1].(*List)
		if !ok1 || !ok2 {
			return nil, errf(ErrArg, line, "zip() requires two lists")
		}
		n := len(a.Items)
		if len(b.Items) < n {
			n = len(b.Items)
		}
		if err := in.alloc(line, n); err != nil {
			return nil, err
		}
		out := make([]Value, n)
		for i := 0; i < n; i++ {
			out[i] = &List{Items: []Value{a.Items[i], b.Items[i]}}
		}
		return &List{Items: out}, nil
	})

	reg("enumerate", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr(line, "enumerate", "1", len(args))
		}
		l, ok := args[0].(*List)
		if !ok {
			return nil, errf(ErrArg, line, "enumerate() requires a list")
		}
		if err := in.alloc(line, len(l.Items)); err != nil {
			return nil, err
		}
		out := make([]Value, len(l.Items))
		for i, it := range l.Items {
			out[i] = &List{Items: []Value{int64(i), it}}
		}
		return &List{Items: out}, nil
	})

	reg("sqrt", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr(line, "sqrt", "1", len(args))
		}
		f, ok := asNumber(args[0])
		if !ok {
			return nil, errf(ErrArg, line, "sqrt() requires a number")
		}
		if f < 0 {
			return nil, errf(ErrValue, line, "sqrt() of negative number")
		}
		return math.Sqrt(f), nil
	})

	reg("pow", func(in *Interp, line int, args []Value) (Value, error) {
		if len(args) != 2 {
			return nil, argErr(line, "pow", "2", len(args))
		}
		a, ok1 := asNumber(args[0])
		b, ok2 := asNumber(args[1])
		if !ok1 || !ok2 {
			return nil, errf(ErrArg, line, "pow() requires numbers")
		}
		return math.Pow(a, b), nil
	})
}

// Sizer lets host objects participate in len().
type Sizer interface{ Size() int }

// KeysValuer lets host map-like objects participate in keys()/values().
type KeysValuer interface {
	MapKeys() []Value
	MapValues() []Value
}
