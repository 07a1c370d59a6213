package nql

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func run(t *testing.T, src string) Value {
	t.Helper()
	in := NewInterp(Limits{}, nil)
	v, err := in.Run(src)
	if err != nil {
		t.Fatalf("run error: %v\nsource:\n%s", err, src)
	}
	return v
}

func runErr(t *testing.T, src string) error {
	t.Helper()
	in := NewInterp(Limits{}, nil)
	_, err := in.Run(src)
	if err == nil {
		t.Fatalf("expected error for:\n%s", src)
	}
	return err
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{"return 1 + 2 * 3", int64(7)},
		{"return (1 + 2) * 3", int64(9)},
		{"return 10 / 4", 2.5},
		{"return 10 % 3", int64(1)},
		{"return -5 + 2", int64(-3)},
		{"return 2.5 * 2", 5.0},
		{"return 1 + 2.0", 3.0},
		{`return "a" + "b"`, "ab"},
	}
	for _, c := range cases {
		if got := run(t, c.src); !ValuesEqual(got, c.want) {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

// TestExactIntArithmetic pins the scalar.Arith rule in NQL: + - * of two
// ints and sum() of ints are exact, a result outside int64 is the float
// the operands give, and a bool counts as 0 or 1.
func TestExactIntArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{"return 9007199254740993 + 0", int64(9007199254740993)},
		{"return sum([9007199254740993, 0])", int64(9007199254740993)},
		{"return sum([9223372036854775807, 1, -1])", int64(9223372036854775807)},
		{"return sum([9223372036854775807, 1])", 9223372036854775808.0},
		{"return sum([1, 2.5, true])", 4.5},
		{"return sum([])", int64(0)},
		{"return -9223372036854775807 - 1", int64(-9223372036854775808)},
		{"return -9223372036854775807 - 2", -9223372036854775808.0},
		{"return 9223372036854775807 + true", 9223372036854775808.0},
		{"return 3037000500 * 3037000500", 9223372037000250000.0},
		{"return -(-9223372036854775807 - 1)", 9223372036854775808.0},
		{"return abs(-9223372036854775807 - 1)", 9223372036854775808.0},
		{"return 9007199254740993 % 2", int64(1)},
		{"return true / 2", 0.5},
	}
	for _, c := range cases {
		if got := run(t, c.src); got != c.want {
			t.Errorf("%s = %#v, want %#v", c.src, got, c.want)
		}
	}
}

// TestRound pins round(): an int is returned unchanged, a float rounds half
// away from zero, and with no digits a NaN, an infinity or a result
// outside int64 is a value error.
func TestRound(t *testing.T) {
	for src, want := range map[string]Value{
		"return round(9007199254740993)":         int64(9007199254740993),
		"return round(-9223372036854775807 - 1)": int64(-9223372036854775808),
		"return round(2.5)":                      int64(3),
		"return round(-2.5)":                     int64(-3),
		"return round(true)":                     int64(1),
		"return round(9.2e18)":                   int64(9200000000000000000),
		"return round(-9223372036854775808.0)":   int64(-9223372036854775808),
		"return round(2.345, 2)":                 2.35,
		"return round(1250, -2)":                 1300.0,
	} {
		if got := run(t, src); got != want {
			t.Errorf("%s = %#v, want %#v", src, got, want)
		}
	}
	for src, want := range map[string]string{
		`return round(float("nan"))`:          "nql value error on line 1: round() of NaN is not an int",
		`return round(float("-inf"))`:         "nql value error on line 1: round() of -Inf is not an int",
		"return round(1e300)":                 "nql value error on line 1: round() of 1e+300 is not an int",
		"return round(9223372036854775808.0)": "nql value error on line 1: round() of 9.223372036854776e+18 is not an int",
	} {
		if err := runErr(t, src); err.Error() != want {
			t.Errorf("%s: %v, want %q", src, err, want)
		}
	}
}

// TestIntOfFloat pins int() of a float: it truncates toward zero while the
// result fits int64, and a NaN, an infinity or a float outside int64 is a
// value error worded like round()'s.
func TestIntOfFloat(t *testing.T) {
	for src, want := range map[string]Value{
		"return int(2.9)":                    int64(2),
		"return int(-2.9)":                   int64(-2),
		"return int(9223372036854774784.0)":  int64(9223372036854774784), // 2^63 - 1024
		"return int(-9223372036854775808.0)": int64(-9223372036854775808),
	} {
		if got := run(t, src); got != want {
			t.Errorf("%s = %#v, want %#v", src, got, want)
		}
	}
	for src, want := range map[string]string{
		`return int(float("nan"))`:          "nql value error on line 1: int() of NaN is not an int",
		`return int(float("inf"))`:          "nql value error on line 1: int() of +Inf is not an int",
		`return int(float("-inf"))`:         "nql value error on line 1: int() of -Inf is not an int",
		"return int(1e300)":                 "nql value error on line 1: int() of 1e+300 is not an int",
		"return int(9223372036854775808.0)": "nql value error on line 1: int() of 9.223372036854776e+18 is not an int",
	} {
		if err := runErr(t, src); err.Error() != want {
			t.Errorf("%s: %v, want %q", src, err, want)
		}
	}
}

// TestRangeLength pins range()'s items at the ends of int64, where the
// next value past the last item would wrap.
func TestRangeLength(t *testing.T) {
	for src, want := range map[string]string{
		"return range(9223372036854775806, 9223372036854775807, 2)":                             "[9223372036854775806]",
		"return range(9223372036854775805, 9223372036854775807, 1)":                             "[9223372036854775805, 9223372036854775806]",
		"return range(-9223372036854775807 - 1, -9223372036854775806)":                          "[-9223372036854775808, -9223372036854775807]",
		"return range(-9223372036854775806, -9223372036854775807 - 1, -1)":                      "[-9223372036854775806, -9223372036854775807]",
		"return range(9223372036854775807, -9223372036854775807 - 1, -9223372036854775807 - 1)": "[9223372036854775807, -1]",
		"return range(10, 0, -3)": "[10, 7, 4, 1]",
		"return range(0, 10, 3)":  "[0, 3, 6, 9]",
		"return range(3, 3)":      "[]",
		"return range(5, 1)":      "[]",
		"return range(1, 5, -1)":  "[]",
	} {
		if got := Repr(run(t, src)); got != want {
			t.Errorf("%s = %s, want %s", src, got, want)
		}
	}
}

// TestRangeChargedBeforeBuilt pins that range() charges its length to the
// allocation budget before it builds the list: an over-budget range fails
// with the budget error and allocates nothing for its items.
func TestRangeChargedBeforeBuilt(t *testing.T) {
	for _, src := range []string{
		"return range(1000000)",
		"return range(-9223372036854775807 - 1, 9223372036854775807)",
	} {
		in := NewInterp(Limits{MaxAllocs: 10}, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := in.Run(src)
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != "nql limit error on line 1: allocation budget exceeded" {
			t.Fatalf("%s: err = %v, want the allocation budget error", src, err)
		}
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 1<<20 {
			t.Errorf("%s allocated %d bytes before failing, want no list", src, bytes)
		}
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"return 1 < 2", true},
		{"return 2 <= 2", true},
		{"return 3 > 4", false},
		{"return 1 == 1.0", true},
		{`return "a" != "b"`, true},
		{"return true and false", false},
		{"return true or false", true},
		{"return not false", true},
		{"return 1 < 2 and 2 < 3", true},
		{`return "b" in ["a", "b"]`, true},
		{`return "z" in ["a", "b"]`, false},
		{`return "ell" in "hello"`, true},
		{`return "k" in {"k": 1}`, true},
	}
	for _, c := range cases {
		if got := run(t, c.src); got != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestVariablesAndScope(t *testing.T) {
	v := run(t, `
let x = 10
let y = x * 2
x = x + 1
return x + y`)
	if v != int64(31) {
		t.Fatalf("got %v", v)
	}
}

func TestAssignUndefinedFails(t *testing.T) {
	err := runErr(t, "x = 1")
	if ClassOf(err) != "name" {
		t.Fatalf("class = %s", ClassOf(err))
	}
}

func TestUndefinedNameFails(t *testing.T) {
	err := runErr(t, "return nonexistent_variable")
	if ClassOf(err) != "name" {
		t.Fatalf("class = %s, err = %v", ClassOf(err), err)
	}
}

func TestIfElse(t *testing.T) {
	v := run(t, `
let x = 5
if x > 10 {
  return "big"
} else if x > 3 {
  return "medium"
} else {
  return "small"
}`)
	if v != "medium" {
		t.Fatalf("got %v", v)
	}
}

func TestForLoop(t *testing.T) {
	v := run(t, `
let total = 0
for i in range(5) {
  total = total + i
}
return total`)
	if v != int64(10) {
		t.Fatalf("got %v", v)
	}
}

func TestForOverListAndMap(t *testing.T) {
	v := run(t, `
let words = []
for w in ["x", "y"] { push(words, w) }
let m = {"a": 1, "b": 2}
let ksum = ""
let vsum = 0
for k, val in m {
  ksum = ksum + k
  vsum = vsum + val
}
return [join("", words), ksum, vsum]`)
	l := v.(*List)
	if l.Items[0] != "xy" || l.Items[1] != "ab" || l.Items[2] != int64(3) {
		t.Fatalf("got %v", Repr(v))
	}
}

func TestForOverString(t *testing.T) {
	v := run(t, `
let n = 0
for ch in "abc" { n = n + 1 }
return n`)
	if v != int64(3) {
		t.Fatalf("got %v", v)
	}
}

func TestWhileBreakContinue(t *testing.T) {
	v := run(t, `
let i = 0
let total = 0
while true {
  i = i + 1
  if i > 10 { break }
  if i % 2 == 0 { continue }
  total = total + i
}
return total`)
	if v != int64(25) { // 1+3+5+7+9
		t.Fatalf("got %v", v)
	}
}

func TestFunctions(t *testing.T) {
	v := run(t, `
func fib(n) {
  if n < 2 { return n }
  return fib(n - 1) + fib(n - 2)
}
return fib(10)`)
	if v != int64(55) {
		t.Fatalf("got %v", v)
	}
}

func TestFunctionArity(t *testing.T) {
	err := runErr(t, `
func f(a, b) { return a + b }
return f(1)`)
	if ClassOf(err) != "argument" {
		t.Fatalf("class = %s", ClassOf(err))
	}
}

func TestClosuresCapture(t *testing.T) {
	v := run(t, `
func make_adder(n) {
  return fn(x) => x + n
}
let add5 = make_adder(5)
return add5(10)`)
	if v != int64(15) {
		t.Fatalf("got %v", v)
	}
}

func TestLambdaWithSorted(t *testing.T) {
	v := run(t, `
let xs = [[1, "b"], [3, "a"], [2, "c"]]
let bysecond = sorted(xs, fn(p) => p[1])
return bysecond[0][0]`)
	if v != int64(3) {
		t.Fatalf("got %v", v)
	}
}

func TestListOps(t *testing.T) {
	v := run(t, `
let l = [3, 1, 2]
push(l, 4)
let s = sorted(l)
let r = sorted(l, true)
return [len(l), s[0], r[0], sum(l), min(l), max(l)]`)
	l := v.(*List)
	want := []Value{int64(4), int64(1), int64(4), int64(10), int64(1), int64(4)}
	for i, w := range want {
		if !ValuesEqual(l.Items[i], w) {
			t.Fatalf("item %d = %v, want %v (all: %s)", i, l.Items[i], w, Repr(v))
		}
	}
}

func TestListIndexing(t *testing.T) {
	if v := run(t, "return [10, 20, 30][-1]"); v != int64(30) {
		t.Fatalf("negative index = %v", v)
	}
	err := runErr(t, "return [1][5]")
	if ClassOf(err) != "index" {
		t.Fatalf("class = %s", ClassOf(err))
	}
}

func TestMapOps(t *testing.T) {
	v := run(t, `
let m = {}
m["a"] = 1
m["b"] = 2
m["a"] = 10
let d = get(m, "c", 99)
return [len(m), m["a"], d, contains(m, "b")]`)
	l := v.(*List)
	if l.Items[0] != int64(2) || l.Items[1] != int64(10) || l.Items[2] != int64(99) || l.Items[3] != true {
		t.Fatalf("got %s", Repr(v))
	}
}

func TestMapMissingKey(t *testing.T) {
	err := runErr(t, `return {"a": 1}["z"]`)
	if ClassOf(err) != "index" {
		t.Fatalf("class = %s", ClassOf(err))
	}
}

func TestMapDotAccess(t *testing.T) {
	if v := run(t, `return {"name": "sw1"}.name`); v != "sw1" {
		t.Fatalf("got %v", v)
	}
	err := runErr(t, `return {"name": "sw1"}.ghost`)
	if ClassOf(err) != "attribute" {
		t.Fatalf("class = %s", ClassOf(err))
	}
}

func TestStringBuiltins(t *testing.T) {
	v := run(t, `
let ip = "15.76.1.2"
let parts = split(ip, ".")
return [parts[0] + "." + parts[1], startswith(ip, "15."), upper("ab"), replace("a-b", "-", "_")]`)
	l := v.(*List)
	if l.Items[0] != "15.76" || l.Items[1] != true || l.Items[2] != "AB" || l.Items[3] != "a_b" {
		t.Fatalf("got %s", Repr(v))
	}
}

func TestConversions(t *testing.T) {
	v := run(t, `return [int("42"), float("2.5"), str(7), int(3.9), round(2.7), round(2.345, 2)]`)
	l := v.(*List)
	if l.Items[0] != int64(42) || l.Items[1] != 2.5 || l.Items[2] != "7" || l.Items[3] != int64(3) || l.Items[4] != int64(3) {
		t.Fatalf("got %s", Repr(v))
	}
	if l.Items[5].(float64) < 2.33 || l.Items[5].(float64) > 2.36 {
		t.Fatalf("round 2 digits = %v", l.Items[5])
	}
	err := runErr(t, `return int("abc")`)
	if ClassOf(err) != "value" {
		t.Fatalf("class = %s", ClassOf(err))
	}
}

func TestMapFilterBuiltins(t *testing.T) {
	v := run(t, `
let xs = range(10)
let evens = filter(xs, fn(x) => x % 2 == 0)
let doubled = map(evens, fn(x) => x * 2)
return sum(doubled)`)
	if v != int64(40) {
		t.Fatalf("got %v", v)
	}
}

func TestUniqueZipEnumerate(t *testing.T) {
	v := run(t, `
let u = unique([1, 2, 2, 3, 1])
let z = zip(["a", "b"], [1, 2])
let e = enumerate(["x", "y"])
return [len(u), z[1][0], e[1][0]]`)
	l := v.(*List)
	if l.Items[0] != int64(3) || l.Items[1] != "b" || l.Items[2] != int64(1) {
		t.Fatalf("got %s", Repr(v))
	}
}

func TestPrintCapture(t *testing.T) {
	in := NewInterp(Limits{}, nil)
	_, err := in.Run(`print("hello", 42)`)
	if err != nil {
		t.Fatal(err)
	}
	if in.Stdout() != "hello 42\n" {
		t.Fatalf("stdout = %q", in.Stdout())
	}
}

func TestGlobalsInjection(t *testing.T) {
	in := NewInterp(Limits{}, map[string]Value{"answer": int64(42)})
	v, err := in.Run("return answer")
	if err != nil || v != int64(42) {
		t.Fatalf("v=%v err=%v", v, err)
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		"let = 5",
		"if { }",
		"for in x { }",
		"return (1 + ",
		"let x = [1, 2",
		`let s = "unterminated`,
		"func f( { }",
		"1 +",
		"let x = 5 !",
		"fn(x) x + 1", // missing =>
		"x.+",
		"while { }",
	}
	for _, src := range bad {
		in := NewInterp(Limits{}, nil)
		_, err := in.Run(src)
		if err == nil {
			t.Errorf("expected syntax error for %q", src)
			continue
		}
		if _, ok := err.(*SyntaxError); !ok {
			t.Errorf("expected *SyntaxError for %q, got %T (%v)", src, err, err)
		}
	}
}

func TestSyntaxErrorLineNumbers(t *testing.T) {
	in := NewInterp(Limits{}, nil)
	_, err := in.Run("let a = 1\nlet b = 2\nlet = 3")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("got %T", err)
	}
	if se.Line != 3 {
		t.Fatalf("line = %d, want 3", se.Line)
	}
}

func TestRuntimeErrorClasses(t *testing.T) {
	cases := []struct {
		src   string
		class string
	}{
		{"return ghost_fn()", "name"},
		{"return 1 + []", "operation"},
		{`return "a" - "b"`, "operation"},
		{"return 1 / 0", "value"},
		{"return len(5)", "operation"},
		{"return [1][99]", "index"},
		{"return sum(5)", "argument"},
		{"return min([])", "value"},
		{"let f = 5 f(1)", "operation"},
		{"for x in 5 { }", "operation"},
	}
	for _, c := range cases {
		in := NewInterp(Limits{}, nil)
		_, err := in.Run(c.src)
		if err == nil {
			t.Errorf("expected error for %q", c.src)
			continue
		}
		if got := ClassOf(err); got != c.class {
			t.Errorf("%q class = %s, want %s (%v)", c.src, got, c.class, err)
		}
	}
}

func TestStepLimit(t *testing.T) {
	in := NewInterp(Limits{MaxSteps: 1000}, nil)
	_, err := in.Run("while true { }")
	if err == nil || ClassOf(err) != "limit" {
		t.Fatalf("err = %v", err)
	}
}

func TestDepthLimit(t *testing.T) {
	in := NewInterp(Limits{MaxDepth: 10}, nil)
	_, err := in.Run("func f(n) { return f(n + 1) }\nreturn f(0)")
	if err == nil || ClassOf(err) != "limit" {
		t.Fatalf("err = %v", err)
	}
}

func TestAllocLimit(t *testing.T) {
	in := NewInterp(Limits{MaxAllocs: 100}, nil)
	_, err := in.Run("let l = []\nwhile true { push(l, 1) }")
	if err == nil || ClassOf(err) != "limit" {
		t.Fatalf("err = %v", err)
	}
}

// TestConcatChargesAllocs pins that string and list concatenation charge
// their result length to the allocation budget, so a doubling loop fails
// with a limit error instead of exhausting memory.
func TestConcatChargesAllocs(t *testing.T) {
	for _, src := range []string{
		"let s = \"x\"\nwhile true { s = s + s }",
		"let l = [1]\nwhile true { l = l + l }",
	} {
		_, err := NewInterp(Limits{MaxAllocs: 1 << 20}, nil).Run(src)
		if err == nil || err.Error() != "nql limit error on line 2: allocation budget exceeded" {
			t.Errorf("%q: err = %v, want the allocation budget error", src, err)
		}
	}
}

func TestDeadline(t *testing.T) {
	in := NewInterp(Limits{MaxDuration: 10 * time.Millisecond, MaxSteps: 1 << 60}, nil)
	start := time.Now()
	_, err := in.Run("while true { }")
	if err == nil || ClassOf(err) != "limit" {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("deadline enforcement too slow")
	}
}

func TestReprDeterministic(t *testing.T) {
	v := run(t, `return {"b": 1, "a": [1, 2.5, "x", nil, true]}`)
	want := `{"b": 1, "a": [1, 2.5, "x", nil, true]}`
	if got := Repr(v); got != want {
		t.Fatalf("repr = %s", got)
	}
}

func TestReprFloatInt(t *testing.T) {
	if got := Repr(2.0); got != "2.0" {
		t.Fatalf("repr(2.0) = %s", got)
	}
	if got := Repr(int64(2)); got != "2" {
		t.Fatalf("repr(2) = %s", got)
	}
}

func TestValuesEqualDeep(t *testing.T) {
	a := run(t, `return {"k": [1, {"n": 2}]}`)
	b := run(t, `return {"k": [1.0, {"n": 2.0}]}`)
	if !ValuesEqual(a, b) {
		t.Fatal("deep numeric equality failed")
	}
	c := run(t, `return {"k": [1, {"n": 3}]}`)
	if ValuesEqual(a, c) {
		t.Fatal("difference not detected")
	}
}

func TestCommentsIgnored(t *testing.T) {
	v := run(t, `
# setup
let x = 1 # inline
# return early?
return x`)
	if v != int64(1) {
		t.Fatalf("got %v", v)
	}
}

func TestSliceBuiltin(t *testing.T) {
	v := run(t, `return [slice([1,2,3,4], 1, 3), slice("hello", 0, 2), slice([1,2], -1, 99)]`)
	l := v.(*List)
	first := l.Items[0].(*List)
	if len(first.Items) != 2 || first.Items[0] != int64(2) {
		t.Fatalf("slice list = %s", Repr(v))
	}
	if l.Items[1] != "he" {
		t.Fatalf("slice string = %s", Repr(v))
	}
}

func TestNestedDataStructures(t *testing.T) {
	v := run(t, `
let groups = {}
for e in [["a", 1], ["b", 2], ["a", 3]] {
  let k = e[0]
  if not contains(groups, k) { groups[k] = [] }
  push(groups[k], e[1])
}
return groups`)
	m := v.(*Map)
	av, _ := m.Get("a")
	if len(av.(*List).Items) != 2 {
		t.Fatalf("got %s", Repr(v))
	}
}

// --- property-based tests ---

func TestPropParseReprRoundTrip(t *testing.T) {
	// Any list of small ints: Repr parses back to an equal value.
	f := func(xs []int8) bool {
		items := make([]Value, len(xs))
		for i, x := range xs {
			items[i] = int64(x)
		}
		l := NewList(items...)
		in := NewInterp(Limits{}, nil)
		v, err := in.Run("return " + Repr(l))
		if err != nil {
			return false
		}
		return ValuesEqual(v, l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropSortedIsSorted(t *testing.T) {
	f := func(xs []int16) bool {
		if len(xs) == 0 {
			return true
		}
		var sb strings.Builder
		sb.WriteString("return sorted([")
		for i, x := range xs {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(Repr(int64(x)))
		}
		sb.WriteString("])")
		in := NewInterp(Limits{}, nil)
		v, err := in.Run(sb.String())
		if err != nil {
			return false
		}
		l := v.(*List)
		if len(l.Items) != len(xs) {
			return false
		}
		for i := 1; i < len(l.Items); i++ {
			if l.Items[i-1].(int64) > l.Items[i].(int64) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropSumMatchesGo(t *testing.T) {
	f := func(xs []int16) bool {
		var want int64
		var sb strings.Builder
		sb.WriteString("return sum([")
		for i, x := range xs {
			want += int64(x)
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(Repr(int64(x)))
		}
		sb.WriteString("])")
		in := NewInterp(Limits{}, nil)
		v, err := in.Run(sb.String())
		if err != nil {
			return false
		}
		return v == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropMapSetGet(t *testing.T) {
	f := func(keys []string) bool {
		m := NewMap()
		for i, k := range keys {
			if err := m.Set(k, int64(i)); err != nil {
				return false
			}
		}
		for i, k := range keys {
			v, ok := m.Get(k)
			if !ok {
				return false
			}
			// Later duplicate keys overwrite; accept any index matching the
			// last occurrence.
			last := i
			for j := i + 1; j < len(keys); j++ {
				if keys[j] == k {
					last = j
				}
			}
			if v != int64(last) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMapShapeMatchesSetBoxed pins that a shaped map equals the map
// SetBoxed builds from the same keys and values, including a repeated key
// (first position, later value), an int/float key collision and an
// unhashable key (dropped), and that writes to one shaped map leave its
// siblings alone past the index threshold.
func TestMapShapeMatchesSetBoxed(t *testing.T) {
	keys := []Value{"a", "b", "a", 1.0, int64(1), NewList(), "c"}
	for n := 9; n < 12; n++ {
		keys = append(keys, string(rune('d'+n)))
	}
	shape := NewMapShape(keys)
	build := func(base int64) (*Map, *Map) {
		want := NewMapCap(len(keys))
		vals := make([]Value, shape.Len())
		for i, k := range keys {
			v := base + int64(i)
			want.SetBoxed(k, v)
			if slot := shape.Slot(i); slot >= 0 {
				vals[slot] = v
			}
		}
		return shape.Map(vals), want
	}
	m1, want1 := build(0)
	m2, want2 := build(100)
	for _, c := range []struct{ got, want *Map }{{m1, want1}, {m2, want2}} {
		if Repr(c.got) != Repr(c.want) || !ValuesEqual(c.got, c.want) {
			t.Fatalf("shaped map %s, want %s", Repr(c.got), Repr(c.want))
		}
	}
	if shape.Slot(5) != -1 {
		t.Fatalf("unhashable key got slot %d, want -1", shape.Slot(5))
	}
	before := Repr(m2)
	_ = m1.Set("a", "x")
	_ = m1.Set("new", "y")
	m1.Delete("b")
	if Repr(m2) != before {
		t.Fatalf("sibling changed by writes: %s, want %s", Repr(m2), before)
	}
	_ = want1.Set("a", "x")
	_ = want1.Set("new", "y")
	want1.Delete("b")
	if Repr(m1) != Repr(want1) {
		t.Fatalf("after writes %s, want %s", Repr(m1), Repr(want1))
	}
	for _, k := range want1.Keys() {
		wv, _ := want1.Get(k)
		if gv, ok := m1.Get(k); !ok || !ValuesEqual(gv, wv) {
			t.Fatalf("m1[%v] = %v, %v; want %v", k, gv, ok, wv)
		}
	}
	if _, ok := m2.Get("new"); ok {
		t.Fatal("key added to one shaped map is visible in its sibling")
	}
}
