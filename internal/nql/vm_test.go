package nql

import (
	"strings"
	"testing"
)

// pinCase is one NQL program and the outcome the language defines for it.
type pinCase struct {
	src  string
	want string // Repr of the returned value (success cases)
	out  string // captured stdout
	err  string // exact error string; "" when the program succeeds
}

// The corpora below pin values, stdout and error strings over the whole
// statement and expression surface. Their outcomes were recorded while NQL
// still had a second, tree-walking engine, and both engines reproduced
// every one; the tests keep the "EngineParity" names of the differential
// suite the tables replaced. FuzzRun seeds from every program here.

var semanticsCorpus = []pinCase{
	// Arithmetic, logic, comparison chains.
	{src: `return [1 + 2 * 3, 10 / 4, 10 % 3, -5 + 2, 2.5 * 2, "a" + "b", [1] + [2]]`, want: `[7, 2.5, 1, -3, 5.0, "ab", [1, 2]]`},
	{src: `return [1 < 2, 2 <= 2, 1 == 1.0, "a" != "b", true and false, true or false, not false, 3 and 2, 0 or "", "b" in ["a", "b"], "ell" in "hello", "k" in {"k": 1}]`, want: "[true, true, true, true, false, true, true, true, false, true, true, true]"},
	// Short-circuiting must skip the right operand.
	{src: `let n = 0
func bump() { n = n + 1 return true }
let a = false and bump()
let b = true or bump()
return [a, b, n]`, want: "[false, true, 0]"},
	// Scoping, shadowing, re-let, loop-variable isolation.
	{src: `let x = 10
let y = x * 2
x = x + 1
let x = 100
if true { let x = 5 y = y + x }
for x in range(3) { }
return [x, y]`, want: "[100, 25]"},
	// While/break/continue, nested loops, loop in function.
	{src: `let total = 0
let i = 0
while true {
  i = i + 1
  if i > 10 { break }
  if i % 2 == 0 { continue }
  for j in range(3) { if j == 2 { break } total = total + 1 }
  total = total + i
}
return [i, total]`, want: "[11, 35]"},
	// Functions, recursion, closures capturing and mutating state.
	{src: `func fib(n) { if n < 2 { return n } return fib(n - 1) + fib(n - 2) }
func make_counter() {
  let n = 0
  func inc() { n = n + 1 return n }
  return inc
}
let c1 = make_counter()
let c2 = make_counter()
c1()
c1()
return [fib(10), c1(), c2()]`, want: "[55, 3, 1]"},
	// Per-iteration loop capture: each lambda sees its own iteration.
	{src: `let fs = []
for i in range(3) { push(fs, fn() => i) }
let out = []
for f in fs { push(out, f()) }
return out`, want: "[0, 1, 2]"},
	// Capture through an intermediate function.
	{src: `let base = 100
func outer(a) {
  func middle(b) {
    func inner(c) { return base + a + b + c }
    return inner
  }
  return middle
}
return outer(1)(2)(3)`, want: "106"},
	// Closure sees later assignment to a captured variable.
	{src: `let x = 1
func f() { return x }
x = 2
return f()`, want: "2"},
	// Two-variable for over maps and pair lists; string iteration.
	{src: `let m = {"a": 1, "b": 2}
let ks = ""
let vs = 0
for k, v in m { ks = ks + k vs = vs + v }
let ps = 0
for a, b in [[1, 2], [3, 4]] { ps = ps + a * b }
let n = 0
for ch in "abc" { n = n + 1 }
return [ks, vs, ps, n]`, want: `["ab", 3, 14, 3]`},
	// Containers: literals, indexing, negative indices, nesting, maps
	// with mixed scalar keys, dot access, index/attr assignment.
	{src: `let l = [10, 20, 30]
l[0] = 11
let m = {1: "int", 1.5: "float", true: "bool", "s": "str"}
m[2] = "two"
let groups = {}
for e in [["a", 1], ["b", 2], ["a", 3]] {
  let k = e[0]
  if not contains(groups, k) { groups[k] = [] }
  push(groups[k], e[1])
}
return [l[-1], l[0], m[1], m[true], {"name": "sw1"}.name, groups, len(m)]`, want: `[30, 11, "int", "bool", "sw1", {"a": [1, 3], "b": [2]}, 5]`},
	// Map insertion order is observable via Repr.
	{src: `let m = {}
m["z"] = 1
m["a"] = 2
m["z"] = 3
delete(m, "a")
m["b"] = 4
return m`, want: `{"z": 3, "b": 4}`},
	// Builtins: sorting with key functions, map/filter, strings.
	{src: `let xs = [[1, "b"], [3, "a"], [2, "c"]]
let ys = range(10)
return [
  sorted(xs, fn(p) => p[1]),
  sorted([3, 1, 2], true),
  sum(map(filter(ys, fn(x) => x % 2 == 0), fn(x) => x * 2)),
  join("-", split("a.b.c", ".")),
  upper("ab"), slice("hello", 1, 3), unique([1, 2, 2, 1.0, "1"]),
  zip(["a"], [1, 2]), enumerate(["x", "y"]),
  min(3, 1, 2), max([4, 9]), round(2.345, 2), abs(-3.5), int("42"), float("2.5")
]`, want: `[[[3, "a"], [1, "b"], [2, "c"]], [3, 2, 1], 40, "a-b-c", "AB", "el", [1, 2, "1"], [["a", 1]], [[0, "x"], [1, "y"]], 1, 9, 2.35, 3.5, 42, 2.5]`},
	// print capture ordering across calls and loops.
	{src: `for i in range(3) { print("line", i) }
print("done")`, want: "nil", out: `line 0
line 1
line 2
done
`},
	// return without value; script falling off the end; bare break at
	// the top level ends the script.
	{src: `let x = 1
func f() { return }
return f()`, want: "nil"},
	{src: `let x = 1`, want: "nil"},
	{src: `let x = 1
break
return x`, want: "nil"},
	// Lambdas as values, immediately-invoked, stored in containers.
	{src: `let ops = {"double": fn(x) => x * 2, "neg": fn(x) => 0 - x}
return [ops["double"](21), ops["neg"](5), (fn(x) => x + 1)(41)]`, want: "[42, -5, 42]"},
	// Deep recursion near (but under) sensible depth.
	{src: `func down(n) { if n == 0 { return 0 } return down(n - 1) }
return down(150)`, want: "0"},
	// Duplicate parameter names: the last one wins, like Define.
	{src: `func f(x, x) { return x }
return f(1, 2)`, want: "2"},
	{src: `return (fn(a, b, a) => [a, b])(1, 2, 3)`, want: "[3, 2]"},
}

var errorCorpus = []pinCase{
	// name errors
	{src: "return nonexistent_variable", err: `nql name error on line 1: undefined name "nonexistent_variable"`},
	{src: "x = 1", err: `nql name error on line 1: cannot assign to undefined variable "x" (use let)`},
	{src: "return ghost_fn()", err: `nql name error on line 1: undefined name "ghost_fn"`},
	{src: `let raw = read_csv("network_data.csv")
return 1`, err: `nql name error on line 1: undefined name "read_csv"`},
	// index errors
	{src: "return [1][5]", err: "nql index error on line 1: list index 5 out of range (len 1)"},
	{src: "return [1, 2][-3]", err: "nql index error on line 1: list index -3 out of range (len 2)"},
	{src: `return {"a": 1}["z"]`, err: `nql index error on line 1: map has no key "z"`},
	{src: `return "abc"[7]`, err: "nql index error on line 1: string index 7 out of range (len 3)"},
	{src: `return [1]["x"]`, err: "nql index error on line 1: list index must be int, got string"},
	{src: `let l = [1]
l[9] = 2`, err: "nql index error on line 2: list index 9 out of range (len 1)"},
	{src: `let m = {}
m[[1]] = 2`, err: "nql index error on line 2: unhashable map key of type list"},
	// attribute errors
	{src: `return {"name": "sw1"}.ghost`, err: `nql attribute error on line 1: map has no key "ghost"`},
	{src: "return [1].ghost", err: `nql attribute error on line 1: list has no attribute "ghost"`},
	{src: `let x = 5
x.attr = 1`, err: `nql operation error on line 2: cannot assign attribute "attr" on int`},
	// argument errors
	{src: "return len(1, 2)", err: "nql argument error on line 1: len() takes 1 argument(s), got 2"},
	{src: "return sum(5)", err: "nql argument error on line 1: sum() requires a list"},
	{src: `func f(a, b) { return a }
return f(1)`, err: "nql argument error on line 2: f takes 2 argument(s), got 1"},
	{src: "return (fn(x) => x)(1, 2)", err: "nql argument error on line 1: <lambda> takes 1 argument(s), got 2"},
	// operation errors
	{src: `return 1 + []`, err: "nql operation error on line 1: unsupported operand types for +: int and list"},
	{src: `return "a" - "b"`, err: "nql operation error on line 1: unsupported operand types for -: string and string"},
	{src: `let banner = "total nodes: " + 0
return 1`, err: "nql operation error on line 1: cannot add string and int (use str())"},
	{src: "return -[1]", err: "nql operation error on line 1: cannot negate list"},
	{src: "return len(5)", err: "nql operation error on line 1: len() not supported for int"},
	{src: "let f = 5 f(1)", err: "nql operation error on line 1: int is not callable"},
	{src: "for x in 5 { }", err: "nql operation error on line 1: value of type int is not iterable"},
	{src: `for a, b in [1] { }`, err: "nql operation error on line 1: two-variable for over a list requires [a, b] pairs, got int"},
	{src: `for a, b in "xy" { }`, err: "nql operation error on line 1: cannot unpack string iteration into two variables"},
	{src: `return 1 in 5`, err: "nql operation error on line 1: 'in' not supported for int"},
	{src: `return 5["k"]`, err: "nql operation error on line 1: value of type int is not indexable"},
	// value errors
	{src: "return 1 / 0", err: "nql value error on line 1: division by zero"},
	{src: "return 5 % 0", err: "nql value error on line 1: modulo by zero"},
	{src: "return min([])", err: "nql value error on line 1: min() of empty sequence"},
	{src: `return int("abc")`, err: `nql value error on line 1: cannot convert "abc" to int`},
	{src: "return sqrt(0 - 1)", err: "nql value error on line 1: sqrt() of negative number"},
	// error position: the failing line number must match.
	{src: `let a = 1
let b = 2
return c`, err: `nql name error on line 3: undefined name "c"`},
	{src: `let a = 1
let l = [1, 2]
let i = l[5]
return i`, err: "nql index error on line 3: list index 5 out of range (len 2)"},
}

var globalsCorpus = []pinCase{
	{src: `return answer + 1`, want: "43"},
	{src: `answer = 7
return answer`, want: "7"},
	{src: `let answer = 1
return answer`, want: "1"},
	{src: `sorted = 5
return sorted`, want: "5"},
	{src: `return len(tags)`, want: "2"},
	{src: `push(tags, "c")
return tags`, want: `["a", "b", "c"]`},
}

// pinGlobals are the host globals globalsCorpus runs against.
func pinGlobals() map[string]Value {
	return map[string]Value{"answer": int64(42), "tags": NewList("a", "b")}
}

// checkPinned runs every case on a fresh interpreter and requires the
// pinned value, stdout and error string.
func checkPinned(t *testing.T, corpus []pinCase, globals func() map[string]Value) {
	t.Helper()
	for _, c := range corpus {
		var g map[string]Value
		if globals != nil {
			g = globals()
		}
		in := NewInterp(Limits{}, g)
		v, err := in.Run(c.src)
		gotErr := ""
		if err != nil {
			gotErr = err.Error()
		}
		switch {
		case gotErr != c.err:
			t.Errorf("error = %q, want %q\nsource:\n%s", gotErr, c.err, c.src)
		case c.err == "" && Repr(v) != c.want:
			t.Errorf("value = %s, want %s\nsource:\n%s", Repr(v), c.want, c.src)
		case c.err != "" && v != nil:
			t.Errorf("failed run returned %s\nsource:\n%s", Repr(v), c.src)
		}
		if got := in.Stdout(); got != c.out {
			t.Errorf("stdout = %q, want %q\nsource:\n%s", got, c.out, c.src)
		}
	}
}

// TestEngineParitySemantics pins the semantics corpus.
func TestEngineParitySemantics(t *testing.T) { checkPinned(t, semanticsCorpus, nil) }

// TestEngineParityErrors pins byte-exact error strings (class, line and
// message) for the failure classes the benchmark's Table 5 taxonomy
// measures.
func TestEngineParityErrors(t *testing.T) { checkPinned(t, errorCorpus, nil) }

// TestEngineParityGlobals pins host-global behaviour: resolution order
// against builtins, shadowing by script bindings, assignment to injected
// names.
func TestEngineParityGlobals(t *testing.T) { checkPinned(t, globalsCorpus, pinGlobals) }

// TestEngineParitySequentialRuns pins that global stores persist across
// sequential Run calls on one Interp: the VM mirrors slot stores into the
// Interp before its pooled machine is reset.
func TestEngineParitySequentialRuns(t *testing.T) {
	in := NewInterp(Limits{}, map[string]Value{"g": int64(1)})
	if _, err := in.Run("g = g + 1"); err != nil {
		t.Fatal(err)
	}
	v, err := in.Run("return g")
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(2) {
		t.Fatalf("global store lost across runs: got %v, want 2", v)
	}
}

// limitCases pins the budget errors: depth and allocation errors exactly,
// the step budget by class and message (where a step budget trips depends
// on how finely an engine counts steps).
var limitCases = []struct {
	limits Limits
	src    string
	err    string // exact error string; for the step budget a substring
}{
	{Limits{MaxDepth: 10}, "func f(n) { return f(n + 1) }\nreturn f(0)",
		"nql limit error on line 1: call depth exceeded (10)"},
	{Limits{MaxAllocs: 100}, "let l = []\nwhile true { push(l, 1) }",
		"nql limit error on line 2: allocation budget exceeded"},
	{Limits{MaxSteps: 1000}, "while true { }",
		"step budget exceeded (1000 steps)"},
}

// TestEngineParityLimits pins the resource-limit errors.
func TestEngineParityLimits(t *testing.T) {
	for _, c := range limitCases {
		_, err := NewInterp(c.limits, nil).Run(c.src)
		if err == nil || ClassOf(err) != "limit" {
			t.Fatalf("%q: error = %v, want a limit-class error", c.src, err)
		}
		if c.limits.MaxSteps != 0 {
			if !strings.Contains(err.Error(), c.err) {
				t.Errorf("%q: error = %q, want it to contain %q", c.src, err, c.err)
			}
		} else if err.Error() != c.err {
			t.Errorf("%q: error = %q, want %q", c.src, err, c.err)
		}
	}
}

// TestVMClosureCallableFromBuiltins pins that compiled closures flow
// through builtins that call back into the engine (sorted key functions).
func TestVMClosureCallableFromBuiltins(t *testing.T) {
	in := NewInterp(Limits{}, nil)
	v, err := in.Run(`
let xs = [3, 1, 2]
return sorted(xs, fn(x) => 0 - x)`)
	if err != nil {
		t.Fatal(err)
	}
	if Repr(v) != "[3, 2, 1]" {
		t.Fatalf("got %s", Repr(v))
	}
}

// TestVMStepLimitContainsRunaway mirrors the ablation benchmark: a runaway
// loop must be cut off promptly under a small step budget.
func TestVMStepLimitContainsRunaway(t *testing.T) {
	in := NewInterp(Limits{MaxSteps: 10_000}, nil)
	_, err := in.Run("while true { }")
	if err == nil || ClassOf(err) != "limit" {
		t.Fatalf("runaway not contained: %v", err)
	}
}

// TestProgramCompiledOnce pins that compilation is cached on the Program.
func TestProgramCompiledOnce(t *testing.T) {
	prog, err := Parse("return 1 + 2")
	if err != nil {
		t.Fatal(err)
	}
	c1, err1 := prog.Compiled()
	c2, err2 := prog.Compiled()
	if err1 != nil || err2 != nil || c1 == nil || c1 != c2 {
		t.Fatalf("Compiled not cached: %p %p (%v %v)", c1, c2, err1, err2)
	}
}
