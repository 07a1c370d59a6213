package nql

import (
	"fmt"
	"testing"

	"repro/internal/queries"
)

// tableObj is a host table whose records() builds one map per row. It is
// not a RowSource, so loops over it always take the materializing path.
type tableObj struct {
	cols []string
	rows [][]Value
}

func (o *tableObj) TypeName() string { return "table" }

func (o *tableObj) row(i int) *Map {
	m := NewMap()
	for j, c := range o.cols {
		_ = m.Set(c, o.rows[i][j])
	}
	return m
}

func (o *tableObj) Member(name string) (Value, bool) {
	switch name {
	case "records", "to_records":
		return &Builtin{Name: name, Fn: func(in *Interp, line int, args []Value) (Value, error) {
			items := make([]Value, len(o.rows))
			for i := range o.rows {
				items[i] = o.row(i)
			}
			return NewList(items...), nil
		}}, true
	case "append":
		return &Builtin{Name: name, Fn: func(in *Interp, line int, args []Value) (Value, error) {
			o.rows = append(o.rows, append([]Value(nil), args...))
			return nil, nil
		}}, true
	case "set":
		// set(i, j, v) writes a copy of row i, so row snapshots keep
		// theirs.
		return &Builtin{Name: name, Fn: func(in *Interp, line int, args []Value) (Value, error) {
			i, j := int(args[0].(int64)), int(args[1].(int64))
			o.rows[i] = append([]Value(nil), o.rows[i]...)
			o.rows[i][j] = args[2]
			return nil, nil
		}}, true
	}
	return nil, false
}

// rowTable is the same table as a RowSource.
type rowTable struct{ *tableObj }

func (o rowTable) Rows() Rows {
	return &tableRows{o.cols, append([][]Value(nil), o.rows...)}
}

type tableRows struct {
	cols []string
	rows [][]Value
}

func (r *tableRows) Len() int { return len(r.rows) }

func (r *tableRows) Field(i int, key string) (Value, bool) {
	for j, c := range r.cols {
		if c == key {
			switch v := r.rows[i][j].(type) {
			case nil, bool, int64, float64, string:
				return v, true
			}
			return nil, false
		}
	}
	return nil, false
}

func (r *tableRows) Row(i int) *Map { return (&tableObj{r.cols, r.rows}).row(i) }

func newTable() *tableObj {
	return &tableObj{
		cols: []string{"name", "n", "tags"},
		rows: [][]Value{
			{"a", int64(1), "x"},
			{"b", int64(2), nil},
			{"c", int64(3), "y"},
			{"d", int64(4), "x"},
		},
	}
}

// usesRowForm reports whether src compiles any for loop to the row form.
func usesRowForm(t *testing.T, src string) bool {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	code, err := prog.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	protos := append([]*FuncProto{code.main}, code.protos...)
	for _, p := range protos {
		for _, ins := range p.code {
			if ins.op == opRowIter {
				return true
			}
		}
	}
	return false
}

type rowRun struct {
	value, stdout, err string
	steps              int
}

func runTable(src string, host Value, limits Limits) rowRun {
	in := NewInterp(limits, map[string]Value{"t": host})
	v, err := in.Run(src)
	r := rowRun{value: Repr(v), stdout: in.Stdout(), steps: in.Steps()}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// rowFormCases are loops the compiler puts in row form, with the outcome
// the materializing path gives.
var rowFormCases = []struct{ src, want, err string }{
	{src: `let s = 0
for r in t.records() { s = s + r["n"] }
return s`, want: "10"},
	{src: `let out = []
for r in t.to_records() { if r["tags"] == "x" { push(out, r["name"]) } }
return out`, want: `["a", "d"]`},
	// break, continue and return inside the loop.
	{src: `let out = []
for r in t.records() {
  if r["n"] == 2 { continue }
  if r["n"] > 3 { break }
  push(out, r["name"])
}
return out`, want: `["a", "c"]`},
	{src: `func find(k) {
  for r in t.records() { if r["n"] == k { return r["name"] } }
  return nil
}
return [find(3), find(9)]`, want: `["c", nil]`},
	// Nested row loops, each reading its own variable and the outer one.
	{src: `let pairs = []
for a in t.records() {
  for b in t.records() { if a["n"] + b["n"] == 5 and a["n"] < b["n"] { push(pairs, a["name"] + b["name"]) } }
}
return pairs`, want: `["ad", "bc"]`},
	// The body changes the table it iterates: it sees the loop-start rows.
	{src: `let seen = []
for r in t.records() {
  push(seen, r["name"])
  t.append("z", 9, nil)
  t.set(3, 0, "changed")
}
return [seen, len(t.records())]`, want: `[["a", "b", "c", "d"], 8]`},
	// Lambdas and funcs that do not mention the variable are fine.
	{src: `let out = []
for r in t.records() { push(out, sorted([r["n"], 0], fn(x) => -x)) }
return out`, want: "[[1, 0], [2, 0], [3, 0], [4, 0]]"},
	{src: `let out = []
for r in t.records() { print(r["name"], r["tags"]) }
return nil`, want: "nil"},
	// A missing key raises the map's error on the line that read it.
	{src: `let s = 0
for r in t.records() {
  s = s + r["n"]
  s = s + r["bandwidth"]
}`, err: `nql index error on line 4: map has no key "bandwidth"`},
}

// escapeCases are loops whose variable escapes or could, so they keep the
// materializing path.
var escapeCases = []struct{ name, src string }{
	{"stored", `let last = nil
for r in t.records() { last = r }
return last`},
	{"pushed", `let rows = []
for r in t.records() { push(rows, r) }
return rows`},
	{"passed", `let n = 0
for r in t.records() { n = n + len(r) }
return n`},
	{"returned", `for r in t.records() { if r["n"] == 2 { return r } }`},
	{"lambda", `let fs = []
for r in t.records() { push(fs, fn() => r["n"]) }
return map(fn(f) => f(), fs)`},
	{"func", `let out = []
for r in t.records() {
  func name() { return r["name"] }
  push(out, name())
}
return out`},
	{"written", `for r in t.records() { r["n"] = 0 }
return t.records()`},
	{"non-literal index", `let k = "n"
let s = 0
for r in t.records() { s = s + r[k] }
return s`},
	{"rebound by let", `let out = []
for r in t.records() { push(out, r["n"]) let r = 1 push(out, r) }
return out`},
	{"assigned", `let out = []
for r in t.records() { push(out, r["n"]) r = {"n": 0} }
return out`},
	{"shadowed by for", `let out = []
for r in t.records() { for r in [1] { push(out, r) } }
return out`},
	{"attribute", `let s = 0
for r in t.records() { s = s + r.n }
return s`},
	{"membership", `let s = 0
for r in t.records() { if "n" in r { s = s + 1 } }
return s`},
}

// TestRowFormMatchesMaterializing runs each program over a RowSource and
// over the same table without the interface: value, stdout, error text and
// Steps must agree, and the compiler must choose the form the case names.
func TestRowFormMatchesMaterializing(t *testing.T) {
	check := func(name, src string, wantRow bool) rowRun {
		t.Helper()
		if got := usesRowForm(t, src); got != wantRow {
			t.Errorf("%s: row form = %v, want %v", name, got, wantRow)
		}
		rows := runTable(src, rowTable{newTable()}, Limits{})
		maps := runTable(src, newTable(), Limits{})
		if rows != maps {
			t.Errorf("%s: row form gave %+v, materializing %+v", name, rows, maps)
		}
		return maps
	}
	for i, c := range rowFormCases {
		got := check(fmt.Sprintf("row case %d", i), c.src, true)
		if got.err != c.err || (c.err == "" && got.value != c.want) {
			t.Errorf("row case %d: got %q (err %q), want %q (err %q)", i, got.value, got.err, c.want, c.err)
		}
	}
	for _, c := range escapeCases {
		check(c.name, c.src, false)
	}
}

// TestRowFormLimits: the row form runs the same call and iterator
// snapshot as the materializing path, so the step budget and the depth
// limit fail at the same step, with the same error.
func TestRowFormLimits(t *testing.T) {
	src := `let s = 0
for r in t.records() { s = s + r["n"] }
return s`
	full := runTable(src, newTable(), Limits{})
	for max := 1; max <= full.steps; max++ {
		lim := Limits{MaxSteps: max}
		if rows, maps := runTable(src, rowTable{newTable()}, lim), runTable(src, newTable(), lim); rows != maps {
			t.Errorf("MaxSteps %d: row form gave %+v, materializing %+v", max, rows, maps)
		}
	}
	deep := `func down(k) {
  if k > 0 { return down(k - 1) }
  let s = 0
  for r in t.records() { s = s + r["n"] }
  return s
}
return down(3)`
	for depth := 1; depth <= 6; depth++ {
		lim := Limits{MaxDepth: depth}
		if rows, maps := runTable(deep, rowTable{newTable()}, lim), runTable(deep, newTable(), lim); rows != maps {
			t.Errorf("MaxDepth %d: row form gave %+v, materializing %+v", depth, rows, maps)
		}
	}
}

// TestRowFormProfile: opcode-class counts and builtin call counts of a
// profiled run do not depend on the form.
func TestRowFormProfile(t *testing.T) {
	src := rowFormCases[0].src
	report := func(host Value) *VMProfileReport {
		p := NewVMProfile()
		runTable(src, host, Limits{Profile: p})
		r := p.Report()
		for i := range r.Opcodes {
			r.Opcodes[i].SampledNS = 0
		}
		for i := range r.Builtins {
			r.Builtins[i].NS = 0
		}
		r.Samples = 0
		return r
	}
	rows, maps := report(rowTable{newTable()}), report(newTable())
	if fmt.Sprint(rows.Opcodes, rows.Builtins) != fmt.Sprint(maps.Opcodes, maps.Builtins) {
		t.Errorf("row form profile %+v, materializing %+v", *rows, *maps)
	}
}

// bareObj is a host object with no members.
type bareObj struct{}

func (bareObj) TypeName() string                 { return "bare" }
func (bareObj) Member(name string) (Value, bool) { return nil, false }

// TestRowFormNonSourceReceivers: a receiver that is not a RowSource runs
// the member access and call as written, whatever "records" is.
func TestRowFormNonSourceReceivers(t *testing.T) {
	cases := []struct{ src, want, err string }{
		{src: `let t = {"records": fn() => [{"n": 1}, {"n": 2}]}
let s = 0
for r in t.records() { s = s + r["n"] }
return s`, want: "3"},
		{src: `let t = {"records": 5}
for r in t.records() { }`, err: "nql operation error on line 2: int is not callable"},
		{src: `let t = [1, 2]
for r in t.records() { }`, err: `nql attribute error on line 2: list has no attribute "records"`},
		{src: `let s = 0
for r in t.to_records() { s = s + r["n"] }
return s`, want: "10"},
		{src: `for r in u.records() { }`, err: `nql attribute error on line 1: bare has no attribute "records"`},
	}
	for i, c := range cases {
		if !usesRowForm(t, c.src) {
			t.Errorf("case %d: not compiled to row form", i)
		}
		in := NewInterp(Limits{}, map[string]Value{"t": newTable(), "u": bareObj{}})
		v, err := in.Run(c.src)
		got := rowRun{value: Repr(v)}
		if err != nil {
			got.err = err.Error()
		}
		if got.err != c.err || (c.err == "" && got.value != c.want) {
			t.Errorf("case %d: got %q (err %q), want %q (err %q)", i, got.value, got.err, c.want, c.err)
		}
	}
}

// TestGoldenRecordsLoopsUseRowForm: every records() loop of the golden
// registry qualifies for the row form, so none of them builds row maps.
func TestGoldenRecordsLoopsUseRowForm(t *testing.T) {
	loops, rowLoops := 0, 0
	var walk func(stmts []Stmt)
	walk = func(stmts []Stmt) {
		for _, st := range stmts {
			switch s := st.(type) {
			case *ForStmt:
				if call, ok := s.Iter.(*CallExpr); ok {
					if attr, ok := call.Fn.(*AttrExpr); ok && (attr.Name == "records" || attr.Name == "to_records") {
						loops++
						if _, ok := rowForm(s); ok {
							rowLoops++
						} else {
							t.Errorf("loop on line %d does not qualify", s.Line)
						}
					}
				}
				walk(s.Body)
			case *IfStmt:
				walk(s.Then)
				walk(s.Else)
			case *WhileStmt:
				walk(s.Body)
			case *FuncStmt:
				walk(s.Body)
			}
		}
	}
	for _, q := range queries.All() {
		for _, src := range q.Golden {
			prog, err := Parse(src)
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			walk(prog.Stmts)
		}
	}
	if loops == 0 || rowLoops != loops {
		t.Errorf("%d of %d records() loops in row form", rowLoops, loops)
	}
	t.Logf("%d records() loops, all in row form", loops)
}
