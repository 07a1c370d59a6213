package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nql"
)

// TestGoldenDiagnostics runs the analyzer over the corpus in testdata:
// one .nql file per rule, with the expected rendered diagnostics in the
// companion .diag file (empty for programs that must analyze clean).
func TestGoldenDiagnostics(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.nql"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".nql")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(strings.TrimSuffix(file, ".nql") + ".diag")
			if err != nil {
				t.Fatal(err)
			}
			prog, err := nql.Parse(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			diags := Analyze(prog, Options{Globals: map[string]Type{}})
			var got strings.Builder
			for _, d := range diags {
				got.WriteString(d.String())
				got.WriteString("\n")
			}
			if got.String() != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got.String(), want)
			}
		})
	}
}

// TestNoGlobalsSuppressesNameRules: without a known host surface, free
// names are presumed host bindings and NQ100/NQ101 stay quiet.
func TestNoGlobalsSuppressesNameRules(t *testing.T) {
	prog, err := nql.Parse("let x = foo + 1\nbar = 2\nreturn x")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Analyze(prog, Options{}) {
		if d.Code == "NQ100" || d.Code == "NQ101" {
			t.Errorf("unexpected name diagnostic without globals: %s", d)
		}
	}
}

// TestCheckNames: the per-surface pass reports only name rules, and
// resolves names against the supplied surface.
func TestCheckNames(t *testing.T) {
	prog, err := nql.Parse("let a = g\nlet b = h\nreturn [a, b, 1 + \"x\"]")
	if err != nil {
		t.Fatal(err)
	}
	diags := CheckNames(prog, map[string]Type{"g": TGraph})
	if len(diags) != 1 {
		t.Fatalf("want exactly the NQ100 for h, got %v", diags)
	}
	if diags[0].Code != "NQ100" || !strings.Contains(diags[0].Message, `"h"`) {
		t.Errorf("unexpected diagnostic: %s", diags[0])
	}
}

func lambdaOf(t *testing.T, src string) *nql.LambdaExpr {
	t.Helper()
	prog, err := nql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	Analyze(prog, Options{})
	let, ok := prog.Stmts[0].(*nql.LetStmt)
	if !ok {
		t.Fatalf("first statement is %T, want let", prog.Stmts[0])
	}
	lam, ok := let.Init.(*nql.LambdaExpr)
	if !ok {
		t.Fatalf("initializer is %T, want lambda", let.Init)
	}
	return lam
}

func TestEffectStamping(t *testing.T) {
	cases := []struct {
		src                  string
		pure, total, rowOnly bool
	}{
		// Closed arithmetic over parameters: pure and total outright.
		{"let p = fn(x) => x == 1\nreturn p", true, true, false},
		// get() plus equality on a map-typed row: total only under the
		// FuncPred convention (parameter = map), i.e. RowTotal without
		// Total.
		{`let p = fn(r) => get(r, "src", "") == "a"` + "\nreturn p", true, false, true},
		// Ordered comparison against a value of unknown type can fail
		// (a string-valued field vs 0): not even row-total.
		{`let p = fn(r) => get(r, "w", 0) > 0` + "\nreturn p", true, false, false},
		// Raw indexing can miss; not even row-total.
		{`let p = fn(r) => r["w"] > 0` + "\nreturn p", true, false, false},
		// print() is a side effect.
		{"let p = fn(x) => print(x)\nreturn p", false, true, false},
		// sum() can hit non-numeric elements: pure but partial.
		{"let p = fn(x) => sum(x)\nreturn p", true, false, false},
		// Free global reads may be unbound: partial.
		{"let p = fn(x) => x + extern\nreturn p", true, false, false},
	}
	for _, c := range cases {
		lam := lambdaOf(t, c.src)
		e := lam.Effect()
		if e.Pure() != c.pure {
			t.Errorf("%q: Pure = %v, want %v", c.src, e.Pure(), c.pure)
		}
		wantRowTotal := c.total || c.rowOnly
		if got := e&nql.EffectTotal != 0; got != c.total {
			t.Errorf("%q: Total = %v, want %v", c.src, got, c.total)
		}
		if e.RowTotal() != wantRowTotal {
			t.Errorf("%q: RowTotal = %v, want %v", c.src, e.RowTotal(), wantRowTotal)
		}
	}
}

// TestClosureEffect: the stamp and the parameter count must be reachable
// from the runtime closure value the VM returns.
func TestClosureEffect(t *testing.T) {
	src := "let p = fn(x) => x == 1\nreturn p"
	prog, err := nql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	Analyze(prog, Options{})
	v, err := nql.NewInterp(nql.Limits{}, nil).RunProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	cl, ok := v.(*nql.Closure)
	if !ok {
		t.Fatalf("result %T, want closure", v)
	}
	if e := cl.Effect(); !e.Pure() || !e.RowTotal() {
		t.Errorf("effect %b lost through the closure", e)
	}
	if cl.NumParams() != 1 {
		t.Errorf("NumParams = %d, want 1", cl.NumParams())
	}
}

// TestAnalyzeIdempotent: analyzing a shared program twice (the sandbox
// cache does this) must not change diagnostics or stamps.
func TestAnalyzeIdempotent(t *testing.T) {
	src := `let p = fn(r) => get(r, "src", "") == "a"` + "\nreturn p"
	prog, err := nql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	first := Analyze(prog, Options{Globals: map[string]Type{}})
	second := Analyze(prog, Options{Globals: map[string]Type{}})
	if len(first) != len(second) {
		t.Fatalf("diagnostics changed across runs: %v vs %v", first, second)
	}
	lam := prog.Stmts[0].(*nql.LetStmt).Init.(*nql.LambdaExpr)
	if e := lam.Effect(); !e.Pure() || !e.RowTotal() {
		t.Errorf("stamp lost on re-analysis: %b", e)
	}
}

func BenchmarkNQLAnalyze(b *testing.B) {
	src := `
let weights = {"a": 1, "b": 2, "c": 3}
func score(row) {
    let total = 0
    for k, v in row {
        if contains(weights, k) {
            total = total + v * get(weights, k, 1)
        }
    }
    return total
}
let pred = fn(r) => get(r, "w", 0) > 1 and get(r, "src", "") != "lo"
let out = []
for i in range(0, 100) {
    push(out, score({"a": i, "w": i % 7}))
}
return [out, pred]
`
	prog, err := nql.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Analyze(prog, Options{Globals: map[string]Type{}})
	}
}
