package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// TestAnalyzeIdempotent: analyzing a shared program twice (the sandbox
// cache and netqueryd's per-surface pass both do this) must give the same
// diagnostics, message for message.
func TestAnalyzeIdempotent(t *testing.T) {
	src := `let p = fn(r) => get(r, "src", "") == "a"
let unused = 1
p(1) + "x"
func f(x, x) {
    x == 1
    return missing
}
return [p, f, fn(v) => v > 0]`
	prog, err := nql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	first := Analyze(prog, Options{Globals: map[string]Type{}})
	if len(first) == 0 {
		t.Fatal("program has no findings; the comparison would check nothing")
	}
	second := Analyze(prog, Options{Globals: map[string]Type{}})
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("diagnostics changed across runs:\n%v\nvs\n%v", first, second)
	}
}

// TestOrderingVerdictMatchesVM: for every pair of literal kinds, vet
// reports NQ300 on l < r exactly when the VM's < fails. A bool orders
// only against a bool, nil and dicts against nothing.
func TestOrderingVerdictMatchesVM(t *testing.T) {
	lits := []string{"nil", "true", "1", "2.5", `"a"`, "[1]", `{"a": 1}`}
	for _, l := range lits {
		for _, r := range lits {
			src := fmt.Sprintf("return %s < %s", l, r)
			prog, err := nql.Parse(src)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			vetFails := false
			for _, d := range Analyze(prog, Options{Globals: map[string]Type{}}) {
				vetFails = vetFails || d.Code == "NQ300"
			}
			_, err = nql.NewInterp(nql.Limits{}, nil).RunProgram(prog)
			if vetFails != (err != nil) {
				t.Errorf("%s: vet reports NQ300 %v, VM error %v", src, vetFails, err)
			}
		}
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
