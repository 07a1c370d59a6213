package sandbox

import (
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/nql"
	"repro/internal/nqlbind"
)

func TestRunSuccess(t *testing.T) {
	res := Run("return 1 + 2", nil, DefaultPolicy)
	if !res.OK() || res.Value != int64(3) {
		t.Fatalf("res = %+v", res)
	}
	if res.Duration <= 0 {
		t.Fatal("duration not recorded")
	}
	if res.Steps <= 0 {
		t.Fatalf("steps = %d, want > 0", res.Steps)
	}
}

func TestRunCapturesStdout(t *testing.T) {
	res := Run(`print("inspecting", 42)`, nil, DefaultPolicy)
	if res.Stdout != "inspecting 42\n" {
		t.Fatalf("stdout = %q", res.Stdout)
	}
}

func TestRunSyntaxError(t *testing.T) {
	res := Run("let = broken", nil, DefaultPolicy)
	if res.OK() || res.ErrClass != "syntax" {
		t.Fatalf("res = %+v", res)
	}
}

func TestRunRuntimeErrorClass(t *testing.T) {
	res := Run("return ghost()", nil, DefaultPolicy)
	if res.OK() || res.ErrClass != "name" {
		t.Fatalf("res = %+v", res)
	}
}

func TestRunawayContained(t *testing.T) {
	policy := DefaultPolicy
	policy.MaxSteps = 10_000
	start := time.Now()
	res := Run("while true { }", nil, policy)
	if res.OK() || res.ErrClass != "limit" {
		t.Fatalf("res = %+v", res)
	}
	if res.Steps <= policy.MaxSteps {
		t.Fatalf("steps on the error path = %d, want past the %d-step budget", res.Steps, policy.MaxSteps)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("containment too slow")
	}
}

func TestWallClockContained(t *testing.T) {
	policy := DefaultPolicy
	policy.MaxDuration = 20 * time.Millisecond
	policy.MaxSteps = 1 << 60
	res := Run("while true { }", nil, policy)
	if res.OK() || res.ErrClass != "limit" {
		t.Fatalf("res = %+v", res)
	}
}

func TestGlobalsIsolation(t *testing.T) {
	// A generated program mutating its graph must not touch the caller's
	// graph when the caller passes a clone — the sandbox contract.
	g := graph.New()
	g.AddNode("a", graph.Attrs{"v": 1})
	clone := g.Clone()
	res := Run(`graph.set_node_attr("a", "v", 999)`, nqlbind.Globals(clone, nil), DefaultPolicy)
	if !res.OK() {
		t.Fatal(res.Err)
	}
	if g.NodeAttrs("a")["v"] != int64(1) {
		t.Fatal("caller graph mutated through sandbox")
	}
	if clone.NodeAttrs("a")["v"] != int64(999) {
		t.Fatal("clone should carry the mutation")
	}
}

func TestNoHostIO(t *testing.T) {
	// The interpreter exposes no file or network bindings: common host
	// escape attempts are name errors.
	for _, src := range []string{
		`open("/etc/passwd")`,
		`os.system("rm -rf /")`,
		`import("net")`,
		`exec("ls")`,
	} {
		res := Run(src, nil, DefaultPolicy)
		if res.OK() {
			t.Errorf("%q unexpectedly succeeded", src)
			continue
		}
		if res.ErrClass != "name" && res.ErrClass != "syntax" {
			t.Errorf("%q class = %s", src, res.ErrClass)
		}
	}
}

func TestCheckSyntax(t *testing.T) {
	if err := CheckSyntax("let x = 1\nreturn x"); err != nil {
		t.Fatal(err)
	}
	err := CheckSyntax("let x = (")
	if err == nil {
		t.Fatal("expected syntax error")
	}
	if !strings.Contains(err.Error(), "syntax") {
		t.Fatalf("err = %v", err)
	}
}

func TestResultValueTypes(t *testing.T) {
	res := Run(`return {"k": [1, 2.5, "s"]}`, nil, DefaultPolicy)
	if !res.OK() {
		t.Fatal(res.Err)
	}
	if nql.Repr(res.Value) != `{"k": [1, 2.5, "s"]}` {
		t.Fatalf("value = %s", nql.Repr(res.Value))
	}
}

func TestVet(t *testing.T) {
	diags, err := Vet("let x = 1\nreturn x")
	if err != nil || len(diags) != 0 {
		t.Fatalf("clean program: diags=%v err=%v", diags, err)
	}
	diags, err = Vet("return 1 / 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Code != "NQ301" {
		t.Fatalf("diags = %v, want one NQ301", diags)
	}
	if _, err := Vet("let x = ("); err == nil {
		t.Fatal("expected syntax error")
	}
}

// TestVetSharesCache: Vet and Compile must hit the same cache entry (one
// parse, one analysis) and Vet must return the identical diagnostics
// slice on repeat calls.
func TestVetSharesCache(t *testing.T) {
	src := "return 2 % 0"
	d1, err := Vet(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Vet(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1) != 1 || len(d2) != 1 || d1[0] != d2[0] {
		t.Fatalf("cached diagnostics diverged: %v vs %v", d1, d2)
	}
	if prog == nil {
		t.Fatal("nil program")
	}
}

// TestVetStampsEffects: compiling through the sandbox must leave lambda
// effect stamps on the shared AST for the federated planner to read.
func TestVetStampsEffects(t *testing.T) {
	src := `let p = fn(r) => get(r, "kind", "") == "x"` + "\nreturn p"
	if _, err := Vet(src); err != nil {
		t.Fatal(err)
	}
	res := Run(src, nil, DefaultPolicy)
	if !res.OK() {
		t.Fatal(res.Err)
	}
	cl, ok := res.Value.(*nql.Closure)
	if !ok {
		t.Fatalf("result %T, want closure", res.Value)
	}
	if e := cl.Effect(); !e.Pure() || !e.RowTotal() {
		t.Errorf("closure effect %b: want pure and row-total", e)
	}
}
