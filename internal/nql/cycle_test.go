package nql

import (
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"
)

// inChild runs body in a child process of the test binary, under a small
// stack limit, when it is not that child itself. A walker that recurses
// through a cycle without end then kills only the child, and the test
// fails with the child's output instead of the binary crashing.
func inChild(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	const env = "NQL_TEST_CHILD"
	if os.Getenv(env) == t.Name() {
		debug.SetMaxStack(64 << 20)
		body(t)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), env+"="+t.Name())
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: "+t.Name()) {
		if len(out) > 4000 {
			out = out[:4000]
		}
		t.Fatalf("child run: %v\n%s", err, out)
	}
}

// cyclic builds a and b, two distinct lists that each hold themselves,
// and m, a map that holds itself.
const cyclic = `let a = [1]
push(a, a)
let b = [1]
push(b, b)
let m = {"k": 1}
m["self"] = m
`

// TestCyclicValues runs every walker of NQL values over cyclic ones. Repr
// marks the repeat; ==, in, ordering, sorted(), min(), max() and unique()
// fail the run with an operation error; a value compared with itself
// needs no walk.
func TestCyclicValues(t *testing.T) {
	inChild(t, func(t *testing.T) {
		run := func(src string) (Value, error) {
			return NewInterp(Limits{}, nil).Run(cyclic + src)
		}
		for src, want := range map[string]string{
			"return a":           "[1, [...]]",
			"return m":           `{"k": 1, "self": {...}}`,
			"return [a, m]":      `[[1, [...]], {"k": 1, "self": {...}}]`,
			"return a == a":      "true",
			"return a != a":      "false",
			"return m == m":      "true",
			"return a == m":      "false",
			"return a == [1, 2]": "false",
		} {
			v, err := run(src)
			if err != nil {
				t.Errorf("%s: %v", src, err)
				continue
			}
			if got := Repr(v); got != want {
				t.Errorf("%s = %s, want %s", src, got, want)
			}
		}
		for _, src := range []string{
			"return a == b",
			"return a != b",
			"return b in [a]",
			`let n = {"k": 1}
n["self"] = n
return m == n`,
			"return a < b",
			"return sorted([a, b])",
			"return min(a, b)",
			"return max([a, b])",
			"return unique([a, b])",
			"return unique([m])",
		} {
			_, err := run(src)
			if err == nil || ClassOf(err) != string(ErrOp) || !strings.Contains(err.Error(), "nested deeper than 1000 levels (or cyclic)") {
				t.Errorf("%s: error %v, want a nesting operation error", src, err)
			}
		}
	})
}

// TestDeepValues checks the nesting bound on acyclic values: lists nested
// to MaxNesting compare, key and render in full; one level more fails to
// compare and renders its innermost list as [...].
func TestDeepValues(t *testing.T) {
	inChild(t, func(t *testing.T) {
		nest := func(depth int) string {
			return `let x = 1
let y = 1
let i = 0
while i < ` + strconv.Itoa(depth) + ` {
  x = [x]
  y = [y]
  i = i + 1
}
`
		}
		for _, c := range []struct {
			depth int
			ok    bool
		}{{MaxNesting, true}, {MaxNesting + 1, false}} {
			for _, src := range []string{"return x == y", "return x <= y", "return len(unique([x, y]))"} {
				v, err := NewInterp(Limits{}, nil).Run(nest(c.depth) + src)
				if c.ok && (err != nil || v != true && v != int64(1)) {
					t.Errorf("depth %d, %s = %v, %v", c.depth, src, v, err)
				}
				if !c.ok && err == nil {
					t.Errorf("depth %d, %s = %v, want a nesting error", c.depth, src, v)
				}
			}
		}
		for depth, want := range map[int]string{
			MaxNesting:     strings.Repeat("[", MaxNesting) + "1" + strings.Repeat("]", MaxNesting),
			MaxNesting + 1: strings.Repeat("[", MaxNesting) + "[...]" + strings.Repeat("]", MaxNesting),
		} {
			v, err := NewInterp(Limits{}, nil).Run(nest(depth) + "return x")
			if got := Repr(v); err != nil || got != want {
				t.Errorf("depth %d: Repr %.40s...%.40s, %v", depth, got, got[max(0, len(got)-40):], err)
			}
		}
	})
}

// TestReprDeepValueIsBounded renders lists and maps nested 200,000 deep,
// which a program fits inside DefaultLimits: Repr walks MaxNesting levels
// of them, so it finishes at once and its text stays short.
func TestReprDeepValueIsBounded(t *testing.T) {
	inChild(t, func(t *testing.T) {
		const depth = 200_000
		var list, mixed Value = int64(1), int64(1)
		for i := 0; i < depth; i++ {
			list = NewList(list)
			m := NewMap()
			if err := m.Set("k", NewList(mixed)); err != nil {
				t.Fatal(err)
			}
			mixed = m
		}
		done := make(chan [2]string, 1)
		go func() { done <- [2]string{Repr(list), Repr(mixed)} }()
		select {
		case got := <-done:
			if want := strings.Repeat("[", MaxNesting) + "[...]" + strings.Repeat("]", MaxNesting); got[0] != want {
				t.Errorf("deep list renders %d bytes, want %d", len(got[0]), len(want))
			}
			if want := strings.Repeat(`{"k": [`, MaxNesting/2) + "{...}" + strings.Repeat("]}", MaxNesting/2); got[1] != want {
				t.Errorf("deep map renders %d bytes, want %d", len(got[1]), len(want))
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Repr of a deep value did not finish in 10 s")
		}
	})
}
