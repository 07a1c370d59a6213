package service

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/nql"
	"repro/internal/prompt"
)

// TestCyclicResult runs a program returning a list that holds itself
// through Service.Do, which renders every result, and one that writes such
// a list to a graph attribute. The first renders the repeat as [...]; the
// second fails as an operation error. The test body runs in a child
// process under a small stack limit, so a render or conversion that
// recurses without end fails this test rather than killing the binary.
func TestCyclicResult(t *testing.T) {
	const env = "SERVICE_TEST_CHILD"
	if os.Getenv(env) != t.Name() {
		cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), env+"="+t.Name())
		out, err := cmd.CombinedOutput()
		if err != nil || !strings.Contains(string(out), "--- PASS: "+t.Name()) {
			if len(out) > 4000 {
				out = out[:4000]
			}
			t.Fatalf("child run: %v\n%s", err, out)
		}
		return
	}
	debug.SetMaxStack(64 << 20)
	s := newTestService(t, nil)
	resp, err := s.Do(context.Background(), &Request{Tenant: "acme", Query: "let a = [1]\npush(a, a)\nreturn a"})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Result != "[1, [...]]" {
		t.Errorf("result = %q, want [1, [...]]", resp.Result)
	}
	_, err = s.Do(context.Background(), &Request{Tenant: "acme", Backend: prompt.BackendNetworkX,
		Query: "let a = [1]\npush(a, a)\ngraph.set_node_attr(graph.nodes()[0], \"loop\", a)\nreturn 1"})
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Class != string(nql.ErrOp) || !strings.Contains(err.Error(), "(or cyclic)") {
		t.Errorf("cyclic attribute write: error %v, want an operation error", err)
	}
}
