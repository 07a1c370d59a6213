package core

import (
	"fmt"
	"testing"

	"repro/internal/diagnosis"
	"repro/internal/llm"
	"repro/internal/nql"
)

// programModel answers every prompt with its current program.
type programModel struct{ code string }

func (m *programModel) Name() string { return "program" }

func (m *programModel) Generate(llm.Request) (*llm.Response, error) {
	return &llm.Response{Text: m.code}, nil
}

// TestDiscardedTrialCannotRewriteLiveState runs generated code that writes
// the diagnosis probes list and a node attribute. Discarded, the run must
// leave the committed state as it was; approved, its writes must be
// committed.
func TestDiscardedTrialCannotRewriteLiveState(t *testing.T) {
	w := diagnosis.Generate(diagnosis.DefaultConfig)
	node := w.G.Nodes()[0]
	ip := w.G.NodeAttrsView(node)["ip"]
	m := &programModel{}
	s := NewDiagnosisSession(m, w)
	ask := func(code string) nql.Value {
		t.Helper()
		m.code = code
		ix, err := s.Ask("run the program")
		if err != nil || ix.Err != nil {
			t.Fatalf("ask: %v %v", err, ix.Err)
		}
		return ix.Result
	}
	// read returns the committed values at the places the write changes.
	read := func() string {
		t.Helper()
		return nql.Repr(ask(fmt.Sprintf(`return [probes[0]["ok"], probes[1] == nil, graph.node(%q)["ip"]]`, node)))
	}
	write := fmt.Sprintf(`probes[0]["ok"] = "tampered"
probes[1] = nil
graph.node(%q)["ip"] = "tampered"
return 1`, node)

	before := read()
	ask(write)
	s.Discard()
	if got := read(); got != before {
		t.Fatalf("discarded run changed the committed state: %s, want %s", got, before)
	}
	if got := s.Graph().NodeAttrsView(node)["ip"]; got != ip {
		t.Fatalf("discarded run changed the live graph: ip = %v, want %v", got, ip)
	}

	ask(write)
	if err := s.Approve(); err != nil {
		t.Fatal(err)
	}
	if got, want := read(), `["tampered", true, "tampered"]`; got != want {
		t.Fatalf("approved run not committed: %s, want %s", got, want)
	}
	if got := s.Graph().NodeAttrsView(node)["ip"]; got != "tampered" {
		t.Fatalf("approved run not in the live graph: ip = %v", got)
	}
}
