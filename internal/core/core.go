// Package core wires the paper's full framework together (Figure 2): the
// application wrapper supplies context, the prompt generators build the
// LLM request, the model emits code, the sandbox executes it against a
// *clone* of the live network state, and the operator inspects the code
// and result before approving the state change (the UX sync loop).
//
// This is the library a downstream user embeds: create a Session over an
// application, Ask natural-language questions, inspect the returned code
// and result, and Approve mutations to commit them.
//
// The committed state is a frozen nemoeval.Generation. Every Ask runs on a
// fresh instance of it: copy-on-write clones of the graph, frames and
// tables, and the instance's own probes list, so a discarded run changes
// nothing the session keeps. Approve checks the invariants on the pending
// graph and then freezes the pending instance into the next generation.
//
// Four code-generation backends are available via WithBackend. The three
// per-substrate backends mirror the paper's comparison — "networkx" binds
// the attributed graph, "pandas" the node/edge dataframes, "sql" the
// relational database — and generated code sees exactly one representation.
// The fourth, "federated", binds all three substrates at once plus a
// cross-substrate query planner (`fed`, package internal/federate):
// generated programs can push scans down to any substrate and join across
// them in one sandboxed run, e.g.
//
//	s := core.NewTrafficSession(model, g, core.WithBackend("federated"))
//	ix, _ := s.Ask("Which destinations of heavy edges have the highest in-degree?")
//	// generated code may contain:
//	//   fed.scan("sql", "edges").filter("bytes", ">", 500000).
//	//       join(fed.scan("graph", "degree"), "dst", "id").
//	//       sort("in_degree", false).limit(5).collect()
//
// Every backend executes against an instance of the same generation, so
// inspection and Approve semantics are identical across all four.
//
// Sessions accept any llm.Model, including gateway-backed ones: wrap a
// serving gateway (internal/modelserve — batching, rate limiting, retry,
// record/replay) with llm.NewProviderModel(gw, "gpt-4") and pass that in
// place of a simulated model; the Ask pipeline is unchanged.
package core

import (
	"fmt"

	"repro/internal/diagnosis"
	"repro/internal/graph"
	"repro/internal/llm"
	"repro/internal/malt"
	"repro/internal/nemoeval"
	"repro/internal/nql"
	"repro/internal/prompt"
	"repro/internal/sandbox"
	"repro/internal/tokens"
)

// Session is a natural-language network management session over one
// application's state.
type Session struct {
	model   llm.Model
	backend string
	policy  sandbox.Policy

	// gen is the committed state and live an instance of it, which Graph
	// exposes. pending is the instance of the most recent successful run,
	// awaiting approval.
	gen     *nemoeval.Generation
	live    *nemoeval.Instance
	pending *nemoeval.Instance

	// History of every interaction for audit (the paper's record of
	// input/output for future prompt enhancement).
	History []*Interaction

	invariants []Invariant
}

// Interaction is one Ask round: the prompt, generated code, execution
// outcome and cost.
type Interaction struct {
	Query    string
	Prompt   string
	Code     string
	Result   nql.Value
	Stdout   string
	Err      error
	CostUSD  float64
	Approved bool
}

// Option configures a session.
type Option func(*Session)

// WithBackend selects the code-generation backend (default NetworkX).
func WithBackend(b string) Option { return func(s *Session) { s.backend = b } }

// WithPolicy overrides the sandbox resource policy.
func WithPolicy(p sandbox.Policy) Option { return func(s *Session) { s.policy = p } }

// Invariant is a network safety property checked against the post-run
// graph before a state change may be approved — the paper's §3 execution
// sandbox "validating network invariants" hook. Return an error describing
// the violation.
type Invariant struct {
	Name  string
	Check func(g *graph.Graph) error
}

// WithInvariants installs invariants enforced at Approve time.
func WithInvariants(invs ...Invariant) Option {
	return func(s *Session) { s.invariants = append(s.invariants, invs...) }
}

// InvariantViolation is returned by Approve when a pending change breaks a
// configured invariant; the pending state is retained so the operator can
// inspect it and Discard.
type InvariantViolation struct {
	Invariant string
	Err       error
}

func (e *InvariantViolation) Error() string {
	return fmt.Sprintf("core: invariant %q violated: %v", e.Invariant, e.Err)
}

// NewTrafficSession creates a session over a communication graph. The
// session keeps g's state as it is now (see nemoeval.TrafficGeneration).
func NewTrafficSession(model llm.Model, g *graph.Graph, opts ...Option) *Session {
	return newSession(model, nemoeval.TrafficGeneration(g), opts)
}

// NewMALTSession creates a session over a MALT topology.
func NewMALTSession(model llm.Model, t *malt.Topology, opts ...Option) *Session {
	return newSession(model, nemoeval.MALTGeneration(t), opts)
}

// NewDiagnosisSession creates a session over a failure-diagnosis workload
// (the §5 extension application).
func NewDiagnosisSession(model llm.Model, w *diagnosis.Workload, opts ...Option) *Session {
	return newSession(model, nemoeval.DiagnosisGeneration(w), opts)
}

func newSession(model llm.Model, gen *nemoeval.Generation, opts []Option) *Session {
	s := &Session{
		model:   model,
		backend: prompt.BackendNetworkX,
		policy:  sandbox.DefaultPolicy,
		gen:     gen,
		live:    gen.Instance(),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Graph exposes the committed network graph (read-only by convention).
func (s *Session) Graph() *graph.Graph { return s.live.G() }

// Backend reports the active code-generation backend.
func (s *Session) Backend() string { return s.backend }

// Ask runs one natural-language query through the full pipeline. The
// generated code executes against a fresh instance of the committed
// generation; inspect the returned Interaction (Code, Result, Err) and
// call Approve to commit.
func (s *Session) Ask(query string) (*Interaction, error) {
	p := prompt.BuildCodePrompt(s.live.Wrapper, s.backend, query)
	ix := &Interaction{Query: query, Prompt: p}
	s.History = append(s.History, ix)
	resp, err := s.model.Generate(llm.Request{Prompt: p})
	if err != nil {
		ix.Err = err
		return ix, err
	}
	ix.Code = resp.Text
	if cost, cerr := tokens.Cost(s.model.Name(), resp.PromptTokens, resp.CompletionTokens); cerr == nil {
		ix.CostUSD = cost
	}
	trial := s.gen.Instance()
	res := sandbox.Run(resp.Text, trial.Bindings(s.backend), s.policy)
	ix.Stdout = res.Stdout
	if !res.OK() {
		ix.Err = res.Err
		return ix, nil
	}
	ix.Result = res.Value
	s.pending = trial
	return ix, nil
}

// Approve commits the most recent Ask's state changes (the UX "sync
// state" edge in Figure 2): once every invariant holds on the pending
// graph, the pending instance is frozen into the next committed
// generation. It is an error when there is nothing pending.
func (s *Session) Approve() error {
	if s.pending == nil {
		return fmt.Errorf("core: no pending result to approve")
	}
	for _, inv := range s.invariants {
		if err := inv.Check(s.pending.G()); err != nil {
			return &InvariantViolation{Invariant: inv.Name, Err: err}
		}
	}
	s.gen = s.pending.Freeze()
	s.live = s.gen.Instance()
	s.pending = nil
	if len(s.History) > 0 {
		s.History[len(s.History)-1].Approved = true
	}
	return nil
}

// Discard drops the pending state.
func (s *Session) Discard() {
	s.pending = nil
}

// SelfDebugAsk asks once and, if execution fails, performs one self-debug
// repair round before giving up.
func (s *Session) SelfDebugAsk(query string) (*Interaction, error) {
	first, err := s.Ask(query)
	if err != nil || first.Err == nil {
		return first, err
	}
	repair := prompt.BuildRepairPrompt(first.Prompt, first.Code, first.Err.Error())
	resp, gerr := s.model.Generate(llm.Request{Prompt: repair})
	if gerr != nil {
		return first, nil
	}
	ix := &Interaction{Query: query, Prompt: repair, Code: resp.Text}
	s.History = append(s.History, ix)
	trial := s.gen.Instance()
	res := sandbox.Run(resp.Text, trial.Bindings(s.backend), s.policy)
	ix.Stdout = res.Stdout
	if !res.OK() {
		ix.Err = res.Err
		return ix, nil
	}
	ix.Result = res.Value
	s.pending = trial
	return ix, nil
}
