package nemoeval

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dataframe"
	"repro/internal/graph"
	"repro/internal/llm"
	"repro/internal/nql"
	"repro/internal/nqlbind"
	"repro/internal/prompt"
	"repro/internal/queries"
	"repro/internal/sandbox"
	"repro/internal/tokens"
)

// Stage marks where an evaluation failed.
const (
	StageGenerate = "generate" // LLM call failed (token limit)
	StageExecute  = "execute"  // generated code raised an error
	StageCompare  = "compare"  // ran fine but result/state differed
	StageGolden   = "golden"   // golden program itself failed (harness bug)
)

// Record is one evaluated (model, backend, query) cell — the results
// logger's unit (Figure 3).
type Record struct {
	Model      string
	App        string
	Backend    string
	QueryID    string
	Complexity string
	Trial      int

	Pass     bool
	Stage    string
	ErrClass string // measured error class (Table 5 taxonomy label)
	Err      string
	Code     string // the generated program (or direct answer)

	PromptTokens     int
	CompletionTokens int
	CostUSD          float64
	Duration         time.Duration
}

// Evaluator runs generated code against golden answers. It is safe for
// concurrent use: the golden-result and prompt-context caches are
// synchronized, so one evaluator can be shared by every worker of the
// parallel runner (and the golden program for each query then executes
// once per suite instead of once per evaluation).
type Evaluator struct {
	Build  InstanceBuilder
	Policy sandbox.Policy

	// golden caches RunGolden results keyed by backend+"\x00"+source. The
	// cached instance is post-golden-run state and must be treated as
	// read-only by all consumers (they only compare against it).
	goldenMu sync.Mutex
	golden   map[string]*goldenResult

	// promptInst is the single instance used for prompt construction and
	// strawman graph serialization; neither path executes code against
	// it, so it is never mutated. Only the strawman reads graphJSON, so
	// only the strawman builds it.
	promptInst func() *Instance
	graphJSON  func() (string, error)
}

type goldenResult struct {
	val  nql.Value
	inst *Instance
	err  error

	// oracle is OracleAnswer's rendering of val or inst, made once.
	oracleOnce sync.Once
	oracle     string
}

// NewEvaluator creates an evaluator over a dataset.
func NewEvaluator(build InstanceBuilder) *Evaluator {
	e := &Evaluator{Build: build, Policy: sandbox.DefaultPolicy, golden: map[string]*goldenResult{}}
	e.promptInst = sync.OnceValue(func() *Instance { return e.Build() })
	// The strawman baseline serializes the graph into the prompt even for
	// datasets whose evaluations are otherwise relational-only.
	e.graphJSON = sync.OnceValues(func() (string, error) {
		data, err := e.promptInst().G().MarshalJSON()
		return string(data), err
	})
	return e
}

// RunGolden executes the query's golden program for one backend on a fresh
// instance, returning the result value and the instance (for state
// comparison and oracle derivation). Results are cached per golden source:
// the matrix evaluates each query once per model × trial, but the golden
// answer is the same every time. Callers must not mutate the returned
// instance or value.
func (e *Evaluator) RunGolden(q queries.Query, backend string) (nql.Value, *Instance, error) {
	res, err := e.runGolden(q, backend)
	if err != nil {
		return nil, nil, err
	}
	return res.val, res.inst, res.err
}

// runGolden is RunGolden returning the cache entry itself; err reports a
// query with no golden for backend.
func (e *Evaluator) runGolden(q queries.Query, backend string) (*goldenResult, error) {
	golden, ok := q.Golden[backend]
	if !ok {
		return nil, fmt.Errorf("nemoeval: query %s has no golden for backend %s", q.ID, backend)
	}
	key := backend + "\x00" + golden
	e.goldenMu.Lock()
	cached, ok := e.golden[key]
	e.goldenMu.Unlock()
	if ok {
		return cached, nil
	}
	res := &goldenResult{}
	inst := e.Build()
	r := sandbox.Run(golden, inst.Bindings(backend), e.Policy)
	if !r.OK() {
		res.err = fmt.Errorf("nemoeval: golden for %s/%s failed: %w", q.ID, backend, r.Err)
	} else {
		res.val = r.Value
		res.inst = inst
	}
	e.goldenMu.Lock()
	e.golden[key] = res
	e.goldenMu.Unlock()
	return res, nil
}

// EvaluateCode runs one already-generated program and compares it against
// the golden answer. It fills every Record field except model/trial/cost.
func (e *Evaluator) EvaluateCode(q queries.Query, backend, code string) *Record {
	rec := &Record{
		App: q.App, Backend: backend, QueryID: q.ID, Complexity: q.Complexity,
		Code: code,
	}
	goldVal, goldInst, err := e.RunGolden(q, backend)
	if err != nil {
		rec.Stage = StageGolden
		rec.Err = err.Error()
		rec.ErrClass = LabelHarness
		return rec
	}
	genInst := e.Build()
	start := time.Now()
	res := sandbox.Run(code, genInst.Bindings(backend), e.Policy)
	rec.Duration = time.Since(start)
	if !res.OK() {
		rec.Stage = StageExecute
		rec.Err = res.Err.Error()
		rec.ErrClass = LabelForClass(res.ErrClass)
		return rec
	}
	valueOK := ResultEqual(goldVal, res.Value)
	stateOK := StateEqual(backend, goldInst, genInst)
	switch {
	case valueOK && stateOK:
		rec.Pass = true
	case !stateOK:
		rec.Stage = StageCompare
		rec.ErrClass = LabelGraphDiff
		rec.Err = describeStateDiff(backend, goldInst, genInst)
	default:
		rec.Stage = StageCompare
		rec.ErrClass = LabelWrongCalc
		rec.Err = fmt.Sprintf("result mismatch: golden %s vs generated %s",
			truncate(nql.Repr(goldVal), 160), truncate(nql.Repr(res.Value), 160))
	}
	return rec
}

// EvaluateModel asks the model for code and evaluates it end to end.
func (e *Evaluator) EvaluateModel(model llm.Model, q queries.Query, backend string, trial int, temperature float64) *Record {
	p := prompt.BuildCodePrompt(e.promptInst().Wrapper, backend, q.Text)
	resp, err := model.Generate(llm.Request{Prompt: p, Temperature: temperature, Attempt: trial})
	if err != nil {
		rec := &Record{
			Model: model.Name(), App: q.App, Backend: backend, QueryID: q.ID,
			Complexity: q.Complexity, Trial: trial,
			Stage: StageGenerate, Err: err.Error(), ErrClass: LabelForGenerateErr(err),
		}
		return rec
	}
	rec := e.EvaluateCode(q, backend, resp.Text)
	rec.Model = model.Name()
	rec.Trial = trial
	rec.PromptTokens = resp.PromptTokens
	rec.CompletionTokens = resp.CompletionTokens
	if cost, err := tokens.Cost(model.Name(), resp.PromptTokens, resp.CompletionTokens); err == nil {
		rec.CostUSD = cost
	}
	return rec
}

// EvaluateStrawman runs the direct-answer baseline for one query.
func (e *Evaluator) EvaluateStrawman(model *llm.SimModel, q queries.Query) *Record {
	rec := &Record{
		Model: model.Name(), App: q.App, Backend: "strawman", QueryID: q.ID,
		Complexity: q.Complexity,
	}
	oracle, err := e.OracleAnswer(q)
	if err != nil {
		rec.Stage = StageGolden
		rec.Err = err.Error()
		rec.ErrClass = LabelHarness
		return rec
	}
	model.SetOracle(q.Text, oracle)
	// The strawman never executes code, so the shared prompt instance and
	// its serialized graph JSON can be reused across every query.
	jsonData, err := e.graphJSON()
	if err != nil {
		rec.Stage = StageGolden
		rec.Err = err.Error()
		rec.ErrClass = LabelHarness
		return rec
	}
	p := prompt.BuildStrawmanPrompt(e.promptInst().Wrapper, jsonData, q.Text)
	resp, err := model.Generate(llm.Request{Prompt: p})
	if err != nil {
		rec.Stage = StageGenerate
		rec.Err = err.Error()
		rec.ErrClass = LabelForGenerateErr(err)
		return rec
	}
	rec.Code = resp.Text
	rec.PromptTokens = resp.PromptTokens
	rec.CompletionTokens = resp.CompletionTokens
	if cost, cerr := tokens.Cost(model.Name(), resp.PromptTokens, resp.CompletionTokens); cerr == nil {
		rec.CostUSD = cost
	}
	if resp.Text == oracle {
		rec.Pass = true
	} else {
		rec.Stage = StageCompare
		rec.ErrClass = LabelWrongCalc
		rec.Err = "direct answer differs from golden result"
	}
	return rec
}

// OracleAnswer computes the canonical direct answer for a query: the
// golden NetworkX result rendering, or — for pure manipulations that
// return nil — the fingerprint of the mutated graph. It is rendered once
// per cached golden result.
func (e *Evaluator) OracleAnswer(q queries.Query) (string, error) {
	res, err := e.runGolden(q, prompt.BackendNetworkX)
	if err != nil {
		return "", err
	}
	if res.err != nil {
		return "", res.err
	}
	res.oracleOnce.Do(func() {
		if res.val == nil {
			res.oracle = res.inst.G().Fingerprint()
		} else {
			res.oracle = nql.Repr(res.val)
		}
	})
	return res.oracle, nil
}

// ResultEqual deeply compares two script results, treating bound host
// objects structurally: frames compare by dataframe.Equal, graphs by
// graph.Equal, containers recurse.
func ResultEqual(a, b nql.Value) bool {
	switch x := a.(type) {
	case *nqlbind.FrameObject:
		y, ok := b.(*nqlbind.FrameObject)
		return ok && dataframe.Equal(x.F, y.F)
	case *nqlbind.GraphObject:
		y, ok := b.(*nqlbind.GraphObject)
		return ok && graph.Equal(x.G, y.G)
	case *nql.List:
		y, ok := b.(*nql.List)
		if !ok || len(x.Items) != len(y.Items) {
			return false
		}
		for i := range x.Items {
			if !ResultEqual(x.Items[i], y.Items[i]) {
				return false
			}
		}
		return true
	case *nql.Map:
		y, ok := b.(*nql.Map)
		if !ok || x.Len() != y.Len() {
			return false
		}
		ks, vs := x.Keys(), x.Values()
		for i, k := range ks {
			bv, ok := y.Get(k)
			if !ok || !ResultEqual(vs[i], bv) {
				return false
			}
		}
		return true
	default:
		switch b.(type) {
		case *nqlbind.FrameObject, *nqlbind.GraphObject, *nql.List, *nql.Map:
			return false
		}
		return nql.ValuesEqual(a, b)
	}
}

func describeStateDiff(backend string, a, b *Instance) string {
	if backend == prompt.BackendNetworkX {
		return "graphs are not identical: " + truncate(graph.Diff(a.G(), b.G()), 240)
	}
	return "post-run state differs from golden"
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
