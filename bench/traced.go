package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/dataframe"
	"repro/internal/federate"
	"repro/internal/graph"
	"repro/internal/limiter"
	"repro/internal/nemoeval"
	"repro/internal/nql"
	"repro/internal/nql/analysis"
	"repro/internal/nqlbind"
	"repro/internal/obs"
	"repro/internal/prompt"
	"repro/internal/queries"
	"repro/internal/sandbox"
	"repro/internal/service"
	"repro/internal/sqldb"
)

// spanRec is one span of a traced pass. Spans of one request share Req;
// Parent is the ID of the enclosing span, 0 for the request's root.
type spanRec struct {
	Req    int64  `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced pass began
	End    int64  `json:"end_ns"`
}

// reqTrace records one request's spans; it belongs to one goroutine.
type reqTrace struct {
	epoch time.Time
	req   int64
	spans []spanRec
	open  []int // indexes of the spans begun and not yet ended
}

// begin opens a span under the innermost open one.
func (t *reqTrace) begin(name string) {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, spanRec{Req: t.req, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *reqTrace) end() {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = int64(time.Since(t.epoch))
}

// layerSpans maps span names to the per-layer metrics of their self time.
var layerSpans = []struct{ span, metric string }{
	{"prompt.build", "prompt.build_us"},
	{"llm.generate", "llm.generate_us"},
	{"analysis.vet", "analysis.vet_us"},
	{"limiter.admit", "limiter.admit_us"},
	{"nemoeval.golden", "nemoeval.golden_us"},
	{"nemoeval.clone", "nemoeval.clone_us"},
	{"dataframe.build", "dataframe.build_us"},
	{"sqldb.build", "sqldb.build_us"},
	{"nqlbind.bind", "nqlbind.bind_us"},
	{"sandbox.compile", "sandbox.compile_us"},
	{"nql.exec", "nql.exec_us"},
	{"encode", "encode.us"},
	{"nemoeval.compare", "nemoeval.compare_us"},
}

// layerAcc sums one traced pass.
type layerAcc struct {
	requests int64
	self     map[string]time.Duration // span self time by span name
	seen     map[string]int64         // spans recorded, by name
	root     time.Duration            // decomposed path total: root spans
	do, http time.Duration            // Service.Do and HTTP legs
	raw      int64                    // raw programs vetted
	rejected int64                    // ... and rejected
	prof     execProfile
	spans    []spanRec
}

func newLayerAcc() *layerAcc {
	return &layerAcc{self: map[string]time.Duration{}, seen: map[string]int64{},
		prof: execProfile{builtins: map[string]time.Duration{}}}
}

// add files one finished request's spans: a span's self time is its
// duration minus its children's.
func (a *layerAcc) add(t *reqTrace) {
	a.requests++
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent-1] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		a.self[s.Name] += time.Duration(s.End - s.Start - child[i])
		a.seen[s.Name]++
		if s.Parent == 0 {
			a.root += time.Duration(s.End - s.Start)
		}
	}
	a.spans = append(a.spans, t.spans...)
}

// execProfile sums the profiled re-runs that split exec time between VM
// dispatch and host bindings.
type execProfile struct {
	runs         int64
	wall         time.Duration            // profiled RunProgram time
	builtins     map[string]time.Duration // VM profile: builtin time by name
	fedFrames    int64                    // operator profile: federate frames
	fedOwn       time.Duration            // ... and their own time
	sqlFrames    int64                    // sqldb frames
	sqlOwn       time.Duration            // ... and their own time
	rowsExamined int64                    // rows produced by every operator
	rowsResult   int64                    // rows produced by plan roots
}

// run executes prog once more on a fresh instance with the VM profile
// (policy.Profile) and the operator profile (obs.WithProfile) on. It is a
// separate run so the profiles' own cost stays out of the nql.exec span.
func (p *execProfile) run(inst *nemoeval.Instance, backend string, prog *nql.Program) {
	globals := inst.Bindings(backend)
	vm := nql.NewVMProfile()
	ops := obs.NewProfile()
	ctx, cancel := context.WithTimeout(obs.WithProfile(context.Background(), ops), requestTimeout)
	defer cancel()
	policy := sandbox.DefaultPolicy
	policy.Context = ctx
	policy.Profile = vm
	start := time.Now()
	sandbox.RunProgram(prog, globals, policy)
	p.wall += time.Since(start)
	p.runs++
	for _, b := range vm.Report().Builtins {
		p.builtins[b.Name] += time.Duration(b.NS)
	}
	for _, op := range ops.Flatten() {
		if strings.HasPrefix(op.Op, "sql.") {
			p.sqlFrames++
			p.sqlOwn += time.Duration(op.OwnNS)
		} else {
			p.fedFrames++
			p.fedOwn += time.Duration(op.OwnNS)
		}
		if op.Rows > 0 {
			p.rowsExamined += op.Rows
			if op.Depth == 0 {
				p.rowsResult += op.Rows
			}
		}
	}
}

// isGraphMethod reports whether a builtin name is a graph method that no
// relational host object also answers to, so its VM-profile time is the
// graph substrate's.
func isGraphMethod(name string) bool {
	if _, ok := nqlbind.NewGraphObject(graph.NewDirected()).Member(name); !ok {
		return false
	}
	for _, o := range []nql.Object{
		nqlbind.NewFrameObject(dataframe.New()),
		nqlbind.NewDBObject(sqldb.NewDB()),
		nqlbind.NewFedObject(&federate.Catalog{}),
		&nqlbind.PlanObject{},
	} {
		if _, ok := o.Member(name); ok {
			return false
		}
	}
	return true
}

// budgetRow is one line of a per-layer latency budget: mean microseconds
// per request.
type budgetRow struct {
	Layer string  `json:"layer"`
	US    float64 `json:"us"`
}

// metrics derives a traced pass's per-layer metrics into m, leaving out
// layers the workload's path never reached, and its latency budget: the
// HTTP round trip (or the trial) split into the HTTP and service layers,
// each traced span's self time, and the bench's own gaps.
func (a *layerAcc) metrics(m map[string]float64, viaService bool) []budgetRow {
	if a.requests == 0 {
		return nil
	}
	per := func(d time.Duration) float64 {
		return float64(d) / float64(time.Microsecond) / float64(a.requests)
	}
	var budget []budgetRow
	total := budgetRow{"= mean trial", per(a.root)}
	if viaService {
		m["http.self_us"] = per(a.http - a.do)
		m["service.self_us"] = per(a.do - a.root)
		budget = append(budget, budgetRow{"http.self", m["http.self_us"]}, budgetRow{"service.self", m["service.self_us"]})
		total = budgetRow{"= mean round trip", per(a.http)}
	}
	var spans time.Duration
	for _, l := range layerSpans {
		if a.seen[l.span] == 0 {
			continue
		}
		m[l.metric] = per(a.self[l.span])
		spans += a.self[l.span]
		budget = append(budget, budgetRow{l.span, m[l.metric]})
	}
	budget = append(budget, budgetRow{"bench gaps", per(a.root - spans)}, total)

	if a.raw > 0 {
		m["analysis.reject_frac"] = ratio(float64(a.rejected), float64(a.raw))
	}
	p := &a.prof
	if p.runs == 0 {
		return budget
	}
	var builtins, graphNS time.Duration
	for name, d := range p.builtins {
		builtins += d
		if isGraphMethod(name) {
			graphNS += d
		}
	}
	m["nql.vm_self_us"] = per(p.wall - builtins)
	if graphNS > 0 {
		m["graph.host_us"] = per(graphNS)
	}
	if p.fedFrames > 0 {
		m["federate.host_us"] = per(p.fedOwn)
		m["federate.rows_per_result"] = ratio(float64(p.rowsExamined), float64(p.rowsResult))
	}
	if p.sqlFrames > 0 {
		m["sqldb.host_us"] = per(p.sqlOwn)
	}
	m["trace.overhead_frac"] = 1 - float64(a.self["nql.exec"])/float64(p.wall)
	return budget
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes a traced pass's spans as JSON lines.
func writeSpans(path string, spans []spanRec) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// requestTimeout is the service's default request deadline, which every
// request here runs under.
const requestTimeout = 2 * time.Second

// cloneAndBind clones an instance, forces the lazy representations the
// backend binds, and builds its host globals, with a span per step.
func cloneAndBind(t *reqTrace, build nemoeval.InstanceBuilder, backend string) (*nemoeval.Instance, map[string]nql.Value) {
	t.begin("nemoeval.clone")
	inst := build()
	if backend == prompt.BackendNetworkX || backend == prompt.BackendFederated {
		inst.G() // MALT clones its graph lazily
	}
	t.end()
	if backend == prompt.BackendPandas || backend == prompt.BackendFederated {
		t.begin("dataframe.build")
		inst.Frames()
		t.end()
	}
	if backend == prompt.BackendSQL || backend == prompt.BackendFederated {
		t.begin("sqldb.build")
		inst.Database()
		t.end()
	}
	t.begin("nqlbind.bind")
	globals := inst.Bindings(backend)
	t.end()
	return inst, globals
}

// servicePath replays requests through the public function behind each
// phase of service.Service.Do, in Do's order, with a span around each call.
// Its verdict cache and admission state mirror the service's own. It
// belongs to one goroutine.
type servicePath struct {
	build nemoeval.InstanceBuilder
	vets  map[[2]string]bool // (backend, source) → rejected
	adm   map[string]*admission
}

type admission struct {
	bucket *limiter.Bucket
	gauge  *limiter.Gauge
}

// vetCacheMax mirrors the service's bound on cached vet verdicts.
const vetCacheMax = 4096

func newServicePath(build nemoeval.InstanceBuilder) *servicePath {
	return &servicePath{build: build, vets: map[[2]string]bool{}, adm: map[string]*admission{}}
}

// vet returns whether static analysis rejects a raw program, through a
// verdict cache bounded like the service's.
func (p *servicePath) vet(req request) bool {
	key := [2]string{req.Backend, req.Query}
	if rejected, ok := p.vets[key]; ok {
		return rejected
	}
	rejected := vetRejects(req)
	if len(p.vets) < vetCacheMax {
		p.vets[key] = rejected
	}
	return rejected
}

// vetRejects is the service's vet: the surface-independent analysis plus
// name resolution against the backend's binding surface; any error-severity
// finding rejects.
func vetRejects(req request) bool {
	diags, err := sandbox.Vet(req.Query)
	if err != nil {
		return true
	}
	backend := req.Backend
	if backend == "" {
		backend = prompt.BackendFederated
	}
	if prog, err := sandbox.Compile(req.Query); err == nil {
		diags = append(diags[:len(diags):len(diags)], analysis.CheckNames(prog, nemoeval.StaticGlobals(backend))...)
	}
	for _, d := range diags {
		if d.Severity == analysis.Error {
			return true
		}
	}
	return false
}

// admit takes one token and one concurrency slot for the tenant, with
// limits as high as the service's.
func (p *servicePath) admit(tenant string) {
	a := p.adm[tenant]
	if a == nil {
		a = &admission{bucket: limiter.NewBucket(1e9, 1e9, time.Now()), gauge: limiter.NewGauge(64)}
		p.adm[tenant] = a
	}
	a.bucket.TryTake(1, time.Now())
	if a.gauge.Acquire() {
		a.gauge.Release()
	}
}

// route resolves a request's backend and program as the service does:
// catalog queries take the cheapest substrate with a golden program, raw
// programs default to the federated backend.
func route(req request) (backend, src string, err error) {
	if req.QueryID == "" {
		if req.Backend == "" {
			return prompt.BackendFederated, req.Query, nil
		}
		return req.Backend, req.Query, nil
	}
	q, ok := queries.ByID(req.QueryID)
	if !ok {
		return "", "", fmt.Errorf("unknown query id %q", req.QueryID)
	}
	if req.Backend != "" {
		return req.Backend, q.Golden[req.Backend], nil
	}
	for _, b := range service.Substrates() {
		if src, ok := q.Golden[b]; ok {
			return b, src, nil
		}
	}
	return "", "", fmt.Errorf("query %s has no golden program", req.QueryID)
}

// wireResponse mirrors the POST /v1/query success body, for encode's cost.
type wireResponse struct {
	Result     string `json:"result"`
	Stdout     string `json:"stdout,omitempty"`
	Backend    string `json:"backend"`
	Dataset    string `json:"dataset"`
	DurationMS int64  `json:"duration_ms"`
}

// run replays one request. It returns the outcome a client would see and,
// when the program compiled, the program and backend for the profiled
// re-run.
func (p *servicePath) run(t *reqTrace, acc *layerAcc, tenant string, req request) (outcome, *nql.Program, string) {
	t.begin("request")
	defer t.end()
	if req.Query != "" {
		acc.raw++
		t.begin("analysis.vet")
		rejected := p.vet(req)
		t.end()
		if rejected {
			acc.rejected++
			return outcome{Status: 400, Class: "static"}, nil, ""
		}
	}
	t.begin("limiter.admit")
	p.admit(tenant)
	t.end()
	backend, src, err := route(req)
	if err != nil {
		return outcome{Status: 422, Class: string(nql.ErrName)}, nil, ""
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	_, globals := cloneAndBind(t, p.build, backend)
	t.begin("sandbox.compile")
	prog, err := sandbox.Compile(src)
	t.end()
	if err != nil {
		return outcome{Status: 422, Class: nql.ClassOf(err)}, nil, ""
	}
	policy := sandbox.DefaultPolicy
	policy.Context = ctx
	t.begin("nql.exec")
	res := sandbox.RunProgram(prog, globals, policy)
	t.end()
	if res.Err != nil {
		status := 422
		if errors.Is(res.Err, context.DeadlineExceeded) {
			status = 504
		}
		return outcome{Status: status, Class: res.ErrClass}, prog, backend
	}
	t.begin("encode")
	out := outcome{Status: 200, Result: nql.Repr(res.Value), Stdout: res.Stdout}
	_ = json.NewEncoder(io.Discard).Encode(wireResponse{Result: out.Result, Stdout: out.Stdout,
		Backend: backend, Dataset: "traced", DurationMS: res.Duration.Milliseconds()}) // io.Discard never fails
	t.end()
	return out, prog, backend
}

// doOutcome maps a Service.Do result onto the outcome its HTTP response
// carries.
func doOutcome(resp *service.Response, err error) outcome {
	if err == nil {
		return outcome{Status: 200, Result: resp.Result, Stdout: resp.Stdout}
	}
	var (
		shed *service.ShedError
		unav *service.UnavailableError
		vet  *service.VetError
		qerr *service.QueryError
	)
	switch {
	case errors.As(err, &shed):
		return outcome{Status: 429}
	case errors.As(err, &unav), errors.Is(err, service.ErrDraining):
		return outcome{Status: 503}
	case errors.As(err, &vet):
		return outcome{Status: 400, Class: "static"}
	case errors.As(err, &qerr):
		if errors.Is(qerr, context.DeadlineExceeded) {
			return outcome{Status: 504, Class: qerr.Class}
		}
		return outcome{Status: 422, Class: qerr.Class}
	default:
		return outcome{Status: 500}
	}
}
