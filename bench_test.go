package repro

// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation section (regenerating the artifact and reporting its headline
// numbers as metrics), micro-benchmarks for the substrates, and ablations
// for the design choices DESIGN.md calls out.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkTable2 -benchtime=1x

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataframe"
	"repro/internal/federate"
	"repro/internal/graph"
	"repro/internal/llm"
	"repro/internal/modelserve"
	"repro/internal/nemoeval"
	"repro/internal/nql"
	"repro/internal/nql/analysis"
	"repro/internal/nqlbind"
	"repro/internal/obs"
	"repro/internal/prompt"
	"repro/internal/queries"
	"repro/internal/sandbox"
	"repro/internal/sqldb"
	"repro/internal/synthesis"
	"repro/internal/tokens"
	"repro/internal/traffic"
)

// --- E1: Table 2 (accuracy summary, both applications) ---

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := nemoeval.NewRunner()
		tr, err := r.RunApp(queries.AppTraffic, true)
		if err != nil {
			b.Fatal(err)
		}
		ml, err := r.RunApp(queries.AppMALT, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tr["gpt-4|networkx"].Accuracy, "gpt4-traffic-nx-acc")
		b.ReportMetric(ml["gpt-4|networkx"].Accuracy, "gpt4-malt-nx-acc")
		b.ReportMetric(tr["gpt-4|strawman"].Accuracy, "gpt4-traffic-strawman-acc")
	}
}

// --- E2: Table 3 (traffic breakdown by complexity) ---

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := nemoeval.NewRunner()
		cells, err := r.RunApp(queries.AppTraffic, true)
		if err != nil {
			b.Fatal(err)
		}
		c := cells["gpt-4|networkx"]
		b.ReportMetric(c.ByComplexity[queries.Easy], "gpt4-nx-easy")
		b.ReportMetric(c.ByComplexity[queries.Medium], "gpt4-nx-medium")
		b.ReportMetric(c.ByComplexity[queries.Hard], "gpt4-nx-hard")
	}
}

// --- E3: Table 4 (MALT breakdown by complexity) ---

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := nemoeval.NewRunner()
		cells, err := r.RunApp(queries.AppMALT, false)
		if err != nil {
			b.Fatal(err)
		}
		c := cells["gpt-4|networkx"]
		b.ReportMetric(c.ByComplexity[queries.Easy], "gpt4-nx-easy")
		b.ReportMetric(c.ByComplexity[queries.Medium], "gpt4-nx-medium")
		b.ReportMetric(c.ByComplexity[queries.Hard], "gpt4-nx-hard")
	}
}

// --- E4: Table 5 (error taxonomy of NetworkX failures) ---

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := nemoeval.NewRunner()
		out, err := r.Table5()
		if err != nil {
			b.Fatal(err)
		}
		failures := 0
		for _, rec := range r.Log.Failures() {
			_ = rec
			failures++
		}
		b.ReportMetric(float64(failures), "networkx-failures")
		_ = out
	}
}

// --- E5: Table 6 (pass@k and self-debug case study) ---

func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs, err := synthesis.RunCaseStudy()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cs.Pass1, "pass@1")
		b.ReportMetric(cs.Pass5, "pass@5")
		b.ReportMetric(cs.SelfDebug, "self-debug")
	}
}

// --- E6: Figure 4a (cost CDF at 80 nodes and edges) ---

func BenchmarkFigure4a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := nemoeval.Figure4a()
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}

// --- E7: Figure 4b (cost vs graph size; strawman token-limit crossover) ---

func BenchmarkFigure4b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := nemoeval.Figure4b()
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}

// --- E8: streamed, sharded dataset sweep (Figure-4 scale-out path) ---

// BenchmarkStreamSweep measures the full scale-out pipeline at the size the
// in-memory generator used to be the wall: stream 100k edges into 8
// per-shard frozen masters, aggregate the shards over the worker pool and
// merge degree/component/PageRank stats. Watched by benchdiff.
func BenchmarkStreamSweep(b *testing.B) {
	cfg := traffic.Config{Nodes: 10000, Edges: 100000, Seed: 42}
	for i := 0; i < b.N; i++ {
		r := nemoeval.NewRunner()
		out, err := r.StreamSweep(cfg, 8)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty sweep report")
		}
	}
}

// --- E9: model-serving gateway throughput (batching on vs off) ---

// BenchmarkGatewayThroughput pushes a fixed worker-pool burst of real
// code-generation requests through the gateway-fronted simulated provider
// — the serving path every live-model scenario rides — with request
// coalescing enabled and disabled. Watched by benchdiff.
func BenchmarkGatewayThroughput(b *testing.B) {
	w := traffic.Wrapper{}
	var prompts []string
	for _, q := range queries.Traffic() {
		prompts = append(prompts, prompt.BuildCodePrompt(w, prompt.BackendNetworkX, q.Text))
	}
	const workers = 64
	const requests = 2048
	for _, batching := range []struct {
		name   string
		size   int
		window time.Duration
	}{
		// A coalescing window is what makes batches fill on a mostly-idle
		// scheduler (single-core runners serialize worker and dispatcher
		// goroutines, so backlog alone rarely forms); off is the pure
		// per-request dispatch path.
		{"batching=on", 16, 200 * time.Microsecond},
		{"batching=off", 1, 0},
	} {
		b.Run(batching.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gw, err := modelserve.New(modelserve.Config{
					Provider:    modelserve.NewSimProvider(),
					BatchSize:   batching.size,
					BatchWindow: batching.window,
				})
				if err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				var failed atomic.Int64
				per := requests / workers
				wg.Add(workers)
				for wkr := 0; wkr < workers; wkr++ {
					go func(wkr int) {
						defer wg.Done()
						model := llm.NewProviderModel(gw, llm.ModelNames[wkr%len(llm.ModelNames)])
						for j := 0; j < per; j++ {
							req := llm.Request{Prompt: prompts[(wkr+j)%len(prompts)], Attempt: 1 + j%5}
							if _, err := model.Generate(req); err != nil {
								failed.Add(1)
							}
						}
					}(wkr)
				}
				wg.Wait()
				if failed.Load() != 0 {
					b.Fatalf("%d generations failed", failed.Load())
				}
				stats := gw.Stats()
				b.ReportMetric(float64(stats.ProviderCalls), "provider-calls")
				b.ReportMetric(float64(stats.MaxBatch), "max-batch")
			}
		})
	}
}

// --- substrate micro-benchmarks ---

func benchGraph(n, e int) *graph.Graph {
	return traffic.Generate(traffic.Config{Nodes: n, Edges: e, Seed: 7})
}

func BenchmarkGraphPageRank(b *testing.B) {
	g := benchGraph(500, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PageRank(0.85, 100, 1e-9)
	}
}

func BenchmarkGraphBetweenness(b *testing.B) {
	g := benchGraph(150, 600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BetweennessCentrality(true)
	}
}

func BenchmarkGraphComponents(b *testing.B) {
	g := benchGraph(2000, 4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ConnectedComponents()
	}
}

// BenchmarkGraphClone measures the evaluation pipeline's clone path: a
// frozen master (as every dataset builder now prepares) cloned per
// instance, sharing attribute maps copy-on-write.
func BenchmarkGraphClone(b *testing.B) {
	g := benchGraph(1000, 3000)
	g.Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Clone()
	}
}

// instanceBindSink keeps BenchmarkInstanceBind's result live.
var instanceBindSink map[string]nql.Value

// BenchmarkInstanceBind measures the per-request instance layer at the
// federated-analytics scale (600 nodes, 6000 edges): build one traffic
// instance — the graph clone plus frame and table clones — and bind the
// federated backend's globals, which forces every representation.
func BenchmarkInstanceBind(b *testing.B) {
	build := nemoeval.TrafficDataset(traffic.Config{Nodes: 600, Edges: 6000, Seed: 42})
	build().Bindings(prompt.BackendFederated) // one-time derivations stay untimed
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		instanceBindSink = build().Bindings(prompt.BackendFederated)
	}
}

// BenchmarkGraphCloneWrite measures what a lazy clone defers: cloning a
// frozen federated-analytics-scale master (600 nodes, 6000 edges) plus the
// first write, which copies the shared containers.
func BenchmarkGraphCloneWrite(b *testing.B) {
	g := benchGraph(600, 6000)
	g.Freeze()
	e := g.EdgesView()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := g.Clone()
		if err := c.SetEdgeAttr(e.U, e.V, "bytes", i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphCloneDeep measures a full deep copy (no Freeze): every
// attribute map is duplicated eagerly.
func BenchmarkGraphCloneDeep(b *testing.B) {
	g := benchGraph(1000, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Clone()
	}
}

func BenchmarkDataframeGroupBy(b *testing.B) {
	f := dataframe.New("k", "v")
	for i := 0; i < 10000; i++ {
		f.AppendRow(fmt.Sprintf("g%d", i%40), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := f.GroupBy("k")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.Agg(dataframe.AggSpec{Col: "v", Func: dataframe.AggSum}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDataframeSort(b *testing.B) {
	f := dataframe.New("v")
	for i := 0; i < 10000; i++ {
		f.AppendRow((i * 2654435761) % 100000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.SortBy(true, "v"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLGroupBy(b *testing.B) {
	db := traffic.Database(benchGraph(500, 2000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT src, SUM(bytes) AS s FROM edges GROUP BY src ORDER BY s DESC"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLHashJoin(b *testing.B) {
	db := traffic.Database(benchGraph(500, 2000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT e.src, n.ip FROM edges e JOIN nodes n ON e.src = n.id"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQLJoinWhere runs a text-path join filtered on both sides, the
// shape the paper's SQL goldens take: every joined row is a scope the WHERE
// clause reads by qualified and unqualified name.
func BenchmarkSQLJoinWhere(b *testing.B) {
	db := traffic.Database(benchGraph(500, 2000))
	const q = "SELECT e.src, ip, e.bytes FROM edges e JOIN nodes n ON e.dst = n.id WHERE e.bytes > 1000 AND packets > 1 AND ip != ''"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := db.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if f.NumRows() == 0 {
			b.Fatal("empty join result")
		}
	}
}

// BenchmarkDataframeRecords runs an NQL records() loop over the traffic
// edges frame of a 600-node, 6000-edge instance through the sandbox: one
// row map per edge, read by key, the pandas backend's row-walking path.
func BenchmarkDataframeRecords(b *testing.B) {
	build := nemoeval.TrafficDataset(traffic.Config{Nodes: 600, Edges: 6000, Seed: 42})
	prog, err := sandbox.Compile(`let total = 0
for r in edges_df.records() {
  if r["bytes"] > 1000 { total = total + r["packets"] }
}
return total`)
	if err != nil {
		b.Fatal(err)
	}
	build().Bindings(prompt.BackendPandas) // one-time frame derivation stays untimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sandbox.RunProgram(prog, build().Bindings(prompt.BackendPandas), sandbox.DefaultPolicy)
		if !res.OK() {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkNQLDictBuild runs the MALT pandas prelude, which every MALT
// pandas golden and generated trial starts with
// (internal/queries/malt_queries.go), over a MALT instance through the
// sandbox: records() loops over both frames that fill dicts keyed by node
// id. It times row iteration and dict growth together.
func BenchmarkNQLDictBuild(b *testing.B) {
	build := nemoeval.MALTDataset()
	prog, err := sandbox.Compile(`let kind = {}
for r in nodes_df.records() { kind[r["id"]] = r["kind"] }
let children = {}
let parents = {}
for r in edges_df.records() {
  if r["relation"] == "RK_CONTAINS" {
    if not contains(children, r["src"]) { children[r["src"]] = [] }
    push(children[r["src"]], r["dst"])
    parents[r["dst"]] = r["src"]
  }
}
return [len(kind), len(children), len(parents)]`)
	if err != nil {
		b.Fatal(err)
	}
	build().Bindings(prompt.BackendPandas) // one-time frame derivation stays untimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sandbox.RunProgram(prog, build().Bindings(prompt.BackendPandas), sandbox.DefaultPolicy)
		if !res.OK() {
			b.Fatal(res.Err)
		}
	}
}

// nqlBenchSrc is the NQL micro-benchmark program: arithmetic, branching
// and a loop.
const nqlBenchSrc = `
let total = 0
for i in range(1000) {
  if i % 3 == 0 { total = total + i }
}
return total`

// BenchmarkNQLVM measures the bytecode engine on the cached-program path
// the evaluation matrix actually runs: the program is compiled once and
// executed per trial on a fresh interpreter. Watched by benchdiff.
func BenchmarkNQLVM(b *testing.B) {
	prog, err := nql.Parse(nqlBenchSrc)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := prog.Compiled(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := nql.NewInterp(nql.Limits{}, nil)
		if _, err := in.RunProgram(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNQLParse(b *testing.B) {
	q, _ := queries.ByID("ta-h5")
	src := q.Golden["pandas"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nql.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNQLAnalyze measures the semantic analyzer on a golden program
// with name resolution against the federated surface — the exact work
// sandbox.Vet and netqueryd's pre-admission gate add per (uncached)
// program. Matched by the micro pass's NQL regex and tracked by benchdiff.
func BenchmarkNQLAnalyze(b *testing.B) {
	q, _ := queries.ByID("ta-h5")
	src := q.Golden["federated"]
	prog, err := nql.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	globals := nemoeval.StaticGlobals(prompt.BackendFederated)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := analysis.Analyze(prog, analysis.Options{Globals: globals}); len(diags) != 0 {
			b.Fatalf("golden program drew diagnostics: %v", diags)
		}
	}
}

func BenchmarkSandboxGoldenQuery(b *testing.B) {
	g := benchGraph(80, 80)
	g.Freeze() // evaluation masters are frozen; clones are copy-on-write
	q, _ := queries.ByID("ta-h1")
	src := q.Golden["networkx"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sandbox.Run(src, nqlbind.Globals(g.Clone(), nil), sandbox.DefaultPolicy)
		if !res.OK() {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkObsOverhead gates the observability layer's cost on the hot
// query path: the same sandboxed golden query with instrumentation fully
// off (the production default — nil-receiver no-ops everywhere) and with
// tracing plus operator/VM profiling fully on. "disabled" is watched by
// benchdiff against the uninstrumented baseline; "enabled" documents the
// price of -trace-sample 1 plus "profile": true.
func BenchmarkObsOverhead(b *testing.B) {
	g := benchGraph(80, 80)
	g.Freeze()
	q, _ := queries.ByID("ta-h1")
	src := q.Golden["networkx"]
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := sandbox.Run(src, nqlbind.Globals(g.Clone(), nil), sandbox.DefaultPolicy)
			if !res.OK() {
				b.Fatal(res.Err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := obs.NewTrace("bench-1")
			ctx := obs.WithProfile(obs.WithTrace(context.Background(), tr), obs.NewProfile())
			_, span := obs.StartSpan(ctx, "query")
			policy := sandbox.DefaultPolicy
			policy.Profile = nql.NewVMProfile()
			policy.Context = ctx
			res := sandbox.Run(src, nqlbind.Globals(g.Clone(), nil), policy)
			span.End()
			if !res.OK() {
				b.Fatal(res.Err)
			}
		}
	})
	// flight is the recorder's hot-path tax on an unremarkable request: one
	// Admit (sampled out) per iteration. The 0 allocs/op figure is the
	// contract — a healthy fast request must not allocate for the recorder.
	b.Run("flight", func(b *testing.B) {
		rec := obs.NewFlightRecorder(256, 1<<40)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if rec.Admit() {
				b.Fatal("sampled in with an astronomically large interval")
			}
		}
	})
}

// BenchmarkFederatedJoin measures the federated planner's hot path: a
// filtered SQL scan (pushed down as a WHERE clause) joined against the
// graph's degree table, sorted and limited — the cross-substrate plan shape
// the federated backend introduces.
func BenchmarkFederatedJoin(b *testing.B) {
	inst := nemoeval.TrafficDataset(nemoeval.DefaultTrafficConfig)()
	cat := inst.Federation()
	plan := &federate.Limit{N: 5, Input: &federate.Sort{
		Ascending: false, Cols: []string{"in_degree"},
		Input: &federate.Join{
			Left: &federate.Filter{
				Input: &federate.Scan{Source: federate.SourceSQL, Table: "edges"},
				Pred:  federate.Cmp{Col: "bytes", Op: ">", Value: int64(500000)},
			},
			Right:    &federate.Scan{Source: federate.SourceGraph, Table: federate.GraphTableDegree},
			LeftKey:  "dst",
			RightKey: "id",
		},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := federate.Run(cat, plan)
		if err != nil {
			b.Fatal(err)
		}
		if rel.NumRows() == 0 {
			b.Fatal("empty join result")
		}
	}
}

// BenchmarkFederatedPipeline runs a filtered SQL scan aggregated and
// sorted over a larger traffic graph. The aggregate reads the columnar SQL
// scan's cells in place, so this gates the aggregate over column storage.
func BenchmarkFederatedPipeline(b *testing.B) {
	cfg := nemoeval.DefaultTrafficConfig
	cfg.Nodes, cfg.Edges = 600, 6000
	inst := nemoeval.TrafficDataset(cfg)()
	cat := inst.Federation()
	plan := federate.Node(&federate.Sort{
		Ascending: false, Cols: []string{"total"},
		Input: &federate.Aggregate{
			GroupBy: []string{"src"},
			Aggs: []federate.AggSpec{
				{Col: "bytes", Fn: "sum", As: "total"},
				{Col: "bytes", Fn: "count", As: "n"},
			},
			Input: &federate.Filter{
				Input: &federate.Scan{Source: federate.SourceSQL, Table: "edges"},
				Pred:  federate.Cmp{Col: "bytes", Op: ">", Value: int64(1000)},
			},
		},
	})
	for i := 0; i < b.N; i++ {
		rel, err := federate.Run(cat, plan)
		if err != nil {
			b.Fatal(err)
		}
		if rel.NumRows() == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkFederatedSQLJoin joins the SQL edges table with the SQL nodes
// table on dst = id over the 600-node, 6000-edge traffic instance: the
// join reads both columnar SQL scans' cells in place and lifts only its
// output rows.
func BenchmarkFederatedSQLJoin(b *testing.B) {
	cfg := nemoeval.DefaultTrafficConfig
	cfg.Nodes, cfg.Edges = 600, 6000
	inst := nemoeval.TrafficDataset(cfg)()
	cat := inst.Federation()
	plan := federate.Node(&federate.Join{
		Left:     &federate.Scan{Source: federate.SourceSQL, Table: "edges"},
		Right:    &federate.Scan{Source: federate.SourceSQL, Table: "nodes"},
		LeftKey:  "dst",
		RightKey: "id",
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := federate.Run(cat, plan)
		if err != nil {
			b.Fatal(err)
		}
		if rel.NumRows() != cfg.Edges {
			b.Fatalf("%d joined rows, want one per edge (%d)", rel.NumRows(), cfg.Edges)
		}
	}
}

// BenchmarkFederatedGoldenQuery runs a complete federated golden (plan
// construction in NQL + execution) against a fresh instance per iteration,
// the federated analogue of BenchmarkSandboxGoldenQuery.
func BenchmarkFederatedGoldenQuery(b *testing.B) {
	build := nemoeval.TrafficDataset(nemoeval.DefaultTrafficConfig)
	q, _ := queries.ByID("ta-h7")
	src := q.Golden["federated"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := build()
		res := sandbox.Run(src, inst.Bindings("federated"), sandbox.DefaultPolicy)
		if !res.OK() {
			b.Fatal(res.Err)
		}
	}
}

// fedAnalyticsTemplates are the three raw federated programs of the
// fed-analytics service workload (a pushed-down scan+filter+count, a
// sql×graph join with sort and limit, a dataframe prefix-filtered group-by),
// each over one node ID.
var fedAnalyticsTemplates = []struct {
	name string
	src  func(id string) string
}{
	{"count", func(id string) string {
		return fmt.Sprintf(`return fed.scan("sql", "edges").filter("src", "==", %q).count()`, id)
	}},
	{"join", func(id string) string {
		return fmt.Sprintf(`let rows = fed.scan("sql", "edges").filter("src", "==", %q).join(fed.scan("graph", "nodes"), "dst", "id").project("dst", "ip", "bytes").sort("dst").sort("bytes", false).limit(5).collect()
let out = []
for r in rows { push(out, [r["dst"], r["ip"], r["bytes"]]) }
return out`, id)
	}},
	{"agg", func(id string) string {
		return fmt.Sprintf(`let f = fed.scan("frame", "edges").filter("src", "prefix", %q).agg(["dst"], ["bytes", "sum", "b"], ["packets", "sum", "p"], ["src", "count", "n"])
return f.sort("dst").collect()`, id[:3])
	}},
}

// BenchmarkFederatedAnalytics runs each fed-analytics template through
// sandbox.RunProgram on a fresh 600-node, 6000-edge traffic instance per
// iteration: the per-request instance and federated execution cost netqueryd
// pays, without HTTP. Selective lookups should cost what their answer
// costs, not what the network costs.
func BenchmarkFederatedAnalytics(b *testing.B) {
	build := nemoeval.TrafficDataset(traffic.Config{Nodes: 600, Edges: 6000, Seed: 42})
	id := build().G().Nodes()[7]
	for _, tmpl := range fedAnalyticsTemplates {
		prog, err := sandbox.Compile(tmpl.src(id))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tmpl.name, func(b *testing.B) {
			build().Bindings(prompt.BackendFederated) // one-time derivations stay untimed
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := sandbox.RunProgram(prog, build().Bindings(prompt.BackendFederated), sandbox.DefaultPolicy)
				if !res.OK() {
					b.Fatal(res.Err)
				}
			}
		})
	}
}

func BenchmarkTokenCount(b *testing.B) {
	g := benchGraph(150, 150)
	data, err := g.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	s := string(data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tokens.Count(s)
	}
}

// --- ablations ---

// BenchmarkAblationBackend quantifies the paper's "graph library simplifies
// generated code" claim: golden program size and sandbox latency per
// backend over the full traffic suite.
func BenchmarkAblationBackend(b *testing.B) {
	for _, backend := range prompt.Backends {
		b.Run(backend, func(b *testing.B) {
			ev := nemoeval.NewEvaluator(nemoeval.TrafficDataset(nemoeval.DefaultTrafficConfig))
			totalLen := 0
			for _, q := range queries.Traffic() {
				totalLen += len(q.Golden[backend])
			}
			b.ReportMetric(float64(totalLen)/float64(len(queries.Traffic())), "golden-bytes/query")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries.Traffic() {
					rec := ev.EvaluateCode(q, backend, q.Golden[backend])
					if !rec.Pass {
						b.Fatalf("%s/%s: %s", q.ID, backend, rec.Err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationContext measures what the application wrapper's context
// costs per query in prompt tokens — the price of the paper's
// domain-specialization stage (box 2) relative to a bare query.
func BenchmarkAblationContext(b *testing.B) {
	w := traffic.Wrapper{}
	q, _ := queries.ByID("ta-h1")
	full := prompt.BuildCodePrompt(w, prompt.BackendNetworkX, q.Text)
	bare := q.Text
	b.ReportMetric(float64(tokens.Count(full)), "prompt-tokens-with-context")
	b.ReportMetric(float64(tokens.Count(bare)), "prompt-tokens-bare")
	for i := 0; i < b.N; i++ {
		tokens.Count(full)
	}
}

// BenchmarkAblationSandboxLimits measures containment latency for runaway
// generated code under different step budgets.
func BenchmarkAblationSandboxLimits(b *testing.B) {
	for _, steps := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("steps=%d", steps), func(b *testing.B) {
			policy := sandbox.DefaultPolicy
			policy.MaxSteps = steps
			for i := 0; i < b.N; i++ {
				res := sandbox.Run("while true { }", nil, policy)
				if res.OK() {
					b.Fatal("runaway not contained")
				}
			}
		})
	}
}

// BenchmarkAblationTrials measures the cost of Bard's 5-trial averaging
// versus single-shot evaluation on one MALT query.
func BenchmarkAblationTrials(b *testing.B) {
	ev := nemoeval.NewEvaluator(nemoeval.MALTDataset())
	model, err := llm.NewSim("bard")
	if err != nil {
		b.Fatal(err)
	}
	q, _ := queries.ByID("malt-e1")
	for _, trials := range []int{1, 5} {
		b.Run(fmt.Sprintf("trials=%d", trials), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for t := 1; t <= trials; t++ {
					ev.EvaluateModel(model, q, prompt.BackendNetworkX, t, 0)
				}
			}
		})
	}
}

// BenchmarkAblationGraphScale shows code-generation evaluation latency is
// insensitive to network size (the paper's scalability property), by
// evaluating the same query at growing scales.
func BenchmarkAblationGraphScale(b *testing.B) {
	model, err := llm.NewSim("gpt-4")
	if err != nil {
		b.Fatal(err)
	}
	q, _ := queries.ByID("ta-e5")
	for _, n := range []int{80, 200, 400} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ev := nemoeval.NewEvaluator(nemoeval.TrafficDataset(traffic.Config{Nodes: n, Edges: n, Seed: 42}))
			for i := 0; i < b.N; i++ {
				rec := ev.EvaluateModel(model, q, prompt.BackendNetworkX, 1, 0)
				if !rec.Pass {
					b.Fatal(rec.Err)
				}
			}
		})
	}
}

// BenchmarkEndToEndAsk measures one full Ask round through the public API.
func BenchmarkEndToEndAsk(b *testing.B) {
	model, err := llm.NewSim("gpt-4")
	if err != nil {
		b.Fatal(err)
	}
	q, _ := queries.ByID("ta-e5")
	ev := nemoeval.NewEvaluator(nemoeval.TrafficDataset(nemoeval.DefaultTrafficConfig))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := ev.EvaluateModel(model, q, prompt.BackendNetworkX, 1, 0)
		if !rec.Pass {
			b.Fatal(rec.Err)
		}
	}
}

// BenchmarkStateEqual measures the evaluator's state check on the MALT
// instance: StateEqual of two unwritten clones of the frozen masters per
// backend, which compares by identity, and of two clones that wrote the
// same node attribute, as a passing mutation trial leaves them: the
// graph comparison then walks every node and edge, skipping each
// attribute map the clones still share.
func BenchmarkStateEqual(b *testing.B) {
	build := nemoeval.MALTDataset()
	run := func(b *testing.B, backend string, x, y *nemoeval.Instance) {
		if !nemoeval.StateEqual(backend, x, y) {
			b.Fatal("equal states compare unequal")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !nemoeval.StateEqual(backend, x, y) {
				b.Fatal("equal states compare unequal")
			}
		}
	}
	for _, backend := range prompt.AllBackends {
		b.Run("unwritten/"+backend, func(b *testing.B) {
			run(b, backend, build(), build())
		})
	}
	b.Run("written/"+prompt.BackendNetworkX, func(b *testing.B) {
		x, y := build(), build()
		for _, inst := range []*nemoeval.Instance{x, y} {
			if err := inst.G().SetNodeAttr(inst.G().Nodes()[0], "name", "renamed"); err != nil {
				b.Fatal(err)
			}
		}
		run(b, prompt.BackendNetworkX, x, y)
	})
}

// sanity: the sqldb package is exercised via traffic.Database above; keep a
// direct reference so the import list stays honest if benches change.
var _ = sqldb.NewDB

// BenchmarkSQLScan runs single-table SELECTs over the 500-node, 2,000-edge
// traffic instance: the plain two-column read the paper's SQL goldens
// issue most often, the same read behind a WHERE that keeps a few rows,
// and (eq) the edges out of one node on a clone of a frozen database,
// which its string-equality index serves.
func BenchmarkSQLScan(b *testing.B) {
	g := benchGraph(500, 2000)
	db := traffic.Database(g)
	master := traffic.Database(g)
	master.Freeze()
	for _, c := range []struct {
		name, q string
		db      *sqldb.DB
	}{
		{"plain", "SELECT src, dst FROM edges", db},
		{"where", "SELECT src, dst FROM edges WHERE bytes > 1000", db},
		{"eq", fmt.Sprintf("SELECT src, dst FROM edges WHERE src = '%s'", g.Nodes()[7]), master.Clone()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.db.Query(c.q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
