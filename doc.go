// Package repro is a from-scratch Go reproduction of "Enhancing Network
// Management Using Code Generated by Large Language Models" (HotNets 2023):
// the NeMoEval benchmark, the natural-language network management framework
// it evaluates, and every substrate those depend on (attributed graph
// library, columnar dataframe, SQL engine, the NQL scripting language and
// sandbox, synthetic traffic and MALT workloads, simulated LLMs, and the
// cost model). See README.md for a tour and DESIGN.md for the system
// inventory.
//
// # Four backends
//
// Generated code runs against one of four backends. The paper's three
// per-substrate approaches each bind a single representation of the
// network state:
//
//   - networkx — the attributed graph (internal/graph via internal/nqlbind)
//   - pandas   — node/edge dataframes (internal/dataframe)
//   - sql      — a relational database (internal/sqldb)
//
// The fourth backend, federated, binds all three substrates at once plus a
// cross-substrate query planner (internal/federate, bound as `fed`): one
// logical plan — scan/filter/project/join/aggregate/sort/limit — is
// planned across the substrates with per-source pushdown (filters run on
// a frame's or SQL table's columns before a row is lifted, with one
// comparison rule for every source; graph scans push whole computations
// such as PageRank down into the graph library) and a shared executor
// lifts rows into NQL values. Preparation estimates each operator's rows
// and cost from per-epoch table statistics for explain(), with the
// estimates cached process-wide per (plan fingerprint, catalog epoch) so
// clones of one frozen dataset master plan once. One recursive executor
// with one join and one aggregate runs the optimized plan over every
// source: every operator reads its input's cells in place, scans filter
// on source columns before lifting a row, a join hashes its smaller
// input, only the rows the plan returns are lifted in full, and every
// operator polls cancellation at row checkpoints and emits one
// explain-analyze profile frame. A selective lookup costs what
// its answer costs: a frozen dataset master's frames and SQL tables share
// a lazily built string index with their unwritten clones, so a SELECT
// whose WHERE leads with `col = 'string'` and a federated frame or SQL
// scan that leads with `==` or `prefix` against a string read only the
// matching rows; a join whose right input is the graph's unfiltered node
// table, keyed on `id`, looks its left keys up in the graph's node index;
// and a graph scan's attribute columns are derived once per frozen graph
// master. Plans can join tables living in different substrates, e.g.
//
//	fed.scan("sql", "edges").filter("bytes", ">", 500000).
//	    join(fed.scan("graph", "degree"), "dst", "id").
//	    sort("in_degree", false).limit(5).collect()
//
// NQL and the tabular substrates share one key and order contract,
// internal/scalar, so an answer does not depend on the backend that ran
// it: kinds rank nil < bool < number < string, int64 and float64 compare
// by value (an int64 rounded through float64), -0 equals 0, and there is
// one NaN, equal to itself and below every other number. sqldb's GROUP
// BY, DISTINCT, joins, WHERE and ORDER BY, dataframe's GroupBy, Unique,
// Merge and SortBy, federate's aggregate, join, filters and sort, NQL's
// ==, <, dict keys, sorted(), min(), max() and unique(), and the graph
// state comparison all go through it, and composite keys are encoded so
// that no string can forge a field boundary. An NQL or federated ordering
// takes two numbers, two strings or two bools (a bool never orders against
// a number) and is an error on any other pair. nil, SQL NULL, is one
// class everywhere: sqldb =, GROUP BY and joins, dataframe Merge and
// federate joins pair NULL with NULL, a deliberate choice over SQL's
// three-valued logic so that every substrate partitions keys alike; only
// NQL's dict refuses nil as a key.
//
// The same package holds the one arithmetic contract. NQL's + - * / % and
// sum(), sqldb's arithmetic, SUM and AVG, dataframe's Sum and Mean and
// federate's aggregate sum and mean all call scalar.Arith or scalar.Sum:
// + - * of two int64s is exact, and a result outside int64 is the float64
// of the operands instead; / is float64 division and % takes integers; a
// sum is the exact int64 while every value is an int64 and the sum fits,
// else the float64 sum in row order. Each substrate keeps its own answer
// for an empty or all-nil input (pandas 0, SQL and federate NULL, NQL
// sum([]) 0), and NQL counts a bool as 0 or 1.
//
// The operations built on those rules are written once there too.
// scalar.Groups numbers key tuples in first-appearance order, scalar.Fold
// computes COUNT, SUM, MEAN, MIN or MAX over a column (skipping nil and
// keeping the first of equal least or greatest values, so MIN of 1 and
// 1.0 is 1), and scalar.SortStable stably sorts rows by key columns with a
// direction per key. sqldb's GROUP BY, DISTINCT, aggregates and ORDER BY,
// dataframe's GroupBy, Agg, Sum, Mean, Min, Max, SortBy and ValueCounts,
// and federate's aggregate and sort all call them, so the three backends
// group, fold and sort alike by construction.
//
// The federated backend is selectable end to end — core.Session
// (WithBackend("federated")), the netquery shell (-backend federated) — and
// internal/nemoeval cross-checks every federated golden against the three
// per-backend goldens (Runner.FederatedParity; `nemoeval -federated`). See
// examples/federated for a runnable tour.
//
// # Executing generated code
//
// Generated NQL programs flow through a compile → cache → execute
// pipeline. sandbox.Compile parses a source once into a Program that is
// cached by source text; the program's bytecode (internal/nql compile.go)
// is compiled once on first execution and cached on the Program; every
// trial of the evaluation matrix then runs the shared bytecode on a
// pooled slot-based VM with per-run state only (internal/nql vm.go). The
// VM is NQL's only engine. Pinned expectations define what it must do:
// the corpora in internal/nql hold values, stdout and exact error strings
// over the whole language surface, and internal/nemoeval pins every
// golden program's value, stdout, error and a digest of the post-run
// state of every bound substrate. FuzzRun (`make fuzz`) checks that
// arbitrary programs fail only as syntax, compile or categorized runtime
// errors.
//
// The generated programs spend most of their VM time in two shapes: a
// `for r in df.records()` loop that reads a few columns, and a dict keyed
// by every node. A loop whose body provably reads r only as r["literal"]
// compiles to a row form: a frame's loop reads each scalar cell in place
// from its columns as they were at loop start (the frame is marked
// copy-on-write with dataframe.Frame.Share) and builds no row maps, while
// any other receiver runs the materializing call as written. nql.Map indexes its keys past eight entries with an
// open-addressed []int32 table reached through a pointer, so a map stays
// 64 bytes and growing a dict rehashes positions instead of a Go map.
//
// # Static analysis
//
// internal/nql/analysis is a semantic analyzer over the parsed NQL AST:
// name resolution against a declared binding surface, arity and call-shape
// checks for every builtin, forward type inference over a small lattice
// that flags only guaranteed failures (a program diagnosed as an error
// cannot execute successfully on any input), and a purity/totality
// analysis that flags discarded results of side-effect-free expressions.
// It only reads the AST. The analyzer is advisory by design everywhere the
// evaluation matrix runs — tables and figures are byte-identical with it
// on or off — and becomes a gate in exactly two places: netqueryd rejects
// statically-invalid raw programs with 400 + structured diagnostics before
// admission control spends any tenant budget (vet rejects are counted on
// /metricsz), and `nqlvet -registry` (run by `make lint` and CI) holds
// every golden program x backend in the query catalog to zero findings.
//
// sandbox.Vet shares one cached compile+analyze entry point with
// sandbox.Compile, so the service, the evaluation matrix and the CLIs
// (`nqlvet`, `nemoeval -vet`) all see identical diagnostics for identical
// source.
//
// # Streaming and sharded datasets
//
// Figure-4-style scale sweeps outgrow a single in-memory traffic.Generate
// build, so large configs flow through a streamed, sharded pipeline
// instead. traffic.Stream emits the edge set as a deterministic, seeded
// sequence — a keyed pseudorandom permutation of the ordered-pair space,
// so the stream yields exactly cfg.Edges distinct edges with no rejection
// sampling, and a serializable Cursor resumes an interrupted sweep
// byte-identically. nemoeval.BuildShardedTraffic partitions the stream by
// destination node into per-shard frozen graph masters; evaluation workers
// clone only their shard's master (nemoeval.ShardedTraffic.ShardDataset),
// and Runner.StreamSweep fans shard aggregation and a gather-based
// PageRank over the worker pool, merging shard-level degree, component and
// rank aggregates deterministically — the merged report is byte-identical
// for any shard or worker count (`nemoeval -stream -shards 8`). Sandboxed
// programs participate through the incremental graph-update binding:
// internal/nqlbind exposes the stream as an `edge_stream` object
// (next/remaining/cursor) and graphs accept whole batches via
// graph.add_edge_batch — see examples/streamgraph for a sandboxed
// stop/resume build driven entirely from NQL.
//
// # Model-serving gateway
//
// The language model is a swappable component (Figure 2, box 4), and the
// serving side of that swap lives in internal/modelserve: a gateway
// between llm.Model and any provider. A Provider answers batched
// generation requests for named models — the calibrated simulations
// (SimProvider), any OpenAI-compatible chat-completions endpoint
// (HTTPProvider), or a fault injector for testing (Chaos). The Gateway
// coalesces concurrent requests from the evaluation worker pool into
// per-model batches, applies token-bucket rate limits (requests/sec and
// tokens/min), retries transient failures with exponential backoff and
// seeded jitter, and classifies terminal provider faults so they surface
// in the Table 5 error-category reports. Recorder/Replay wrap any
// provider chain in a content-addressed JSON cache keyed by
// (model, prompt, temperature, attempt): a recorded run replays
// byte-identically through the whole evaluation matrix with zero
// provider calls — the simulate → record → replay pipeline.
//
// The seam is llm.Provider: the gateway implements it, and
// llm.NewProviderModel adapts it back to the per-model Model interface,
// so nemoeval.Runner (Runner.Provider; `nemoeval -provider sim|http|replay`,
// -record/-replay, -rps/-tpm/-retries/-batch) and core.Session consume a
// gateway-backed model unchanged. Table and figure stdout stays
// byte-identical across providers that answer identically; the per-run
// gateway statistics (batches, retries, rate-limit waits, cache hits) go
// to stderr. See examples/modelserve for a runnable record→replay tour
// under injected faults.
//
// # netqueryd query service
//
// cmd/netqueryd serves the framework's datasets as a fault-tolerant
// multi-tenant HTTP query service (internal/service). Each request runs a
// sandboxed NQL program against a fresh clone of the current dataset
// epoch's frozen master under a propagated context deadline — the NQL VM
// polls its context once per 4096-step dispatch quantum, and the
// federated executor and SQL engine add their own row-loop checkpoints,
// so a deadline-exceeded or disconnected request aborts promptly at every
// layer. Per-tenant admission control (internal/limiter token buckets and
// concurrency gauges) sheds over-budget work with 429 + Retry-After
// instead of queueing it; per-substrate circuit breakers trip on
// consecutive timeouts and degrade catalog queries to the cheapest
// healthy substrate; datasets swap live (build → atomic flip → drain the
// old epoch) with zero dropped queries; and SIGINT/SIGTERM drain
// gracefully. The chaos suite in internal/service exercises all of it
// under -race. BenchmarkServiceQuery drives the handler in a closed loop
// for the benchdiff gate, and the bench/ harness measures tail latency
// under offered load. The internal/service doc.go carries the ops runbook.
//
// # Observability
//
// internal/obs is a dependency-free observability core shared by every
// layer of the serving stack: lock-free counters and gauges, log-bucketed
// mergeable histograms (exact count/sum/min/max, quantiles within ~3% and
// an exact p100), and lightweight context-propagated spans carrying a
// trace ID, parent links, tags, and wall/own time. A single obs.Registry
// replaces the bespoke stats code that service, modelserve and the load
// generator each grew independently; it renders deterministically in
// Prometheus text format at netqueryd's GET /metricsz. Request tracing is
// sampled by -trace-sample (recent traces at GET /tracez) and costs
// nothing when disabled — instrumentation calls are nil-receiver no-ops,
// gated by BenchmarkObsOverhead in the benchdiff watch list.
//
// Per-query execution profiles ride the same plumbing: POST /v1/query
// with "profile": true returns an EXPLAIN ANALYZE-style operator tree for
// federated plans (operator, rows, wall/own ns, with nested sqldb scan/
// join/filter frames), the NQL VM's opcode-class and builtin time/alloc
// breakdown, and the request's span tree. Inside NQL, fed plan objects
// expose the same tree as p.explain_analyze. See internal/service doc.go
// for the operator-facing runbook.
//
// On top of the core sits a health layer. internal/obs/health is a
// declarative SLO engine: per-tenant and per-backend availability and
// latency objectives evaluated over sliding windows, with Google-SRE
// multiwindow burn-rate alerting (page on a fast burn over 5m+1h, ticket
// on a slow burn over 30m+6h, hysteresis on clearing) rendered at GET
// /sloz and folded into /healthz?verbose=1. An always-on flight recorder
// keeps a bounded, zero-allocation ring of notable requests — every
// error, every success over a dynamic per-tenant slow threshold
// (p99 x factor, capped by the SLO latency budget), and sampled normals —
// each carrying the NQL program hash, federated plan fingerprint and
// trace ID, served filterable at GET /flightz; /metricsz histogram
// buckets carry trace-ID exemplars linking latency bands back to the same
// traces. GET /debugz/bundle (or netqueryd -dump-bundle) snapshots the
// whole story — stats, breakers, SLO states, flight records, traces,
// admission and cache state, runtime — as one deterministic JSON blob for
// incident reports. The chaos suite drives the full loop under -race:
// inject faults, watch the page fire, recover, watch it clear.
package repro
