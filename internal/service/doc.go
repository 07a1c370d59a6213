// Package service implements netqueryd, a fault-tolerant multi-tenant
// network-query service over the evaluation framework's datasets. Every
// request executes a sandboxed NQL program against a fresh clone of the
// current dataset epoch's frozen master, under a propagated
// context.Context deadline that the NQL VM, the federated executor and the
// SQL engine all honor at cooperative checkpoints.
//
// The service stays correct and responsive under faults and overload:
//
//   - Admission control: per-tenant token buckets (requests/sec) and
//     concurrency gauges shed over-budget work immediately with a
//     Retry-After hint instead of queueing it, so one tenant's burst
//     cannot grow everyone else's tail latency.
//   - Deadlines: each request's deadline rides its context through every
//     execution layer; a deadline-exceeded query returns within one VM
//     dispatch quantum, not after the query finishes.
//   - Circuit breaking: a per-substrate breaker trips after consecutive
//     timeouts and reroutes catalog queries to the cheapest healthy
//     substrate until a cooldown passes.
//   - Live dataset swap: Swap loads a new frozen master, atomically flips
//     new arrivals onto it, and drains the old epoch — zero queries are
//     dropped and every response is consistent with exactly one epoch.
//   - Graceful drain: Drain stops admission and waits for in-flight work,
//     so a shutdown never kills a running query.
//
// # Runbook: flags
//
// cmd/netqueryd exposes every Config knob as a flag:
//
//	-addr :8090               listen address
//	-app traffic              initial dataset (traffic, malt, diagnosis)
//	-nodes 80 -edges 80       traffic graph scale
//	-seed 42                  traffic workload seed
//	-tenant-rps 50            per-tenant admitted requests/sec
//	-tenant-burst 16          per-tenant request burst
//	-tenant-concurrency 8     per-tenant in-flight cap (-1 unlimited)
//	-default-timeout 2s       deadline for requests that name none
//	-max-timeout 10s          cap on client-requested deadlines
//	-breaker-threshold 5      consecutive timeouts tripping a breaker
//	-breaker-cooldown 1s      how long a tripped breaker stays open
//	-drain-timeout 30s        shutdown drain budget
//	-slo-availability 0.999   availability objective target (-1 disables)
//	-slo-latency-target 0.99  latency objective quantile target
//	-slo-latency-threshold 250ms  latency per-request budget (-1ns disables)
//	-slo-tick 10s             health tick (SLO window sampling) interval
//	-flight-capacity 256      flight recorder ring size (-1 disables)
//	-flight-sample 64         sample one normal request per this many
//	-flight-slow-factor 4     dynamic slow threshold = tenant p99 x factor
//
// Endpoints: POST /v1/query runs one query ({"tenant", "query" or
// "query_id", optional "backend", "timeout_ms"}); POST /admin/swap
// installs a new dataset; GET /healthz reports the live epoch and breaker
// states (?verbose=1 adds SLO, cache and flight detail); GET /statsz dumps
// counters; GET /sloz, /flightz, /tracez, /metricsz and /debugz/bundle are
// the health and evidence surfaces described below.
//
// # Runbook: admission tuning
//
// Admission is two independent gates per tenant, checked before any work
// is done. The token bucket (-tenant-rps / -tenant-burst) bounds offered
// rate: a request that finds no token is shed with HTTP 429 and a
// Retry-After header naming when a token will exist — it is never queued,
// so shed requests cost microseconds and cannot build a backlog. The
// concurrency gauge (-tenant-concurrency) bounds in-flight work, which is
// what actually protects tail latency when queries are slow rather than
// frequent. Size the bucket for the tenant's contract (rps = sustained
// rate, burst = tolerated spike) and the gauge for query weight: long
// analytical queries warrant a small gauge (2-4); sub-millisecond catalog
// lookups tolerate a large one. A 429 spike with healthy /statsz latency
// means the budget is too small; rising p99 with no sheds means it is too
// large (work is queueing inside the substrates, tighten the gauge).
//
// # Runbook: swap procedure
//
// POST /admin/swap with {"app": "traffic", "nodes": N, "edges": E,
// "seed": S} (or "malt"/"diagnosis"). The service builds the new frozen
// master before touching live traffic — a swap that fails to build leaves
// the old epoch serving. It then atomically flips new arrivals onto the
// new epoch and waits for the old epoch's in-flight queries to drain
// before releasing it. In-flight queries finish on the epoch they started
// on; every response names its epoch in "dataset". The call returns only
// after the old epoch has fully drained, so back-to-back swaps serialize.
// Verify with GET /healthz ("dataset") and Stats().Swaps.
//
// # Runbook: breaker semantics
//
// Each execution substrate (networkx, pandas, sql, federated) has an
// independent breaker. Only the service's own deadline expiries count as
// substrate timeouts — client disconnects and NQL errors do not.
// After -breaker-threshold consecutive timeouts the breaker opens: catalog
// queries (query_id) reroute to the cheapest healthy substrate that has a
// golden program for them, in cost order networkx < pandas < sql <
// federated; raw-program requests pinned to an open substrate fail fast
// with HTTP 503. After -breaker-cooldown the breaker half-opens and
// admits one probe: a success closes it, another timeout re-opens it for
// a fresh cooldown. Breaker states are visible in /healthz and trip
// counts in /statsz. A breaker that flaps open on a healthy substrate
// usually means -default-timeout is too tight for the dataset scale.
//
// # Runbook: metrics, traces and query profiles
//
// GET /metricsz exposes the service's obs registry in Prometheus text
// format: netqueryd_results_total{result=ok|shed|timeout|disconnect|error}
// splits outcomes (client hangups are "disconnect", never conflated with
// server-side "timeout" — only the latter feeds the breakers);
// netqueryd_inflight gauges admitted concurrency; per-tenant series
// (netqueryd_tenant_requests_total, _shed_total, and the
// netqueryd_tenant_latency_ns histogram) attribute load and latency to
// tenants; per-backend series (netqueryd_backend_requests_total,
// _latency_ns) do the same per substrate. Histogram buckets are
// log-spaced with ~3% relative error; _sum/_count give exact means.
//
// Request tracing is off by default. -trace-sample F traces roughly one
// in 1/F arrivals (1 traces everything) into a 32-entry ring served as
// JSON at GET /tracez; each trace holds query/bind/execute spans with
// wall and own (self) nanoseconds plus tenant/backend/query_id tags.
// Profiled requests are always traced regardless of the sample rate.
//
// For one slow query, POST /v1/query with "profile": true. The response's
// "profile" object carries: "operators" — the federated plan's EXPLAIN
// ANALYZE tree (operator, detail, depth, rows, wall_ns, own_ns; a SQL
// text statement, db.query or db.exec, adds sqldb's
// sql.select/sql.scan/sql.join/sql.filter frames, while a federated SQL
// scan reads its table as a frame and is one scan frame);
// "vm" — the NQL VM's opcode-class counts with sampled time attribution
// and exact builtin call/time/alloc stats; "spans" — the request's span
// tree; and "trace_id" to correlate with /tracez. Rows of -1 mark frames
// that failed. High sql.scan rows with low final rows suggests a missing
// pushdown; wall >> own on a frame means the time is in its children.
// -pprof additionally mounts Go's /debug/pprof handlers for CPU and heap
// profiling of the process itself.
//
// # Runbook: SLOs and burn-rate alerts (/sloz)
//
// The service declares two objectives per tenant and per backend, over the
// sliding windows internal/obs/health maintains: availability (the
// -slo-availability fraction of executed requests that must not fail
// server-side — timeouts and execution errors burn budget; sheds, client
// disconnects and vet rejects do not, those are the service working as
// intended) and latency (the -slo-latency-target quantile must finish
// under -slo-latency-threshold). A background tick (-slo-tick) samples
// every objective's cumulative tallies; burn rates are computed over
// Google-SRE multiwindow pairs — page on burn >= 14.4 over both 5m and 1h,
// ticket on burn >= 6 over both 30m and 6h — and alerts clear with
// hysteresis once the short window's burn drops below 90% of its
// threshold. GET /sloz renders targets, per-window totals/bad/burn and
// alert states in deterministic Prometheus text; /healthz?verbose=1 folds
// in the same evaluation as JSON plus a firing count.
//
// When /sloz pages: a page pair burning means the error budget is going
// NOW (a 14.4x burn exhausts a 30-day budget in ~2 days); the ticket pair
// firing alone is slow budget leakage. Go to /flightz for the offenders.
//
// # Runbook: flight recorder (/flightz)
//
// The flight recorder is an always-on bounded ring (-flight-capacity) of
// notable requests, recorded with zero allocations on the hot path: every
// error (classed static, shed, breaker-open, draining, timeout,
// disconnect, error), every slow success (over the tenant's dynamic
// threshold: p99 x -flight-slow-factor, floored and capped by the SLO
// latency budget), and one sampled normal per -flight-sample as workload
// context. Each record carries tenant, backend, query_id, the NQL
// program's source hash, the federated plan fingerprint(s) it executed,
// the trace ID when traced, and the queue/execute/total latency split.
// GET /flightz renders one record per line (?format=json for the array),
// filterable by ?tenant=, ?backend=, ?class= and ?min_ns=. The program
// hash matches the sandbox bytecode cache's identity and the plan
// fingerprint matches the federated plan cache's Explain identity, so a
// flight record reproduces as: look up the program, Explain the plan.
//
// The evidence chain from an alert: /sloz names the burning series
// (tenant or backend) → /flightz?tenant=X&class=timeout lists the exact
// requests with program hashes and plan fingerprints → their trace= IDs
// resolve in /tracez (?tenant=, ?backend=, ?min_ns= filter; ?format=text
// renders span trees) → /metricsz histogram buckets carry OpenMetrics
// trace-ID exemplars linking latency bands back to the same traces.
//
// # Runbook: diagnostic bundle (/debugz/bundle)
//
// GET /debugz/bundle (or netqueryd -dump-bundle, which builds the service,
// writes one bundle to stdout and exits) captures the whole story in one
// deterministically-ordered JSON blob: stats, breaker states in substrate
// cost order, SLO evaluations, flight records, retained traces, per-tenant
// admission state (bucket/gauge levels, latency quantiles, slow
// threshold), plan/program/vet cache hit rates, and a Go runtime summary.
// Attach it to incident reports; two bundles diff cleanly. Hosts embedding
// the service add sections via Service.RegisterBundleSection (e.g. a model
// gateway's StateSnapshot), which land under "extra".
package service
