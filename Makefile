# Build/verify/benchmark entry points. `make verify` is the tier-1 gate
# (build + vet + tests, the bench module's included); `make lint` adds the
# NQL registry vet (nqlvet over every golden program x backend) and
# staticcheck when installed; `make fuzz` runs the fuzz targets for a
# fixed time each;
# `make bench` records the benchmark suite as JSON so successive PRs can
# track the perf trajectory (BENCH_13.json is the next snapshot; bump
# BENCH_OUT after recording it); `make benchdiff` compares the two most
# recent snapshots and fails on >10% regressions of ns/op, B/op or
# allocs/op on the ROADMAP watchlist (Table2 / Table4 / Clone / PageRank /
# SandboxGoldenQuery / NQLVM / StreamSweep / GatewayThroughput /
# ServiceQuery / FederatedJoin / FederatedGoldenQuery / FederatedAnalytics /
# FederatedPipeline / FederatedSQLJoin / InstanceBind / DataframeRecords /
# DataframeGroupBy / NQLDictBuild / SQLJoinWhere / SQLScan / SQLGroupBy /
# StateEqual).

GO        ?= go
BENCH_OUT ?= BENCH_13.json

# One pinned staticcheck for local lint and CI: an unpinned @latest can
# start flagging new checks the day a release lands and break CI with no
# repo change. Bump deliberately, in a PR that also fixes what it flags.
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: verify test lint install-staticcheck race fuzz bench bench-quick benchdiff

# bench/ is its own module (replace repro => ../), so ./... never reaches
# it; it is vetted and tested here because it imports the root module's
# packages and must keep compiling against them.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...

test:
	$(GO) test ./...

# Static analysis beyond vet: gofmt (any file it would reformat fails the
# target), the NQL semantic analyzer over every golden
# program x backend in the query catalog (any error-severity finding fails
# the target), then staticcheck over the Go code. staticcheck is optional
# locally (the CI job installs the pinned version via install-staticcheck);
# the target degrades gracefully with a notice when absent.
lint:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt would reformat:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/nqlvet -registry
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipped (make install-staticcheck)"; \
	fi

install-staticcheck:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

# Race-exercise the concurrent evaluation pipeline and its substrates
# (includes concurrent lazy clones of frozen graph masters, the
# stream/shard sweep's parallel aggregation and PageRank,
# the model-serving gateway's batching/rate-limit/retry scheduler, and the
# netqueryd service's chaos suite — swap under load, client disconnects,
# backend stalls, tenant isolation, and the burn-rate alert full loop
# against the SLO engine in internal/obs/health), plus the SQL and
# dataframe substrates whose frozen tables every concurrent trial clones
# copy-on-write.
race:
	$(GO) test -race ./internal/nemoeval ./internal/graph ./internal/nql ./internal/nql/analysis ./internal/sandbox ./internal/nqlbind ./internal/traffic ./internal/modelserve ./internal/federate ./internal/limiter ./internal/service ./internal/obs ./internal/obs/health ./internal/sqldb ./internal/dataframe

# Coverage-guided fuzzing, 30 s per target: FuzzAnalyze (the NQL semantic
# analyzer never panics), FuzzRun (an NQL program fails only as a syntax,
# compile or categorized runtime error, never with a panic or an
# internal-class error), FuzzValueLaws (NQL's ==, dict keys and ordering
# agree, the order is antisymmetric and transitive, and sorted(), min(),
# max() and unique() follow it), FuzzKeyContract (scalar keys, Equal and
# Compare agree, Compare is a total order, and key encodings of different
# tuples differ), FuzzArith (scalar int64 + - * and Sum against math/big: exact
# when the result fits, the float64 of the operands when it does not) and
# FuzzFrameSeek (a federated frame scan that seeks its leading == or
# prefix predicate in a frozen frame's string index gives the same rows,
# order, error text and profile frames as the scan of an unfrozen copy).
# go test -fuzz takes one target per run. A failing input is written to the
# package's testdata/fuzz, where plain `go test` replays it from then on.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyze$$' -fuzztime 30s ./internal/nql/analysis
	$(GO) test -run '^$$' -fuzz '^FuzzRun$$' -fuzztime 30s ./internal/nql
	$(GO) test -run '^$$' -fuzz '^FuzzValueLaws$$' -fuzztime 30s ./internal/nql
	$(GO) test -run '^$$' -fuzz '^FuzzKeyContract$$' -fuzztime 30s ./internal/scalar
	$(GO) test -run '^$$' -fuzz '^FuzzArith$$' -fuzztime 30s ./internal/scalar
	$(GO) test -run '^$$' -fuzz '^FuzzFrameSeek$$' -fuzztime 30s ./internal/federate

# Record the benchmark suite as test2json records for tooling: the macro
# benchmarks (whole tables/figures/ablations) run one iteration, while the
# substrate micro-benchmarks run long enough for stable ns/op — at a single
# iteration they swing far beyond the 10% regression gate benchdiff applies.
# The micro pass records repeated runs per benchmark and benchdiff keeps the
# per-metric minimum, so transient co-tenant load on shared hardware cannot
# fake a regression (or mask one by inflating the baseline). Every gated
# benchmark short enough to repeat belongs in the micro pass for that
# reason (GatewayThroughput moved there after its 1x sample flapped);
# StreamSweep and the tables stay at 1x per record because one iteration
# already runs hundreds of milliseconds, but record repeatedly so the min
# discards noisy passes. Counts were raised (micro 5->9, macro 3->5) after
# a single-CPU host showed sustained multi-minute slow windows: the min
# must span at least one fast window of the box or back-to-back recordings
# of *identical* code diff at +10-20%.
bench:
	$(GO) test -run '^$$' -bench 'Table|Figure|Ablation|EndToEnd|StreamSweep' -benchmem -benchtime=1x -count=5 -json . | tee $(BENCH_OUT)
	$(GO) test -run '^$$' -bench 'Graph|Dataframe|SQL|NQL|Sandbox|Federated|Token|ObsOverhead|GatewayThroughput|InstanceBind|StateEqual' -benchmem -benchtime=0.5s -count=9 -json . | tee -a $(BENCH_OUT)
	$(GO) test -run '^$$' -bench 'ServiceQuery' -benchmem -benchtime=0.5s -count=5 -json ./internal/service | tee -a $(BENCH_OUT)

# Stable-ish numbers for the substrate micro-benchmarks only.
bench-quick:
	$(GO) test -run '^$$' -bench 'Graph|Sandbox|Token|NQL|Federated' -benchmem -benchtime=1s .

# Compare the two most recent BENCH_<n>.json snapshots; exits non-zero on a
# >10% regression of a watched benchmark. Caveat: BENCH_1.json predates the
# stable micro pass above — its micro numbers are single-iteration samples,
# so the 1->2 comparison is looser than every later stable-vs-stable one.
benchdiff:
	$(GO) run ./cmd/benchdiff
