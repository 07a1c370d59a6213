// Command nemoeval runs the NeMoEval benchmark and regenerates the paper's
// tables and figures.
//
// Usage:
//
//	nemoeval -table 2          # accuracy summary (Table 2)
//	nemoeval -table 3          # traffic-analysis breakdown (Table 3)
//	nemoeval -table 4          # MALT breakdown (Table 4)
//	nemoeval -table 5          # error taxonomy (Table 5)
//	nemoeval -table 6          # pass@k / self-debug case study (Table 6)
//	nemoeval -figure 4a        # cost CDF (Figure 4a)
//	nemoeval -figure 4b        # cost vs graph size (Figure 4b)
//	nemoeval -federated        # federated-vs-per-backend golden parity
//	nemoeval -all              # everything
//	nemoeval -all -log out.jsonl   # also dump evaluation records
//	nemoeval -table 2 -workers 4   # bound the evaluation worker pool
//	nemoeval -table 4 -cpuprofile cpu.out -memprofile mem.out
//	nemoeval -stream -shards 8     # streamed, sharded Figure-4-scale sweep
//	nemoeval -stream -stream-nodes 10000 -stream-edges 100000 -stream-seed 42
//	nemoeval -table 2 -provider sim                 # route the matrix through the gateway
//	nemoeval -all -provider sim -record run1/       # record every generation
//	nemoeval -all -provider replay -replay run1/    # replay it byte-identically
//	nemoeval -table 5 -provider http -http-base http://localhost:8000/v1 \
//	         -http-header "Authorization: Bearer $KEY" -rps 4 -tpm 90000 -retries 5
//
// The -stream sweep builds the configured graph as a seeded edge stream
// partitioned into -shards frozen per-shard masters, aggregates shards over
// the worker pool, and prints the merged degree/component/PageRank report —
// byte-identical for any -shards and -workers values.
//
// -provider selects the model-serving path (internal/modelserve): "sim"
// fronts the calibrated simulations with the batching/rate-limited
// gateway, "http" targets any OpenAI-compatible chat-completions endpoint,
// and "replay" serves a -record'ed run back with zero provider calls.
// Table and figure stdout is byte-identical across providers that answer
// identically (sim vs recorded-sim replay); the per-run gateway statistics
// go to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/modelserve"
	"repro/internal/nemoeval"
	"repro/internal/nql"
	"repro/internal/nql/analysis"
	"repro/internal/synthesis"
	"repro/internal/traffic"
)

func main() { os.Exit(run()) }

// headerFlags collects repeatable "-http-header 'Name: value'" flags.
type headerFlags map[string]string

func (h headerFlags) String() string { return fmt.Sprintf("%v", map[string]string(h)) }

func (h headerFlags) Set(s string) error {
	name, value, ok := strings.Cut(s, ":")
	if !ok || strings.TrimSpace(name) == "" {
		return fmt.Errorf("want \"Name: value\", got %q", s)
	}
	h[strings.TrimSpace(name)] = strings.TrimSpace(value)
	return nil
}

// run carries the whole command so deferred cleanups (profile writers, log
// files) execute before the process exits, unlike os.Exit in main.
func run() int {
	table := flag.String("table", "", "regenerate one table (2-6)")
	figure := flag.String("figure", "", "regenerate one figure (4a, 4b)")
	all := flag.Bool("all", false, "regenerate every table and figure")
	federated := flag.Bool("federated", false, "cross-check federated plans against per-backend goldens")
	workers := flag.Int("workers", 0, "evaluation worker pool size (0 = NumCPU, 1 = serial)")
	logPath := flag.String("log", "", "write evaluation records as JSON lines")
	vet := flag.Bool("vet", false, "after the run, print static-diagnostic counts for generated programs to stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	stream := flag.Bool("stream", false, "run the streamed, sharded dataset sweep instead of a table/figure")
	shards := flag.Int("shards", 1, "shard count for -stream (1 = unsharded)")
	streamNodes := flag.Int("stream-nodes", 10000, "node count for -stream")
	streamEdges := flag.Int("stream-edges", 100000, "edge count for -stream")
	streamSeed := flag.Int64("stream-seed", 42, "generator seed for -stream")
	provider := flag.String("provider", "", "model-serving provider: sim, http or replay (default: in-process sims, no gateway)")
	record := flag.String("record", "", "record provider responses into this directory (requires -provider sim or http)")
	replay := flag.String("replay", "", "replay cache directory for -provider replay")
	rps := flag.Float64("rps", 0, "gateway per-model requests/sec limit (0 = unlimited)")
	tpm := flag.Float64("tpm", 0, "gateway per-model tokens/min limit (0 = unlimited)")
	retries := flag.Int("retries", 3, "gateway retry budget for transient provider failures")
	batch := flag.Int("batch", 8, "gateway max coalesced batch size (1 disables batching)")
	httpBase := flag.String("http-base", "", "base URL for -provider http (OpenAI-compatible, e.g. http://host:8000/v1)")
	httpHeaders := headerFlags{}
	flag.Var(httpHeaders, "http-header", "extra header for -provider http as \"Name: value\" (repeatable)")
	flag.Parse()

	if !*all && *table == "" && *figure == "" && !*federated && !*stream {
		flag.Usage()
		return 2
	}

	// Validate flag combinations up front: a long evaluation run must not
	// discover a bad flag an hour in, and no combination may silently
	// degrade to a default the operator did not pick.
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "error: "+format+"\n", args...)
		return 2
	}
	if *table != "" {
		switch *table {
		case "2", "3", "4", "5", "6":
		default:
			return fail("unknown -table %q (want 2-6)", *table)
		}
	}
	if *figure != "" && *figure != "4a" && *figure != "4b" {
		return fail("unknown -figure %q (want 4a or 4b)", *figure)
	}
	if *workers < 0 {
		return fail("-workers must be >= 0, got %d", *workers)
	}
	if *stream {
		if *shards < 1 {
			return fail("-shards must be >= 1, got %d", *shards)
		}
		if *streamNodes < 2 {
			return fail("-stream-nodes must be >= 2, got %d", *streamNodes)
		}
		if *streamEdges < 0 {
			return fail("-stream-edges must be >= 0, got %d", *streamEdges)
		}
	} else if *shards != 1 {
		return fail("-shards only applies to -stream runs")
	}
	switch *provider {
	case "", "sim", "http", "replay":
	default:
		return fail("unknown -provider %q (want sim, http or replay)", *provider)
	}
	if *record != "" && *provider == "" {
		return fail("-record needs a provider to record from: add -provider sim or -provider http")
	}
	if *record != "" && *provider == "replay" {
		return fail("-record cannot wrap -provider replay (a replay run issues no new generations)")
	}
	if *provider == "replay" && *replay == "" {
		return fail("-provider replay needs -replay <dir> (a directory recorded with -record)")
	}
	if *replay != "" && *provider != "replay" {
		return fail("-replay requires -provider replay (use -record <dir> to capture a run)")
	}
	if *provider == "http" && *httpBase == "" {
		return fail("-provider http needs -http-base <url>")
	}
	if (*httpBase != "" || len(httpHeaders) > 0) && *provider != "http" {
		return fail("-http-base/-http-header require -provider http")
	}
	if *rps < 0 || *tpm < 0 {
		return fail("-rps and -tpm must be >= 0, got %g and %g", *rps, *tpm)
	}
	if *retries < 0 {
		return fail("-retries must be >= 0, got %d", *retries)
	}
	if *batch < 1 {
		return fail("-batch must be >= 1, got %d", *batch)
	}
	if *provider == "" {
		// Gateway knobs without a gateway must not silently do nothing;
		// flag.Visit distinguishes an explicit -retries 3 from its default.
		gatewayFlags := map[string]bool{"rps": true, "tpm": true, "retries": true, "batch": true, "http-header": true}
		var set []string
		flag.Visit(func(f *flag.Flag) {
			if gatewayFlags[f.Name] {
				set = append(set, "-"+f.Name)
			}
		})
		if len(set) > 0 {
			return fail("%s only apply to the serving gateway: add -provider sim, http or replay", strings.Join(set, "/"))
		}
	}

	// Profiling hooks so perf PRs can attach pprof evidence without
	// editing code: the CPU profile covers everything after this point;
	// the heap profile snapshots live allocations after a final GC.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		}()
	}

	runner := nemoeval.NewRunner()
	runner.Workers = *workers
	if *provider != "" {
		var p modelserve.Provider
		var err error
		switch *provider {
		case "sim":
			p = modelserve.NewSimProvider()
		case "http":
			p = &modelserve.HTTPProvider{BaseURL: *httpBase, Headers: httpHeaders}
		case "replay":
			p, err = modelserve.NewReplay(*replay)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		if *record != "" {
			if p, err = modelserve.NewRecorder(p, *record); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return 1
			}
		}
		maxRetries := *retries
		if maxRetries == 0 {
			maxRetries = -1 // Config's "disable retries" spelling
		}
		gw, err := modelserve.New(modelserve.Config{
			Provider: p, BatchSize: *batch, RPS: *rps, TPM: *tpm, MaxRetries: maxRetries,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		runner.Provider = gw
		// Stats go to stderr after everything else: stdout must stay
		// byte-identical across providers (the replay parity contract).
		defer func() {
			if report := runner.GatewayReport(); report != "" {
				fmt.Fprintln(os.Stderr, report)
			}
		}()
		// Table 6 and Figures 4a/4b are built on the oracle-driven
		// simulations (pass@k calibration sequences, strawman baselines);
		// they never consult the provider. Say so rather than let a
		// live-provider run silently mix in simulated artifacts.
		if *all || *table == "6" || *figure != "" {
			fmt.Fprintln(os.Stderr, "note: table 6 and figures 4a/4b always run on in-process simulations; -provider applies to tables 2-5")
		}
	}
	emit := func(s string, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Println(s)
	}

	if *stream {
		cfg := traffic.Config{Nodes: *streamNodes, Edges: *streamEdges, Seed: *streamSeed}
		fmt.Fprintf(os.Stderr, "stream sweep: %d nodes, %d edges, %d shard(s)\n", cfg.Nodes, cfg.Edges, *shards)
		emit(runner.StreamSweep(cfg, *shards))
	}

	want := func(id string) bool { return *all || *table == id || *figure == id }

	if want("2") {
		emit(runner.Table2())
	}
	if want("3") {
		emit(runner.Table3())
	}
	if want("4") {
		emit(runner.Table4())
	}
	if want("5") {
		emit(runner.Table5())
	}
	if want("6") {
		cs, err := synthesis.RunCaseStudy()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		fmt.Printf("Table 6: Improvement Cases with Bard on MALT (NetworkX)\n")
		fmt.Printf("%-16s %-16s %s\n", "Bard + Pass@1", "Bard + Pass@5", "Bard + Self-debug")
		fmt.Printf("%-16.2f %-16.2f %.2f\n\n", cs.Pass1, cs.Pass5, cs.SelfDebug)
	}
	if want("4a") {
		emit(nemoeval.Figure4a())
	}
	if want("4b") {
		emit(nemoeval.Figure4b())
	}
	// A parity violation must still exit non-zero, but only after the log
	// dump below — the records of the full run are too expensive to lose.
	var parityErr error
	if *federated || *all {
		report, err := runner.FederatedParityReport()
		fmt.Println(report)
		parityErr = err
	}

	if *logPath != "" {
		f, err := os.Create(*logPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		defer f.Close()
		if err := runner.Log.WriteJSONL(f); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %d records to %s (%s)\n", runner.Log.Len(), *logPath, runner.Log.Summary())
	}
	if *vet {
		fmt.Fprint(os.Stderr, vetReport(runner.Log.Records()))
	}
	if parityErr != nil {
		fmt.Fprintln(os.Stderr, "error:", parityErr)
		return 1
	}
	return 0
}

// vetReport aggregates the semantic analyzer's findings over every
// generated program the run evaluated, keyed by diagnostic code. It is a
// diagnostic lens on the LLM-generated corpus — strictly stderr, so table
// and figure stdout stays byte-identical with and without -vet.
func vetReport(records []*nemoeval.Record) string {
	programs := 0
	counts := map[string]int{}
	severity := map[string]string{}
	for _, r := range records {
		if r.Code == "" {
			continue
		}
		programs++
		prog, err := nql.Parse(r.Code)
		if err != nil {
			d := analysis.SyntaxDiagnostic(err)
			counts[d.Code]++
			severity[d.Code] = d.Severity.String()
			continue
		}
		for _, d := range analysis.Analyze(prog, analysis.Options{Globals: nemoeval.StaticGlobals(r.Backend)}) {
			counts[d.Code]++
			severity[d.Code] = d.Severity.String()
		}
	}
	codes := make([]string, 0, len(counts))
	for c := range counts {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	var sb strings.Builder
	fmt.Fprintf(&sb, "static analysis: %d generated programs vetted\n", programs)
	if len(codes) == 0 {
		sb.WriteString("  no diagnostics\n")
		return sb.String()
	}
	for _, c := range codes {
		fmt.Fprintf(&sb, "  %s (%s): %d\n", c, severity[c], counts[c])
	}
	return sb.String()
}
