// Command benchdiff compares two `make bench` snapshots (BENCH_<n>.json,
// the test2json stream of one benchmark run) and flags regressions on the
// watched benchmarks, per the ROADMAP's perf-trajectory gate: >10% worse
// on any gated metric of Table2 / Table4 / GraphClone / GraphPageRank /
// SandboxGoldenQuery / NQLVM / StreamSweep / GatewayThroughput /
// ServiceQuery / FederatedJoin / FederatedSQLJoin / FederatedGoldenQuery
// fails the diff.
// Time (ns/op) and the allocation bill (B/op, allocs/op) are gated at
// -threshold; tail latency (the p99-ns custom metric, when a benchmark
// reports one — an open-loop load benchmark pins ns/op to the arrival
// schedule, so its tail is the real signal) is gated at the wider
// -p99-threshold, because p99 is an order statistic rendered from
// log-bucketed histograms whose bucket step (~12% in the observed range)
// exceeds the base threshold: identical code wobbles one bucket run to
// run. Aggregation across -count repeats also differs per metric: ns/op,
// B/op and allocs/op take the minimum (noise only inflates them), while
// p99-ns takes the median — a lucky collision-free run deflates a tail
// quantile, so a min-of-N baseline is the luckiest tail ever observed and
// identical code then fails against it. A PR that gets faster by
// allocating wildly more, or leaner by getting slower, still fails.
//
// Usage:
//
//	benchdiff [-old BENCH_1.json] [-new BENCH_2.json]
//	          [-threshold 0.10] [-p99-threshold 0.25]
//	          [-watch Table2,GraphClone,...]
//
// Without -old/-new it auto-discovers the two highest-numbered
// BENCH_<n>.json files in the current directory and compares them. Exits 1
// when a watched benchmark regressed beyond the threshold.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// measure is one benchmark's recorded metrics. B/op and allocs/op are NaN
// when the run did not use -benchmem; p99 is NaN unless the benchmark
// reports a p99-ns custom metric.
type measure struct {
	ns     float64
	bytes  float64
	allocs float64
	p99    float64   // median across -count repeats, resolved by finalize
	p99s   []float64 // raw per-run p99-ns samples
}

// benchLine extracts a complete "BenchmarkName-P  N  1234 ns/op ..."
// result from one output line.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// nameLine matches the name chunk test2json emits when the testing package
// flushes the benchmark name before its result ("BenchmarkTable2  \t").
var nameLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?$`)

// resultLine matches the continuation chunk carrying the measurements
// ("       1\t9128170674 ns/op\t...").
var resultLine = regexp.MustCompile(`^\d+\s+([0-9.]+) ns/op`)

// memLine extracts the -benchmem metrics from a result line; p99Line the
// tail-latency custom metric (testing may render it in scientific
// notation).
var (
	bytesLine  = regexp.MustCompile(`([0-9.]+) B/op`)
	allocsLine = regexp.MustCompile(`([0-9.]+) allocs/op`)
	p99Line    = regexp.MustCompile(`([0-9.]+(?:[eE][+-]?[0-9]+)?) p99-ns`)
)

// defaultWatch is the ROADMAP's regression watchlist.
const defaultWatch = "Table2,Table4,GraphClone,GraphPageRank,SandboxGoldenQuery,NQLVM,StreamSweep,GatewayThroughput,ServiceQuery,ObsOverhead/disabled,FederatedJoin,FederatedGoldenQuery,FederatedAnalytics,FederatedPipeline,FederatedSQLJoin,InstanceBind,DataframeRecords,SQLJoinWhere,SQLScan,SQLGroupBy,StateEqual"

func main() {
	oldPath := flag.String("old", "", "baseline BENCH_<n>.json (default: second-newest in .)")
	newPath := flag.String("new", "", "candidate BENCH_<n>.json (default: newest in .)")
	threshold := flag.Float64("threshold", 0.10, "relative ns/op, B/op or allocs/op increase that counts as a regression")
	p99Threshold := flag.Float64("p99-threshold", 0.25, "relative p99-ns increase that counts as a regression; wider than -threshold because p99 is an order statistic read from log-bucketed histograms (~12% per bucket), so a one-bucket wobble on identical code already exceeds 10%")
	watch := flag.String("watch", defaultWatch, "comma-separated benchmark name substrings to gate on")
	flag.Parse()

	if *oldPath == "" || *newPath == "" {
		a, b, err := discover(".")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		if *oldPath == "" {
			*oldPath = a
		}
		if *newPath == "" {
			*newPath = b
		}
	}
	oldM, err := parseBenchFile(*oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newM, err := parseBenchFile(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	report, regressed := diff(oldM, newM, splitWatch(*watch), *threshold, *p99Threshold)
	fmt.Printf("benchdiff: %s -> %s (threshold %+.0f%%)\n", *oldPath, *newPath, *threshold*100)
	fmt.Print(report)
	if regressed {
		os.Exit(1)
	}
}

// discover returns the second-newest and newest BENCH_<n>.json by number.
func discover(dir string) (older, newer string, err error) {
	matches, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	type numbered struct {
		n    int
		path string
	}
	var files []numbered
	for _, m := range matches {
		base := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), "BENCH_"), ".json")
		if n, err := strconv.Atoi(base); err == nil {
			files = append(files, numbered{n, m})
		}
	}
	if len(files) < 2 {
		return "", "", fmt.Errorf("need two BENCH_<n>.json files in %s, found %d (run `make bench` per PR)", dir, len(files))
	}
	sort.Slice(files, func(i, j int) bool { return files[i].n < files[j].n })
	return files[len(files)-2].path, files[len(files)-1].path, nil
}

// parseBenchFile reads a test2json stream and returns benchmark -> metrics.
func parseBenchFile(path string) (map[string]measure, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]measure{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	// test2json usually splits a benchmark result into a name chunk and a
	// measurement chunk; pending carries the name across that split.
	pending := ""
	for sc.Scan() {
		var ev struct {
			Action string
			Output string
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate non-JSON noise (tee'd warnings)
		}
		if ev.Action != "output" {
			continue
		}
		line := strings.TrimSpace(ev.Output)
		if name, m, ok := parseBenchOutput(line); ok {
			record(out, name, m)
			pending = ""
			continue
		}
		if m := nameLine.FindStringSubmatch(line); m != nil {
			pending = m[1]
			continue
		}
		if m := resultLine.FindStringSubmatch(line); m != nil && pending != "" {
			if ns, err := strconv.ParseFloat(m[1], 64); err == nil {
				record(out, pending, measure{ns: ns, bytes: memMetric(bytesLine, line),
					allocs: memMetric(allocsLine, line), p99: memMetric(p99Line, line)})
			}
			pending = ""
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", path)
	}
	finalize(out)
	return out, nil
}

// parseBenchOutput extracts one benchmark result from a test output line.
func parseBenchOutput(line string) (name string, m measure, ok bool) {
	line = strings.TrimSpace(line)
	match := benchLine.FindStringSubmatch(line)
	if match == nil {
		return "", measure{}, false
	}
	ns, err := strconv.ParseFloat(match[2], 64)
	if err != nil {
		return "", measure{}, false
	}
	return match[1], measure{ns: ns, bytes: memMetric(bytesLine, line),
		allocs: memMetric(allocsLine, line), p99: memMetric(p99Line, line)}, true
}

// record merges one observation into the snapshot. ns/op, B/op and
// allocs/op keep the per-metric minimum across -count repeats: for those,
// noise only inflates, so the fastest observed run is the estimate least
// distorted by transient co-tenant load on shared hardware, and neither
// side of the diff can be faked (or masked) by a noisy window. p99-ns is
// different — it is an order statistic of an open-loop load run, and a
// lucky run (no scheduling collisions) *deflates* it, so min-of-N
// enshrines the single luckiest tail as the baseline and identical code
// then "regresses" against it. p99 samples are therefore accumulated here
// and resolved to their median by finalize.
func record(out map[string]measure, name string, m measure) {
	prev, ok := out[name]
	if !ok {
		if !math.IsNaN(m.p99) {
			m.p99s = []float64{m.p99}
		}
		out[name] = m
		return
	}
	next := measure{
		ns:     math.Min(prev.ns, m.ns),
		bytes:  minOrNaN(prev.bytes, m.bytes),
		allocs: minOrNaN(prev.allocs, m.allocs),
		p99s:   prev.p99s,
	}
	if !math.IsNaN(m.p99) {
		next.p99s = append(next.p99s, m.p99)
	}
	out[name] = next
}

// finalize resolves each benchmark's accumulated p99 samples to their
// median (lower middle for even counts — a real sample, not an invented
// midpoint). NaN when the benchmark reported no p99-ns metric.
func finalize(out map[string]measure) {
	for name, m := range out {
		if len(m.p99s) == 0 {
			m.p99 = math.NaN()
		} else {
			s := append([]float64(nil), m.p99s...)
			sort.Float64s(s)
			m.p99 = s[(len(s)-1)/2]
		}
		out[name] = m
	}
}

func minOrNaN(a, b float64) float64 {
	if math.IsNaN(a) {
		return b
	}
	if math.IsNaN(b) {
		return a
	}
	return math.Min(a, b)
}

// memMetric pulls one -benchmem figure out of a result line; NaN if absent.
func memMetric(re *regexp.Regexp, line string) float64 {
	m := re.FindStringSubmatch(line)
	if m == nil {
		return math.NaN()
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

func splitWatch(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// metricDelta returns the relative change, or NaN when either side is
// missing (pre-benchmem baselines). A zero baseline that grows is +Inf —
// a zero-alloc benchmark starting to allocate is the regression the gate
// exists for, not a gap in the data.
func metricDelta(before, after float64) float64 {
	if math.IsNaN(before) || math.IsNaN(after) {
		return math.NaN()
	}
	if before == 0 {
		if after == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (after - before) / before
}

func fmtDelta(d float64) string {
	switch {
	case math.IsNaN(d):
		return "-"
	case math.IsInf(d, 1):
		return "+inf"
	}
	return fmt.Sprintf("%+.1f%%", d*100)
}

// diff renders the comparison of every watched benchmark and reports
// whether any regressed beyond the threshold on any gated metric (ns/op,
// B/op, allocs/op at threshold; p99-ns at the wider p99Threshold).
// Unwatched benchmarks are listed only when their ns/op regressed, as
// informational lines.
func diff(oldM, newM map[string]measure, watch []string, threshold, p99Threshold float64) (string, bool) {
	names := make([]string, 0, len(newM))
	for name := range newM {
		names = append(names, name)
	}
	sort.Strings(names)
	watched := func(name string) bool {
		for _, w := range watch {
			if strings.Contains(name, w) {
				return true
			}
		}
		return false
	}
	var sb strings.Builder
	regressed := false
	sb.WriteString(fmt.Sprintf("%-34s %14s %14s %8s %8s %8s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "ns", "B/op", "allocs", "p99"))
	for _, name := range names {
		after := newM[name]
		before, inOld := oldM[name]
		gate := watched(name)
		nsDelta := metricDelta(before.ns, after.ns)
		if !gate {
			// Unwatched benchmarks appear only when their time regressed,
			// as informational lines that never fail the diff.
			if !inOld || math.IsNaN(nsDelta) || nsDelta <= threshold {
				continue
			}
		}
		if !inOld {
			sb.WriteString(fmt.Sprintf("%-34s %14s %14.0f %8s %8s %8s %8s\n", name, "-", after.ns, "new", "", "", ""))
			continue
		}
		bDelta := metricDelta(before.bytes, after.bytes)
		aDelta := metricDelta(before.allocs, after.allocs)
		pDelta := metricDelta(before.p99, after.p99)
		flag := ""
		exceeded := func(d, limit float64) bool { return !math.IsNaN(d) && d > limit }
		if exceeded(nsDelta, threshold) || exceeded(bDelta, threshold) ||
			exceeded(aDelta, threshold) || exceeded(pDelta, p99Threshold) {
			if gate {
				flag = "  REGRESSION"
				regressed = true
			} else {
				flag = "  (info: not gated)"
			}
		}
		sb.WriteString(fmt.Sprintf("%-34s %14.0f %14.0f %8s %8s %8s %8s%s\n",
			name, before.ns, after.ns, fmtDelta(nsDelta), fmtDelta(bDelta), fmtDelta(aDelta), fmtDelta(pDelta), flag))
	}
	if !regressed {
		sb.WriteString("no regressions on watched benchmarks\n")
	}
	return sb.String(), regressed
}
