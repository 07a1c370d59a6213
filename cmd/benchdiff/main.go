// Command benchdiff compares two `make bench` snapshots (BENCH_<n>.json,
// the test2json stream of one benchmark run) and flags regressions on the
// watched benchmarks, per the ROADMAP's perf-trajectory gate: >10% worse
// on any gated metric of Table2 / Table4 / GraphClone / GraphPageRank /
// SandboxGoldenQuery / NQLVM / StreamSweep / GatewayThroughput /
// ServiceQuery / FederatedJoin / FederatedSQLJoin / FederatedGoldenQuery
// fails the diff.
// Time (ns/op) and the allocation bill (B/op, allocs/op) are each gated at
// -threshold, taking the minimum across -count repeats (noise only
// inflates them). A PR that gets faster by allocating wildly more, or
// leaner by getting slower, still fails. Custom metrics a benchmark
// reports (older snapshots carry p99-ns) are ignored.
//
// Usage:
//
//	benchdiff [-old BENCH_1.json] [-new BENCH_2.json]
//	          [-threshold 0.10] [-watch Table2,GraphClone,...]
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
// when the run did not use -benchmem.
type measure struct {
	ns     float64
	bytes  float64
	allocs float64
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

// bytesLine and allocsLine extract the -benchmem metrics from a result
// line.
var (
	bytesLine  = regexp.MustCompile(`([0-9.]+) B/op`)
	allocsLine = regexp.MustCompile(`([0-9.]+) allocs/op`)
)

// defaultWatch is the ROADMAP's regression watchlist.
const defaultWatch = "Table2,Table4,GraphClone,GraphPageRank,SandboxGoldenQuery,NQLVM,StreamSweep,GatewayThroughput,ServiceQuery,ObsOverhead/disabled,FederatedJoin,FederatedGoldenQuery,FederatedAnalytics,FederatedPipeline,FederatedSQLJoin,InstanceBind,DataframeRecords,NQLDictBuild,SQLJoinWhere,SQLScan,SQLGroupBy,StateEqual"

func main() {
	oldPath := flag.String("old", "", "baseline BENCH_<n>.json (default: second-newest in .)")
	newPath := flag.String("new", "", "candidate BENCH_<n>.json (default: newest in .)")
	threshold := flag.Float64("threshold", 0.10, "relative ns/op, B/op or allocs/op increase that counts as a regression")
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
	report, regressed := diff(oldM, newM, splitWatch(*watch), *threshold)
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
					allocs: memMetric(allocsLine, line)})
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
		allocs: memMetric(allocsLine, line)}, true
}

// record merges one observation into the snapshot, keeping the
// per-metric minimum across -count repeats: noise only inflates these
// metrics, so the fastest observed run is the estimate least distorted by
// transient co-tenant load on shared hardware, and neither side of the
// diff can be faked (or masked) by a noisy window.
func record(out map[string]measure, name string, m measure) {
	prev, ok := out[name]
	if !ok {
		out[name] = m
		return
	}
	out[name] = measure{
		ns:     math.Min(prev.ns, m.ns),
		bytes:  minOrNaN(prev.bytes, m.bytes),
		allocs: minOrNaN(prev.allocs, m.allocs),
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
// B/op, allocs/op). Unwatched benchmarks are listed only when their ns/op
// regressed, as informational lines.
func diff(oldM, newM map[string]measure, watch []string, threshold float64) (string, bool) {
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
	sb.WriteString(fmt.Sprintf("%-34s %14s %14s %8s %8s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "ns", "B/op", "allocs"))
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
			sb.WriteString(fmt.Sprintf("%-34s %14s %14.0f %8s %8s %8s\n", name, "-", after.ns, "new", "", ""))
			continue
		}
		bDelta := metricDelta(before.bytes, after.bytes)
		aDelta := metricDelta(before.allocs, after.allocs)
		flag := ""
		exceeded := func(d float64) bool { return !math.IsNaN(d) && d > threshold }
		if exceeded(nsDelta) || exceeded(bDelta) || exceeded(aDelta) {
			if gate {
				flag = "  REGRESSION"
				regressed = true
			} else {
				flag = "  (info: not gated)"
			}
		}
		sb.WriteString(fmt.Sprintf("%-34s %14.0f %14.0f %8s %8s %8s%s\n",
			name, before.ns, after.ns, fmtDelta(nsDelta), fmtDelta(bDelta), fmtDelta(aDelta), flag))
	}
	if !regressed {
		sb.WriteString("no regressions on watched benchmarks\n")
	}
	return sb.String(), regressed
}
