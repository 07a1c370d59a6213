package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	cases := []struct {
		line   string
		name   string
		ns     float64
		bytes  float64
		allocs float64
		ok     bool
	}{
		{"BenchmarkGraphPageRank-1   \t     1\t    163072 ns/op\t   57344 B/op\t       6 allocs/op", "BenchmarkGraphPageRank", 163072, 57344, 6, true},
		{"BenchmarkTable2 \t 1 \t 1234567890 ns/op", "BenchmarkTable2", 1234567890, math.NaN(), math.NaN(), true},
		{"BenchmarkSandboxGoldenQuery-8   	    1	    171629.5 ns/op", "BenchmarkSandboxGoldenQuery", 171629.5, math.NaN(), math.NaN(), true},
		// BENCH_6 to BENCH_10 carry a p99-ns custom metric; it is skipped.
		{"BenchmarkServiceQuery-2   \t     100\t    512345 ns/op\t     8.9e+04 p99-ns\t   20480 B/op\t      99 allocs/op", "BenchmarkServiceQuery", 512345, 20480, 99, true},
		{"ok  \trepro\t12.3s", "", 0, 0, 0, false},
		{"--- BENCH: BenchmarkFoo", "", 0, 0, 0, false},
	}
	sameOrNaN := func(a, b float64) bool {
		return a == b || (math.IsNaN(a) && math.IsNaN(b))
	}
	for _, c := range cases {
		name, m, ok := parseBenchOutput(c.line)
		if ok != c.ok || name != c.name {
			t.Errorf("parseBenchOutput(%q) = (%q, %v), want (%q, %v)", c.line, name, ok, c.name, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if m.ns != c.ns || !sameOrNaN(m.bytes, c.bytes) || !sameOrNaN(m.allocs, c.allocs) {
			t.Errorf("parseBenchOutput(%q) metrics = %+v, want ns=%v bytes=%v allocs=%v",
				c.line, m, c.ns, c.bytes, c.allocs)
		}
	}
}

func TestDiffFlagsRegressions(t *testing.T) {
	nan := math.NaN()
	oldM := map[string]measure{
		"BenchmarkTable2":             {ns: 1000, bytes: 100, allocs: 10},
		"BenchmarkTable4":             {ns: 1000, bytes: 100, allocs: 10},
		"BenchmarkGraphPageRank":      {ns: 200, bytes: nan, allocs: nan},
		"BenchmarkGraphClone":         {ns: 100, bytes: 50, allocs: 5},
		"BenchmarkSandboxGoldenQuery": {ns: 500, bytes: 500, allocs: 50},
		"BenchmarkUnwatched":          {ns: 10, bytes: 10, allocs: 1},
	}
	newM := map[string]measure{
		"BenchmarkTable2":             {ns: 1050, bytes: 101, allocs: 10}, // +5% ns: fine
		"BenchmarkTable4":             {ns: 900, bytes: 95, allocs: 20},   // allocs +100%: regression
		"BenchmarkGraphPageRank":      {ns: 260, bytes: nan, allocs: nan}, // +30% ns: regression
		"BenchmarkGraphClone":         {ns: 90, bytes: 40, allocs: 5},     // faster and leaner
		"BenchmarkSandboxGoldenQuery": {ns: 500, bytes: 500, allocs: 50},
		"BenchmarkUnwatched":          {ns: 1000, bytes: 10, allocs: 1}, // not watched: informational
		"BenchmarkFederatedJoin":      {ns: 42},                         // new watched entries are informational
	}
	watch := splitWatch(defaultWatch + ",FederatedJoin")
	report, regressed := diff(oldM, newM, watch, 0.10)
	if !regressed {
		t.Fatalf("expected regression:\n%s", report)
	}
	if !strings.Contains(report, "BenchmarkGraphPageRank") || !strings.Contains(report, "REGRESSION") {
		t.Errorf("report does not flag the PageRank ns regression:\n%s", report)
	}
	if !strings.Contains(report, "BenchmarkTable4") {
		t.Errorf("report does not show Table4:\n%s", report)
	}
	// Table4 got faster but doubled its allocations: still a regression.
	for _, line := range strings.Split(report, "\n") {
		if strings.Contains(line, "BenchmarkTable4") && !strings.Contains(line, "REGRESSION") {
			t.Errorf("alloc regression on Table4 not gated:\n%s", report)
		}
	}
	if !strings.Contains(report, "BenchmarkUnwatched") || !strings.Contains(report, "(info: not gated)") {
		t.Errorf("report does not show the unwatched regression as informational:\n%s", report)
	}
	if !strings.Contains(report, "new") {
		t.Errorf("report does not mark the new benchmark:\n%s", report)
	}
	// Within threshold on every watched benchmark -> clean diff.
	newM["BenchmarkGraphPageRank"] = measure{ns: 210, bytes: nan, allocs: nan}
	newM["BenchmarkTable4"] = measure{ns: 900, bytes: 95, allocs: 10}
	report, regressed = diff(oldM, newM, watch, 0.10)
	if regressed {
		t.Errorf("unexpected regression:\n%s", report)
	}
	if !strings.Contains(report, "no regressions") {
		t.Errorf("clean diff not reported:\n%s", report)
	}
}

func TestDiffFlagsZeroBaselineGrowth(t *testing.T) {
	oldM := map[string]measure{"BenchmarkNQLVM": {ns: 100, bytes: 0, allocs: 0}}
	newM := map[string]measure{"BenchmarkNQLVM": {ns: 100, bytes: 500, allocs: 20}}
	report, regressed := diff(oldM, newM, splitWatch(defaultWatch), 0.10)
	if !regressed {
		t.Fatalf("zero-baseline allocation growth not flagged:\n%s", report)
	}
	// Staying at zero is clean.
	newM["BenchmarkNQLVM"] = measure{ns: 100, bytes: 0, allocs: 0}
	report, regressed = diff(oldM, newM, splitWatch(defaultWatch), 0.10)
	if regressed {
		t.Fatalf("zero-to-zero flagged as regression:\n%s", report)
	}
}

func TestRecordKeepsPerMetricMin(t *testing.T) {
	out := map[string]measure{}
	record(out, "BenchmarkX", measure{ns: 200, bytes: 50, allocs: math.NaN()})
	record(out, "BenchmarkX", measure{ns: 150, bytes: 80, allocs: 7})
	record(out, "BenchmarkX", measure{ns: 180, bytes: math.NaN(), allocs: 9})
	got := out["BenchmarkX"]
	if got.ns != 150 || got.bytes != 50 || got.allocs != 7 {
		t.Fatalf("min-merge got %+v, want ns=150 bytes=50 allocs=7", got)
	}
}

func TestDefaultWatchCoversVMAndTable4(t *testing.T) {
	for _, want := range []string{"Table2", "Table4", "NQLVM", "SandboxGoldenQuery", "StreamSweep", "InstanceBind", "FederatedAnalytics", "FederatedPipeline", "FederatedSQLJoin", "DataframeRecords", "DataframeGroupBy", "NQLDictBuild", "SQLJoinWhere", "SQLScan", "SQLGroupBy", "StateEqual"} {
		if !strings.Contains(defaultWatch, want) {
			t.Errorf("defaultWatch %q is missing %s", defaultWatch, want)
		}
	}
}

func TestParseBenchFileAndDiscover(t *testing.T) {
	dir := t.TempDir()
	// Mirrors a real `go test -json -bench` stream: the name and the
	// measurements of BenchmarkTable2 arrive as separate output chunks,
	// while BenchmarkGraphClone arrives as one line.
	lines := `{"Action":"run","Package":"repro","Test":"BenchmarkGraphClone"}
{"Action":"output","Package":"repro","Output":"BenchmarkGraphClone-1   \t     1\t    851234 ns/op\t  12345 B/op\t      35 allocs/op\n"}
not json at all
{"Action":"output","Package":"repro","Output":"BenchmarkTable2\n"}
{"Action":"output","Package":"repro","Output":"BenchmarkTable2                \t"}
{"Action":"output","Package":"repro","Output":"       1\t9128170674 ns/op\t         0.7778 gpt4-malt-nx-acc\t2091770288 B/op\t20282733 allocs/op\n"}
{"Action":"output","Package":"repro","Output":"ok  \trepro\t1.0s\n"}
`
	p1 := filepath.Join(dir, "BENCH_1.json")
	if err := os.WriteFile(p1, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := parseBenchFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkGraphClone"].ns != 851234 || got["BenchmarkGraphClone"].allocs != 35 {
		t.Errorf("parsed GraphClone = %+v", got["BenchmarkGraphClone"])
	}
	if got["BenchmarkTable2"].ns != 9128170674 || got["BenchmarkTable2"].bytes != 2091770288 || got["BenchmarkTable2"].allocs != 20282733 {
		t.Errorf("parsed Table2 = %+v", got["BenchmarkTable2"])
	}
	p2 := filepath.Join(dir, "BENCH_2.json")
	if err := os.WriteFile(p2, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	older, newer, err := discover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if older != p1 || newer != p2 {
		t.Errorf("discover = (%s, %s), want (%s, %s)", older, newer, p1, p2)
	}
	if _, _, err := discover(t.TempDir()); err == nil {
		t.Error("discover on empty dir should fail")
	}
}
