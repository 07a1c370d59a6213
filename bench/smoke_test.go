package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/eval-matrix.golden from a fresh matrix run")

// TestMain lets the test binary serve as nqbench's child process, which is
// how the smoke test runs workloads end to end.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(Main(nil, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestEvalMatrixGolden(t *testing.T) {
	table, recs, err := runMatrix(runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	got := renderMatrix(table, recs)
	if *update {
		if err := os.WriteFile("testdata/eval-matrix.golden", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got != evalGolden {
		t.Errorf("Table 2 matrix differs from testdata/eval-matrix.golden (rerun with -update if the change is intended)")
	}
	if len(goldenVerdicts()) != len(matrixTrials()) {
		t.Errorf("golden has %d records, the matrix %d trials", len(goldenVerdicts()), len(matrixTrials()))
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
	RunSeconds int `json:"run_seconds"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return &bf
}

// BENCHMARK.json and the metric table must declare the same workloads,
// metrics and units.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(Workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, nqbench runs %v", names, Workloads)
	}
	if bf.RunSeconds != DefaultSeconds {
		t.Errorf("run_seconds %d, nqbench default %d", bf.RunSeconds, DefaultSeconds)
	}
	declared := map[string]string{}
	for _, m := range bf.EndToEnd {
		declared[m.Name] = "e2e " + m.Unit
	}
	for _, m := range bf.PerLayer {
		declared[m.Name] = "layer " + m.Unit
	}
	for _, m := range Metrics {
		kind := "e2e "
		if m.Layer {
			kind = "layer "
		}
		if declared[m.Name] != kind+m.Unit {
			t.Errorf("metric %s: BENCHMARK.json declares %q, nqbench reports %q", m.Name, declared[m.Name], kind+m.Unit)
		}
		delete(declared, m.Name)
	}
	for name := range declared {
		t.Errorf("BENCHMARK.json declares %s, which nqbench does not report", name)
	}
}

// resultLine is the last line nqbench prints for a workload.
type resultLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// The smoke test runs every workload end to end for about a second, traced,
// through child processes as nqbench does, and checks the report.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	bf := readBenchmarkFile(t)
	for _, w := range Workloads {
		for _, trace := range []string{"0", "1"} {
			if trace == "0" && w != CatalogSmall {
				continue // one untraced run covers the end-to-end JSON shape
			}
			var out, errb bytes.Buffer
			code := Main([]string{"-workload", w, "-seed", "3", "-seconds", "1", "-trace", trace}, &out, &errb)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\nstdout:\n%s\nstderr:\n%s", w, trace, code, out.String(), errb.String())
			}
			text := out.String()
			want := bf.PerLayer
			if trace == "1" {
				for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
					if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + `\b`).MatchString(text) {
						t.Errorf("%s: metric %s with unit %s not printed:\n%s", w, m.Name, m.Unit, text)
					}
				}
			} else {
				want = bf.EndToEnd
			}
			if !regexp.MustCompile(`(?m)^error_rate +0 fraction`).MatchString(text) {
				t.Errorf("%s: error_rate is not 0:\n%s", w, text)
			}
			lines := strings.Split(strings.TrimSpace(text), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the JSON result: %v\n%s", w, err, text)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s: result %+v", w, res)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: JSON carries %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s: JSON metric %s = %+v, want unit %s", w, m.Name, got, m.Unit)
				}
				if trace == "0" && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}
