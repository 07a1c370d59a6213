package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// DefaultSeconds is a run's measured seconds unless -seconds says
// otherwise; run_seconds in BENCHMARK.json matches it.
const DefaultSeconds = 25

// Main runs nqbench with args and returns the exit code: 0 when every
// output was correct, 1 when one was not, 2 when a run could not finish.
// A process started with NQBENCH_CHILD set is a child: it reads its spec
// from stdin instead.
func Main(args []string, stdout, stderr io.Writer) int {
	if os.Getenv(childEnv) != "" {
		if err := runChild(os.Stdin, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		return 0
	}
	fs := flag.NewFlagSet("nqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(Workloads, ", ")+", or all")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", DefaultSeconds, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	runs := fs.Int("runs", 1, "fresh runs per workload; above 1 prints each metric's median and quartiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := Workloads
	if *workload != "all" {
		names = []string{*workload}
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "nqbench: unexpected arguments %q\n", fs.Args())
		return 2
	case !knownWorkload(*workload):
		fmt.Fprintf(stderr, "nqbench: unknown workload %q (have %s, all)\n", *workload, strings.Join(Workloads, ", "))
		return 2
	case !(*seconds > 0) || math.IsInf(*seconds, 0):
		fmt.Fprintf(stderr, "nqbench: -seconds must be positive, got %g\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "nqbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	case *runs < 1:
		fmt.Fprintf(stderr, "nqbench: -runs must be at least 1, got %d\n", *runs)
		return 2
	}
	correct := true
	for _, name := range names {
		var reps []*report
		for r := 0; r < *runs; r++ {
			rep, err := runWorkload(name, *seed, *seconds, *trace == 1, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "nqbench: %s: %v\n", name, err)
				return 2
			}
			correct = correct && rep.correct()
			reps = append(reps, rep)
		}
		if *runs == 1 {
			if err := reps[0].print(stdout); err != nil {
				fmt.Fprintf(stderr, "nqbench: %s: %v\n", name, err)
				return 2
			}
		} else {
			printSpread(stdout, reps)
		}
	}
	if !correct {
		return 1
	}
	return 0
}

func knownWorkload(name string) bool {
	if name == "all" {
		return true
	}
	for _, w := range Workloads {
		if w == name {
			return true
		}
	}
	return false
}

// report is one workload run.
type report struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	res      *childResult
}

func (r *report) correct() bool { return r.res.Attempted > 0 && r.res.Failed == 0 }

// runWorkload runs one workload: expected outcomes computed here, then the
// measured child, which also times set-up in fresh children of its own.
func runWorkload(name string, seed int64, seconds float64, trace bool, stderr io.Writer) (*report, error) {
	spec := childSpec{Workload: name, Seed: seed, Seconds: seconds, Trace: trace}
	if name != EvalMatrix {
		in, err := newInputs(name, seed)
		if err != nil {
			return nil, err
		}
		if spec.Expected, err = expectedOutcomes(in, runtime.NumCPU()); err != nil {
			return nil, fmt.Errorf("expected outcomes: %w", err)
		}
	}
	res, err := measure(&spec, stderr)
	if err != nil {
		return nil, err
	}
	return &report{workload: name, seed: seed, seconds: seconds, trace: trace, res: res}, nil
}

// child returns the command for one child process with spec on its stdin,
// killed when ctx is done.
func child(ctx context.Context, spec *childSpec, stderr io.Writer) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdin = bytes.NewReader(data)
	cmd.Stderr = stderr
	return cmd, nil
}

// measure runs the measuring child and decodes its result.
func measure(spec *childSpec, stderr io.Writer) (*childResult, error) {
	limit := time.Duration(spec.Seconds*(1+traceShare)*float64(time.Second)) + 2*time.Minute
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd, err := child(ctx, spec, stderr)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("measuring child: %w", err)
	}
	var res childResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("measuring child output: %w", err)
	}
	return &res, nil
}

// reported returns the metrics a run reports: the per-layer ones when
// traced, the end-to-end ones otherwise.
func (r *report) reported() []Metric {
	var out []Metric
	for _, m := range Metrics {
		if m.Layer == r.trace {
			out = append(out, m)
		}
	}
	return out
}

// print writes a run's metrics by name with their units (every metric when
// traced, 0 where the layer is not on the workload's path; untraced, the
// end-to-end ones and the per-layer ones the untraced phases measure), its
// correctness, its latency budget when traced, and, last, the one-line
// JSON result with the metrics reported.
func (r *report) print(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.res.Attempted, r.res.Failed, map[string]value{}}
	for _, m := range r.reported() {
		line.Metrics[m.Name] = value{r.res.Metrics[m.Name], m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}

	mode := "untraced"
	if r.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %gs  %s\n", r.workload, r.seed, r.seconds, mode)
	for _, m := range Metrics {
		_, measured := r.res.Metrics[m.Name]
		if m.Layer && !r.trace && !measured {
			continue
		}
		note := ""
		if !measured {
			note = "  (not on this workload's path)"
		}
		if strings.HasPrefix(m.Name, "client.p9") {
			note = fmt.Sprintf("  (n=%g)", r.res.Metrics["client.n"])
		}
		fmt.Fprintf(w, "%-30s %14.6g %s%s\n", m.Name, r.res.Metrics[m.Name], m.Unit, note)
	}
	fmt.Fprintf(w, "%-30s %14.6g %s  (%d of %d outputs wrong)\n", "error_rate",
		ratio(float64(r.res.Failed), float64(r.res.Attempted)), "fraction", r.res.Failed, r.res.Attempted)
	if late, p50 := r.res.Metrics["loadgen.late_p99_ms"], r.res.Metrics["p50_ms"]; r.trace && late > p50/10 {
		fmt.Fprintf(w, "note: load generator p99 lateness %.3g ms exceeds p50/10 = %.3g ms\n", late, p50/10)
	}
	for _, mm := range r.res.Mismatches {
		fmt.Fprintf(w, "mismatch: %s\n", mm)
	}
	if len(r.res.Budget) > 0 {
		fmt.Fprintf(w, "latency budget (mean us per request, traced):\n")
		for _, b := range r.res.Budget {
			fmt.Fprintf(w, "  %-20s %10.2f\n", b.Layer, b.US)
		}
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// printSpread writes, for each metric, its median and quartiles over
// fresh runs and the quartile spread as a share of the median.
func printSpread(w io.Writer, reps []*report) {
	r0 := reps[0]
	fmt.Fprintf(w, "== %s  seed %d  %gs  %d runs\n", r0.workload, r0.seed, r0.seconds, len(reps))
	fmt.Fprintf(w, "%-30s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "spread")
	for _, m := range r0.reported() {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, r.res.Metrics[m.Name])
		}
		q1, med, q3 := quartiles(xs)
		fmt.Fprintf(w, "%-30s %12.6g %12.6g %12.6g %7.1f%%  %s\n", m.Name, med, q1, q3, 100*ratio(q3-q1, med), m.Unit)
	}
	var attempted, failed int64
	for _, r := range reps {
		attempted += r.res.Attempted
		failed += r.res.Failed
	}
	fmt.Fprintf(w, "%-30s %d of %d outputs wrong\n", "error_rate", failed, attempted)
}
