// Package bench is nqbench, the repository benchmark: netqueryd serving
// three traffic mixes over loopback HTTP, and the NeMoEval matrix that
// regenerates Table 2. Every workload runs in a fresh child process, every
// output is checked against expected answers, and every metric is printed
// by name with its unit. See README.md for the workloads and the metrics.
package bench

import (
	"math"
	"sort"
	"time"
)

// Metric is one reported number. End-to-end metrics come from the
// untraced run; per-layer metrics are printed by a traced run (-trace 1).
type Metric struct {
	Name  string
	Unit  string
	Layer bool
}

// Metrics lists every metric nqbench reports, in print order. BENCHMARK.json
// at the repository root declares the same names and units (the smoke test
// holds them together).
var Metrics = []Metric{
	{"setup_s", "s", false},
	{"ops_per_s", "ops/s", false},
	{"p50_ms", "ms", false},
	{"heap_mb", "MB", false},

	{"client.p90_ms", "ms", true},
	{"client.p99_ms", "ms", true},
	{"client.p999_ms", "ms", true},
	{"client.n", "count", true},
	{"loadgen.late_p99_ms", "ms", true},
	{"http.self_us", "us", true},
	{"service.self_us", "us", true},
	{"limiter.admit_us", "us", true},
	{"analysis.vet_us", "us", true},
	{"analysis.reject_frac", "fraction", true},
	{"service.vet_cache_hit_frac", "fraction", true},
	{"sandbox.compile_us", "us", true},
	{"sandbox.cache_hit_frac", "fraction", true},
	{"nemoeval.clone_us", "us", true},
	{"dataframe.build_us", "us", true},
	{"sqldb.build_us", "us", true},
	{"nqlbind.bind_us", "us", true},
	{"nql.exec_us", "us", true},
	{"nql.vm_self_us", "us", true},
	{"graph.host_us", "us", true},
	{"federate.host_us", "us", true},
	{"sqldb.host_us", "us", true},
	{"federate.plan_cache_hit_frac", "fraction", true},
	{"federate.rows_per_result", "ratio", true},
	{"encode.us", "us", true},
	{"prompt.build_us", "us", true},
	{"llm.generate_us", "us", true},
	{"nemoeval.golden_us", "us", true},
	{"nemoeval.compare_us", "us", true},
	{"nemoeval.pass_frac", "fraction", true},
	{"runtime.alloc_kb_per_op", "KB/op", true},
	{"runtime.gc_cpu_frac", "fraction", true},
	{"trace.overhead_frac", "fraction", true},
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted
// samples: the smallest sample with at least p of the samples at or below
// it. It returns 0 for no samples.
func percentile[T time.Duration | float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortDurations sorts d in place and returns it.
func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// default), so that spreads printed by -runs match the usual tooling. One
// sample yields itself three times.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := len(d) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
