package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/federate"
	"repro/internal/nemoeval"
	"repro/internal/queries"
	"repro/internal/sandbox"
	"repro/internal/service"
)

// childEnv marks a process as an nqbench child; its spec arrives on stdin.
const childEnv = "NQBENCH_CHILD"

// childSpec is what a child reads on stdin: the orchestrator sends one to
// the measuring child, which sends one to each set-up child.
type childSpec struct {
	// Setup makes the child stand its workload up, serve First (service
	// workloads), print "ready" and exit; the measuring child that started
	// it times it.
	Setup    bool      `json:"setup,omitempty"`
	First    *request  `json:"first,omitempty"`
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Trace    bool      `json:"trace,omitempty"`
	Expected []outcome `json:"expected,omitempty"`
}

// childResult is what a measuring child prints on stdout.
type childResult struct {
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Mismatches []string           `json:"mismatches,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	Budget     []budgetRow        `json:"budget,omitempty"`
}

// Shares of a run's seconds each phase takes. The traced pass runs on top.
const (
	warmShare   = 0.10
	closedShare = 0.45
	openShare   = 0.45
	traceShare  = 0.50
)

// rounds is how many alternating closed- and open-loop segments a service
// run measures, so both loops see the same spells of a shared host's
// noise. Throughput comes from every window of every closed segment;
// latency pools the open-loop samples. eval-matrix splits its matrices into
// as many rounds. Set-up is timed before the first round and after each.
const rounds = 5

// share returns frac of the run's seconds.
func share(seconds, frac float64) time.Duration {
	return time.Duration(seconds * frac * float64(time.Second))
}

// runChild serves one child process: it reads the spec from stdin, runs
// it, and writes "ready" (setup) or the JSON result (measurement).
func runChild(stdin io.Reader, stdout, stderr io.Writer) error {
	var spec childSpec
	if err := json.NewDecoder(stdin).Decode(&spec); err != nil {
		return fmt.Errorf("nqbench child: read spec: %w", err)
	}
	if spec.Setup {
		return setUp(&spec, func() error {
			_, err := fmt.Fprintln(stdout, "ready")
			return err
		})
	}
	st := &setupTimer{spec: childSpec{Setup: true, Workload: spec.Workload, Seed: spec.Seed}, stderr: stderr}
	var res *childResult
	var err error
	if spec.Workload == EvalMatrix {
		res, err = measureMatrix(&spec, st)
	} else {
		res, err = measureMix(&spec, st)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// setupGroup is how many fresh children time set-up at each of a run's
// rounds + 1 sampling points; setup_s is the median of them all.
const setupGroup = 4

// setupTimer times set-up in fresh children at points spread over a run,
// between its measured phases. The host's speed swings by a third within
// seconds, so children timed back to back would all sample one spell.
type setupTimer struct {
	spec   childSpec
	stderr io.Writer
	times  []float64
	err    error
}

// sample times one group of set-ups; the first failure ends sampling.
func (s *setupTimer) sample() {
	for i := 0; i < setupGroup && s.err == nil; i++ {
		d, err := timeSetup(&s.spec, s.stderr)
		if err != nil {
			s.err = fmt.Errorf("setup: %w", err)
			return
		}
		s.times = append(s.times, d.Seconds())
	}
}

// setupLimit bounds a set-up child.
const setupLimit = time.Minute

// timeSetup times one fresh child from its start until it reports ready.
func timeSetup(spec *childSpec, stderr io.Writer) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), setupLimit)
	defer cancel()
	cmd, err := child(ctx, spec, stderr)
	if err != nil {
		return 0, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(start)
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("child reported %q (%v), not ready", line, rerr)
	}
	return d, nil
}

// record writes setup_s, or returns the failure that stopped sampling.
func (s *setupTimer) record(m map[string]float64) error {
	if s.err != nil {
		return s.err
	}
	_, m["setup_s"], _ = quartiles(s.times)
	return nil
}

// setUp brings the workload to the point where it can serve, then calls
// ready: for a service workload the dataset built and frozen, the service
// up and its first request served; for eval-matrix both applications'
// datasets built.
func setUp(spec *childSpec, ready func() error) error {
	if spec.Workload == EvalMatrix {
		nemoeval.DatasetFor(queries.AppTraffic)
		nemoeval.DatasetFor(queries.AppMALT)
		return ready()
	}
	m, ok := mixes[spec.Workload]
	if !ok || spec.First == nil {
		return fmt.Errorf("nqbench child: bad setup spec for %q", spec.Workload)
	}
	srv, err := startServer(m.dataset(spec.Seed), 1)
	if err != nil {
		return err
	}
	if _, err = post(srv.client, srv.url, body("tenant-0", *spec.First)); err == nil {
		err = ready()
	}
	if cerr := srv.close(); err == nil {
		err = cerr
	}
	return err
}

// counters are the cumulative runtime and cache counters that a closed
// loop's per-operation costs and hit rates come from.
type counters struct {
	allocBytes    uint64
	gcCPU, allCPU float64
	vetH, vetM    uint64
	progH, progM  uint64
	planH, planM  uint64
}

// readCounters samples the counters; svc is nil when no service runs.
func readCounters(svc *service.Service) counters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	c := counters{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), allCPU: s[2].Value.Float64()}
	if svc != nil {
		c.vetH, c.vetM, _ = svc.VetCacheStats()
	}
	c.progH, c.progM, _ = sandbox.CacheStats()
	c.planH, c.planM, _ = federate.DefaultCache.Stats()
	return c
}

// addSince adds what the counters did from a to b.
func (c *counters) addSince(a, b counters) {
	c.allocBytes += b.allocBytes - a.allocBytes
	c.gcCPU += b.gcCPU - a.gcCPU
	c.allCPU += b.allCPU - a.allCPU
	c.vetH += b.vetH - a.vetH
	c.vetM += b.vetM - a.vetM
	c.progH += b.progH - a.progH
	c.progM += b.progM - a.progM
	c.planH += b.planH - a.planH
	c.planM += b.planM - a.planM
}

// record writes the per-operation costs and hit rates of ops operations.
func (c *counters) record(m map[string]float64, ops int64) {
	m["runtime.alloc_kb_per_op"] = ratio(float64(c.allocBytes)/1024, float64(ops))
	m["runtime.gc_cpu_frac"] = ratio(c.gcCPU, c.allCPU)
	for _, h := range []struct {
		name         string
		hits, misses uint64
	}{
		{"service.vet_cache_hit_frac", c.vetH, c.vetM},
		{"sandbox.cache_hit_frac", c.progH, c.progM},
		{"federate.plan_cache_hit_frac", c.planH, c.planM},
	} {
		if h.hits+h.misses > 0 { // a cache the workload never consulted has no rate
			m[h.name] = float64(h.hits) / float64(h.hits+h.misses)
		}
	}
}

// heapMB returns the live heap in MB. Two collections empty sync.Pools,
// whose contents survive one.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// sustained is the throughput a workload sustains when the host lets it:
// the 90th percentile of its per-window rates. On a shared host, spells of
// contention lasting seconds only ever lower a window's rate, so the upper
// windows track the code, as a best-of-N time does; a 10% slower program
// lowers them by 10% all the same.
func sustained(rates []float64) float64 {
	sort.Float64s(rates)
	return percentile(rates, 0.90)
}

// latWindow is how many consecutive latency samples one window holds.
const latWindow = 100

// latencyMetrics records latency samples given in arrival order. p50_ms is
// the median latency sustained when the host lets it: the 10th percentile,
// over windows of consecutive samples, of each window's median. Spells of
// contention on a shared host only ever raise a window's median, as they
// only ever lower a closed-loop window's rate (see sustained). The tail is
// pooled over every sample and reported with the sample count.
func latencyMetrics(m map[string]float64, lat []time.Duration) {
	var medians []float64
	for start := 0; start < len(lat); {
		end := start + latWindow
		if end+latWindow > len(lat) {
			end = len(lat) // a short tail joins the last window
		}
		w := sortDurations(append([]time.Duration(nil), lat[start:end]...))
		medians = append(medians, ms(percentile(w, 0.50)))
		start = end
	}
	sort.Float64s(medians)
	m["p50_ms"] = percentile(medians, 0.10)
	sortDurations(lat)
	m["client.p90_ms"] = ms(percentile(lat, 0.90))
	m["client.p99_ms"] = ms(percentile(lat, 0.99))
	m["client.p999_ms"] = ms(percentile(lat, 0.999))
	m["client.n"] = float64(len(lat))
}

// measureMix measures one service workload: warmup, rounds of closed and
// open loop with set-up timed before and after each, then (traced runs)
// the traced pass.
func measureMix(spec *childSpec, st *setupTimer) (*childResult, error) {
	in, err := newInputs(spec.Workload, spec.Seed)
	if err != nil {
		return nil, err
	}
	if len(spec.Expected) != len(in.distinct) {
		return nil, fmt.Errorf("nqbench child: %d expected outcomes for %d requests", len(spec.Expected), len(in.distinct))
	}
	_, _, first := in.at(0)
	st.spec.First = &first
	st.sample()
	conns := runtime.NumCPU()
	srv, err := startServer(in.dataset, conns)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	checks := &checker{}
	snd := &sender{in: in, srv: srv, expected: spec.Expected, checks: checks}
	m := map[string]float64{}

	// Warmup: every distinct request once, so source-keyed caches hold all
	// that they can, then a closed loop.
	parallel(conns, len(in.distinct), snd.sendDistinct)
	closedLoop(conns, share(spec.Seconds, warmShare), &snd.next, snd.send)
	m["heap_mb"] = heapMB()

	var (
		rates      []float64
		lat, late  []time.Duration
		closed     counters
		closedDone int64
	)
	for r := 0; r < rounds; r++ {
		c0 := readCounters(srv.svc)
		done, windows := closedLoop(conns, share(spec.Seconds, closedShare/rounds), &snd.next, snd.send)
		closed.addSince(c0, readCounters(srv.svc))
		closedDone += done
		rates = append(rates, windows...)

		open := openLoop(conns, in.mix.rate, share(spec.Seconds, openShare/rounds), &snd.next, snd.send)
		lat = append(lat, open.latency...)
		late = append(late, open.late...)
		st.sample()
	}
	if err := st.record(m); err != nil {
		return nil, err
	}
	m["ops_per_s"] = sustained(rates)
	closed.record(m, closedDone)
	latencyMetrics(m, lat)
	m["loadgen.late_p99_ms"] = ms(percentile(sortDurations(late), 0.99))

	res := &childResult{Metrics: m}
	if spec.Trace {
		acc := traceMix(snd, share(spec.Seconds, traceShare))
		res.Budget = acc.metrics(m, true)
		if err := writeSpans(spanPath(spec.Workload), acc.spans); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed, res.Mismatches = checks.attempted.Load(), checks.failed.Load(), checks.samples
	return res, nil
}

// spanPath is where a traced run writes its spans, relative to the working
// directory.
func spanPath(workload string) string { return "out/trace-" + workload + ".jsonl" }

// traceMix runs the traced pass of a service workload: one client in a
// closed loop, so each layer's time is its own and not time spent waiting
// for another request's CPU. Every request runs three ways, each outcome
// checked: through the decomposed path (then once more, profiled), through
// Service.Do, and over HTTP. The three take turns going first, so cache
// and GC effects of going first or last fall on each alike.
func traceMix(snd *sender, d time.Duration) *layerAcc {
	p := newServicePath(snd.srv.build)
	// Warm the path's verdict cache as the warmup warmed the service's.
	for k := range snd.in.distinct {
		if req := snd.in.tagged(k, "warm"); req.Query != "" {
			p.vet(req)
		}
	}
	acc := newLayerAcc()
	epoch := time.Now()
	closedLoop(1, d, &snd.next, func(_ int, i int64) {
		tenant, k, req := snd.in.at(i)
		want := snd.expected[k]
		legs := []func(){
			func() {
				t := &reqTrace{epoch: epoch, req: i}
				got, prog, backend := p.run(t, acc, tenant, req)
				acc.add(t)
				if prog != nil {
					acc.prof.run(snd.srv.build(), backend, prog)
				}
				snd.checks.check(got, nil, want, func() string { return describe(i, req, " traced") })
			},
			func() {
				start := time.Now()
				resp, err := snd.srv.svc.Do(context.Background(), &service.Request{
					Tenant: tenant, Query: req.Query, QueryID: req.QueryID, Backend: req.Backend})
				acc.do += time.Since(start)
				snd.checks.check(doOutcome(resp, err), nil, want, func() string { return describe(i, req, " via Do") })
			},
			func() {
				start := time.Now()
				got, err := post(snd.srv.client, snd.srv.url, body(tenant, req))
				acc.http += time.Since(start)
				snd.checks.check(got, err, want, func() string { return describe(i, req, " over HTTP") })
			},
		}
		for j := range legs {
			legs[(int(i)+j)%len(legs)]()
		}
	})
	return acc
}

// measureMatrix measures eval-matrix: one warmup matrix, then rounds of
// matrices back to back for the rest of the run with set-up timed before
// and after each, then (traced runs) the traced pass.
func measureMatrix(spec *childSpec, st *setupTimer) (*childResult, error) {
	st.sample()
	workers := runtime.NumCPU()
	checks := &checker{}
	m := map[string]float64{}
	start := time.Now()
	table, recs, err := runMatrix(workers)
	if err != nil {
		return nil, err
	}
	checkMatrix(checks, table, recs)
	m["heap_mb"] = heapMB()

	// Each matrix's wall time is a latency sample and its trials per second
	// a throughput sample.
	var (
		lat            []time.Duration
		ops            []float64
		trials, passed int64
		closed         counters
	)
	for r := 0; r < rounds; r++ {
		c0 := readCounters(nil)
		end := start.Add(share(spec.Seconds, float64(r+1)/rounds))
		for len(lat) == 0 || time.Now().Before(end) {
			t0 := time.Now()
			table, recs, err := runMatrix(workers)
			if err != nil {
				return nil, err
			}
			d := time.Since(t0)
			lat = append(lat, d)
			ops = append(ops, float64(len(recs))/d.Seconds())
			trials += int64(len(recs))
			for _, rec := range recs {
				if rec.Pass {
					passed++
				}
			}
			checkMatrix(checks, table, recs)
		}
		closed.addSince(c0, readCounters(nil))
		st.sample()
	}
	if err := st.record(m); err != nil {
		return nil, err
	}
	closed.record(m, trials)
	m["ops_per_s"] = sustained(ops)
	m["nemoeval.pass_frac"] = ratio(float64(passed), float64(trials))
	latencyMetrics(m, lat)

	res := &childResult{Metrics: m}
	if spec.Trace {
		acc := traceMatrix(checks, share(spec.Seconds, traceShare))
		res.Budget = acc.metrics(m, false)
		if err := writeSpans(spanPath(spec.Workload), acc.spans); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed, res.Mismatches = checks.attempted.Load(), checks.failed.Load(), checks.samples
	return res, nil
}

// traceMatrix runs eval-matrix's traced pass: one worker replaying the
// matrix's trials through the decomposed evaluation path.
func traceMatrix(checks *checker, d time.Duration) *layerAcc {
	p := newMatrixPath()
	acc := newLayerAcc()
	epoch := time.Now()
	var next atomic.Int64
	closedLoop(1, d, &next, func(_ int, i int64) {
		p.run(&reqTrace{epoch: epoch, req: i}, acc, checks, i)
	})
	return acc
}
