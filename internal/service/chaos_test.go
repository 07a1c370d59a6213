package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/health"
)

func isShed(err error) bool {
	var shed *ShedError
	return errors.As(err, &shed)
}

// TestChaosSwapUnderLoad drives sustained concurrent load (Zipf-skewed
// across tenants) while the dataset is swapped back and forth underneath
// it. Every response must be dropped-free and consistent: the node count a
// query reports must match the epoch the service says it ran against —
// never a torn mix of old and new state.
func TestChaosSwapUnderLoad(t *testing.T) {
	s := newTestService(t, nil) // 30-node initial epoch
	builder50, name50 := TrafficBuilder(50, 50, 7)
	builder30, name30 := TrafficBuilder(30, 30, 42)

	const (
		workers    = 8
		perWorker  = 40
		swapRounds = 4
	)
	type outcome struct {
		result  string
		dataset string
		err     error
	}
	outcomes := make(chan outcome, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Zipf-ish tenant skew: low-numbered workers share the hub
			// tenant, the rest are singletons.
			tenant := fmt.Sprintf("tenant-%02d", w/3)
			for i := 0; i < perWorker; i++ {
				resp, err := s.Do(context.Background(), &Request{Tenant: tenant, QueryID: "ta-e2"})
				o := outcome{err: err}
				if resp != nil {
					o.result = resp.Result
					o.dataset = resp.Dataset
				}
				outcomes <- o
			}
		}(w)
	}
	swapErr := make(chan error, 1)
	go func() {
		for r := 0; r < swapRounds; r++ {
			time.Sleep(10 * time.Millisecond)
			var err error
			if r%2 == 0 {
				err = s.Swap(name50, builder50)
			} else {
				err = s.Swap(name30, builder30)
			}
			if err != nil {
				swapErr <- err
				return
			}
		}
		swapErr <- nil
	}()
	wg.Wait()
	close(outcomes)
	if err := <-swapErr; err != nil {
		t.Fatalf("swap under load: %v", err)
	}

	for o := range outcomes {
		if o.err != nil {
			t.Fatalf("query dropped during swap: %v", o.err)
		}
		want := "30"
		if strings.Contains(o.dataset, "n50") {
			want = "50"
		}
		if o.result != want {
			t.Fatalf("torn answer: epoch %q returned %q, want %q", o.dataset, o.result, want)
		}
	}
	if got := s.Stats().Swaps; got != swapRounds {
		t.Fatalf("stats.Swaps = %d, want %d", got, swapRounds)
	}
}

// TestChaosClientDisconnects cancels in-flight queries mid-run: every one
// must return promptly with the cancel class, no goroutines may leak, and
// client cancellations must not trip any substrate breaker.
func TestChaosClientDisconnects(t *testing.T) {
	s := newTestService(t, nil)
	before := runtime.NumGoroutine()

	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(time.Duration(1+i) * 5 * time.Millisecond)
				cancel() // the client hangs up
			}()
			_, errs[i] = s.Do(ctx, &Request{Tenant: "flaky", Query: spinQuery, Timeout: 10 * time.Second})
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		var qe *QueryError
		if !errors.As(err, &qe) || qe.Class != "cancelled" {
			t.Fatalf("client %d: error = %v, want cancelled QueryError", i, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("client %d: error does not wrap context.Canceled: %v", i, err)
		}
	}
	st := s.Stats()
	for b, state := range st.Breakers {
		if state != BreakerClosed {
			t.Fatalf("breaker %q = %q after client disconnects, want closed (disconnects are not substrate timeouts)", b, state)
		}
	}
	// Disconnects must land in their own counter, never conflated with
	// server-side deadline expiry or generic failures.
	if st.Disconnects != clients {
		t.Fatalf("Disconnects = %d, want %d", st.Disconnects, clients)
	}
	if st.Timeouts != 0 || st.Failures != 0 {
		t.Fatalf("client hangups miscounted: Timeouts=%d Failures=%d, want 0/0", st.Timeouts, st.Failures)
	}
	// Hand-rolled leak check: all request goroutines are synchronous, so
	// the count must return to baseline (with retries for runtime noise).
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosBackendStallCancelled models a stalled backend: a query looping
// over SQL statements against the database substrate. The request deadline
// must cut it off at a cooperative checkpoint, not wait for the loop.
func TestChaosBackendStallCancelled(t *testing.T) {
	s := newTestService(t, nil)
	stall := `let n = 0
while true { n = n + db.query("SELECT COUNT(*) AS n FROM edges").cell(0, "n") }
return n`
	start := time.Now()
	_, err := s.Do(context.Background(), &Request{
		Tenant: "stall", Query: stall, Backend: "sql", Timeout: 50 * time.Millisecond,
	})
	elapsed := time.Since(start)
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Class != "cancelled" {
		t.Fatalf("stalled query error = %v, want cancelled QueryError", err)
	}
	if elapsed > time.Second {
		t.Fatalf("stalled query took %v to cancel", elapsed)
	}
}

// chaosClock is a settable clock for driving SLO windows without waiting
// out real minutes; execution deadlines still run on the real clock.
type chaosClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *chaosClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *chaosClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestChaosBurnRateAlertFullLoop walks the whole observability chain the
// runbook promises: inject substrate faults, watch the availability burn
// rate page on /sloz, find the offenders (with plan fingerprints and trace
// IDs) on /flightz, resolve a /metricsz exemplar in /tracez, capture
// everything in /debugz/bundle, then recover and watch the alert clear.
func TestChaosBurnRateAlertFullLoop(t *testing.T) {
	clk := &chaosClock{t: time.Unix(1_700_000_000, 0)}
	s := newTestService(t, func(c *Config) {
		c.now = clk.Now
		c.TraceSample = 1
		c.FlightSampleEvery = 1   // record every ok request (fake clock: latency reads 0)
		c.BreakerThreshold = 1000 // keep the faulty substrate executing
	})
	h := NewHandler(s)

	availState := func(labels string) *health.State {
		for _, st := range s.Health().Evaluate() {
			if st.Objective.Name == "availability" && st.Labels == labels {
				cp := st
				return &cp
			}
		}
		t.Fatalf("no availability state with labels %s", labels)
		return nil
	}

	// Healthy federated traffic first: its flight records carry plan
	// fingerprints and trace IDs.
	for i := 0; i < 3; i++ {
		if _, err := s.Do(context.Background(), &Request{Tenant: "chaos", Query: fedQuery}); err != nil {
			t.Fatalf("healthy query %d: %v", i, err)
		}
	}
	// Injected fault: programs that blow their (real-clock) deadline on the
	// federated substrate. Every one burns availability error budget.
	for i := 0; i < 20; i++ {
		_, err := s.Do(context.Background(), &Request{Tenant: "chaos", Query: spinQuery, Timeout: 5 * time.Millisecond})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("fault %d: err = %v, want deadline exceeded", i, err)
		}
	}

	clk.Advance(time.Minute)
	s.HealthTick()

	// 1. The burn-rate page alert fires, per tenant and per backend.
	if st := availState(`{tenant="chaos"}`); !st.PageFiring {
		t.Fatalf("tenant availability page alert did not fire: %+v", st.Windows)
	}
	if st := availState(`{backend="federated"}`); !st.PageFiring {
		t.Fatalf("backend availability page alert did not fire: %+v", st.Windows)
	}
	sloz := get(t, h, "/sloz").Body.String()
	if !strings.Contains(sloz, `netqueryd_slo_alert{slo="availability",tenant="chaos",severity="page"} 1`) {
		t.Fatalf("/sloz does not show the firing page alert:\n%s", sloz)
	}

	// 2. /flightz names the offenders, with provenance.
	var timeouts []obs.FlightRecord
	if err := json.Unmarshal(get(t, h, "/flightz?tenant=chaos&class=timeout&format=json").Body.Bytes(), &timeouts); err != nil {
		t.Fatalf("decode /flightz: %v", err)
	}
	if len(timeouts) != 20 {
		t.Fatalf("flight recorder holds %d timeout offenders, want 20", len(timeouts))
	}
	for _, rec := range timeouts {
		if rec.TraceID == "" || rec.ProgramHash == "" || rec.Result != "timeout" {
			t.Fatalf("offender lacks provenance: %+v", rec)
		}
	}
	var sampled []obs.FlightRecord
	if err := json.Unmarshal(get(t, h, "/flightz?tenant=chaos&class=sampled&format=json").Body.Bytes(), &sampled); err != nil {
		t.Fatalf("decode /flightz: %v", err)
	}
	if len(sampled) == 0 || sampled[0].PlanFP == "" {
		t.Fatalf("healthy federated records lack plan fingerprints: %+v", sampled)
	}

	// 3. A /metricsz exemplar resolves to a retained trace.
	metrics := get(t, h, "/metricsz").Body.String()
	m := regexp.MustCompile(`# \{trace_id="(chaos-\d+)"\}`).FindStringSubmatch(metrics)
	if m == nil {
		t.Fatalf("no trace-ID exemplar on /metricsz")
	}
	if !strings.Contains(get(t, h, "/tracez").Body.String(), `"id":"`+m[1]+`"`) {
		t.Fatalf("exemplar trace %q not in /tracez", m[1])
	}

	// 4. The diagnostic bundle captures the incident.
	b := s.DebugBundle()
	var bundledFiring bool
	for _, st := range b.SLO {
		if st.Objective.Name == "availability" && st.Labels == `{tenant="chaos"}` && st.PageFiring {
			bundledFiring = true
		}
	}
	if !bundledFiring {
		t.Fatalf("bundle does not capture the firing alert")
	}
	if len(b.Flight) == 0 || len(b.Traces) == 0 {
		t.Fatalf("bundle missing evidence: %d flight records, %d traces", len(b.Flight), len(b.Traces))
	}

	// 5. Recovery: healthy traffic resumes, the windows roll past the bad
	// era, and the alert clears (the hysteresis band releases at burn 0).
	for i := 0; i < 5; i++ {
		if _, err := s.Do(context.Background(), &Request{Tenant: "chaos", Query: fedQuery}); err != nil {
			t.Fatalf("recovery query %d: %v", i, err)
		}
	}
	for m := 0; m < 7; m++ {
		clk.Advance(time.Minute)
		s.HealthTick()
	}
	// Seven clean minutes roll the 5m page window past the bad era; the
	// ticket pair's 30m short window rightly holds its alert longer.
	if st := availState(`{tenant="chaos"}`); st.PageFiring || !st.TicketFiring {
		t.Fatalf("after 7 clean minutes want page clear + ticket firing, got page=%v ticket=%v: %+v",
			st.PageFiring, st.TicketFiring, st.Windows)
	}
	for m := 0; m < 31; m++ {
		clk.Advance(time.Minute)
		s.HealthTick()
	}
	if st := availState(`{tenant="chaos"}`); st.PageFiring || st.TicketFiring {
		t.Fatalf("availability alert failed to clear after recovery: %+v", st.Windows)
	}
	if out := get(t, h, "/sloz").Body.String(); !strings.Contains(out, `netqueryd_slo_alert{slo="availability",tenant="chaos",severity="page"} 0`) {
		t.Fatalf("/sloz still shows the page alert firing after recovery:\n%s", out)
	}
}

// histP99 computes a p99 over raw samples through the shared obs
// histogram, the same estimator the service and load generator report.
func histP99(lats []time.Duration) time.Duration {
	h := obs.NewHistogram()
	for _, d := range lats {
		h.ObserveDuration(d)
	}
	return time.Duration(h.Snapshot().Quantile(0.99))
}

// TestChaosOverBudgetTenantIsolation floods one tenant far past its
// admitted rate while a well-behaved tenant keeps issuing queries: the
// flooding tenant is shed with Retry-After, and the victim's p99 stays
// within 2x of its unloaded p99 (with an absolute floor absorbing
// scheduler noise on microsecond baselines).
func TestChaosOverBudgetTenantIsolation(t *testing.T) {
	s := newTestService(t, func(c *Config) {
		c.TenantRPS = 20
		c.TenantBurst = 5
	})
	const probes = 40
	victim := func() []time.Duration {
		lat := make([]time.Duration, 0, probes)
		for i := 0; i < probes; i++ {
			t0 := time.Now()
			if _, err := s.Do(context.Background(), &Request{Tenant: "victim", QueryID: "ta-e2"}); err == nil {
				lat = append(lat, time.Since(t0))
			}
			time.Sleep(55 * time.Millisecond) // ~18 rps, inside budget
		}
		return lat
	}

	unloaded := victim()
	if len(unloaded) < probes/2 {
		t.Fatalf("unloaded victim only completed %d/%d probes", len(unloaded), probes)
	}
	unloadedP99 := histP99(unloaded)

	// Flood: a tenant offering far more than its budget.
	stop := make(chan struct{})
	var floodSheds atomic.Int64
	var fwg sync.WaitGroup
	for w := 0; w < 4; w++ {
		fwg.Add(1)
		go func() {
			defer fwg.Done()
			// Open-loop flood: ~2000 offered req/s across the workers,
			// 100x the tenant's 20 rps budget.
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				_, err := s.Do(context.Background(), &Request{Tenant: "flood", QueryID: "ta-e2"})
				if isShed(err) {
					floodSheds.Add(1)
				}
			}
		}()
	}
	loaded := victim()
	close(stop)
	fwg.Wait()

	if floodSheds.Load() == 0 {
		t.Fatal("over-budget tenant was never shed")
	}
	if len(loaded) < probes/2 {
		t.Fatalf("loaded victim only completed %d/%d probes (flood starved admission)", len(loaded), probes)
	}
	loadedP99 := histP99(loaded)
	bound := 2 * unloadedP99
	if floor := 20 * time.Millisecond; bound < floor {
		bound = floor
	}
	if loadedP99 > bound {
		t.Fatalf("victim p99 under flood = %v, want <= %v (unloaded p99 %v)", loadedP99, bound, unloadedP99)
	}
}
