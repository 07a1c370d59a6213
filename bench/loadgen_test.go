package bench

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A stall must show in the latency of the arrivals queued behind it: the
// open loop times each arrival from its due time, where timing from the
// send (as service.RunLoad does) reports them as fast.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stallAt, stall = 10, 50 * time.Millisecond
	var next atomic.Int64
	sendTime := make([]time.Duration, 100)
	res := openLoop(1, 1000, 100*time.Millisecond, &next, func(_ int, i int64) {
		start := time.Now()
		if i == stallAt {
			time.Sleep(stall)
		}
		sendTime[i] = time.Since(start)
	})
	if len(res.latency) != 100 {
		t.Fatalf("got %d arrivals, want 100", len(res.latency))
	}
	if got := res.latency[stallAt]; got < stall {
		t.Errorf("stalled arrival latency %v, want at least %v", got, stall)
	}
	// Arrival 11 was due 1ms after the stall began, so it waited ~49ms.
	if got := res.latency[stallAt+1]; got < 40*time.Millisecond {
		t.Errorf("arrival behind the stall has latency %v, want at least 40ms", got)
	}
	if got := sendTime[stallAt+1]; got > 10*time.Millisecond {
		t.Errorf("arrival behind the stall took %v from its send; the stall should not be in it", got)
	}
	if len(res.late) != 100 {
		t.Errorf("got %d lateness samples, want 100", len(res.late))
	}
}

func TestPercentileMatchesSortedFixtures(t *testing.T) {
	ds := func(xs ...int) []time.Duration {
		out := make([]time.Duration, len(xs))
		for i, x := range xs {
			out[i] = time.Duration(x)
		}
		return out
	}
	for _, tc := range []struct {
		samples []time.Duration
		p       float64
		want    time.Duration
	}{
		{ds(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 0.5, 5},
		{ds(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 0.9, 9},
		{ds(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 0.99, 10},
		{ds(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 1, 10},
		{ds(10, 3, 7, 1), 0.5, 3}, // sorted first: 1 3 7 10
		{ds(10, 3, 7, 1), 0.75, 7},
		{ds(42), 0.999, 42},
		{nil, 0.5, 0},
	} {
		if got := percentile(sortDurations(tc.samples), tc.p); got != tc.want {
			t.Errorf("percentile(%v, %g) = %d, want %d", tc.samples, tc.p, got, tc.want)
		}
	}
}

// p50_ms is the 10th percentile of the window medians: a spell that slows
// 17 of 20 windows tenfold leaves it at the other windows' median, one
// that slows 19 does not. The pooled tail shows every spell.
func TestLatencyMetricsSustainedMedian(t *testing.T) {
	for _, tc := range []struct {
		slowed        int
		p50, p90, p99 float64
	}{
		{0, 5, 9, 10},
		{17, 5, 90, 100},
		{19, 50, 90, 100},
	} {
		lat := make([]time.Duration, 20*latWindow+latWindow/2) // the short tail joins the last window
		for i := range lat {
			lat[i] = time.Duration(1+i%10) * time.Millisecond // every window holds 1..10 ms evenly
			if i < tc.slowed*latWindow {
				lat[i] *= 10
			}
		}
		m := map[string]float64{}
		latencyMetrics(m, lat)
		got := []float64{m["p50_ms"], m["client.p90_ms"], m["client.p99_ms"], m["client.n"]}
		want := []float64{tc.p50, tc.p90, tc.p99, float64(len(lat))}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%d slowed windows: p50, p90, p99, n = %v, want %v", tc.slowed, got, want)
				break
			}
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), the
// spread the benchmark's repeatability check is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
		{[]float64{0.9, 1.3, 1.1, 1.0, 1.2, 0.95, 1.05}, [3]float64{0.95, 1.05, 1.2}},
	} {
		q1, med, q3 := quartiles(tc.xs)
		got := [3]float64{q1, med, q3}
		for i := range got {
			if d := got[i] - tc.want[i]; d > 1e-12 || d < -1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}

func TestClosedLoopHoldsOneRequestPerClient(t *testing.T) {
	var inflight, peak, calls atomic.Int64
	var next atomic.Int64
	done, rates := closedLoop(3, 2*window+window/2, &next, func(int, int64) {
		n := inflight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(time.Millisecond)
		inflight.Add(-1)
		calls.Add(1)
	})
	if p := peak.Load(); p > 3 {
		t.Errorf("peak concurrency %d with 3 clients", p)
	}
	if done != calls.Load() || done != next.Load() {
		t.Errorf("closed loop reported %d, op ran %d times, %d indexes drawn", done, calls.Load(), next.Load())
	}
	// Two whole windows; three clients each finishing a call about every
	// millisecond (sleeps overshoot, so the rate only has a ceiling).
	if len(rates) != 2 {
		t.Fatalf("got %d window rates, want the 2 whole windows", len(rates))
	}
	for _, r := range rates {
		if r <= 0 || r > 3000 {
			t.Errorf("window rate %.0f/s, want (0, 3000]", r)
		}
	}
}

// The client may open at most C connections however many goroutines send.
func TestClientHonoursConnectionCap(t *testing.T) {
	const conns = 2
	var opened, inflight, peak atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(2 * time.Millisecond)
		inflight.Add(-1)
		w.Write([]byte(`{"result":"1"}`))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	client := &http.Client{Transport: newTransport(conns)}
	defer client.CloseIdleConnections()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				o, err := post(client, srv.URL, []byte(`{}`))
				if err != nil || o.Result != "1" {
					t.Errorf("post: %v %v", o, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := opened.Load(); n > conns {
		t.Errorf("client opened %d connections, cap is %d", n, conns)
	}
	if p := peak.Load(); p > conns {
		t.Errorf("%d requests in flight at once, cap is %d", p, conns)
	}
}

func TestDecodeOutcomeKeepsAnswerOrClass(t *testing.T) {
	ok, err := decodeOutcome(200, []byte(`{"result":"[1, 2]","stdout":"hi\n","backend":"sql","dataset":"d","duration_ms":3}`))
	if err != nil || ok != (outcome{Status: 200, Result: "[1, 2]", Stdout: "hi\n"}) {
		t.Errorf("success: %+v %v", ok, err)
	}
	bad, err := decodeOutcome(422, []byte(`{"error":"line 3: boom","class":"type"}`))
	if err != nil || bad != (outcome{Status: 422, Class: "type"}) {
		t.Errorf("failure: %+v %v", bad, err)
	}
	if _, err := decodeOutcome(200, []byte("<html>")); err == nil || !strings.Contains(err.Error(), "decode 200") {
		t.Errorf("non-JSON body: %v", err)
	}
}
