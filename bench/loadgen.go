package bench

import (
	"sync"
	"sync/atomic"
	"time"
)

// window is the width of the slices a closed loop's throughput is sampled
// in (a loop shorter than one window is one slice): a high percentile over
// many short slices shrugs off a burst of noise from a shared host that a
// whole-run mean would absorb.
const window = 250 * time.Millisecond

// closedLoop runs `clients` goroutines for d; each calls op with its client
// number and the next send index only after its previous call returned, so
// a slower system is offered less load. It returns the calls completed and
// the throughput of each whole window from the start: the window's
// completions over the time between its first and last, which unlike a bare
// count is not rounded to whole requests per window.
func closedLoop(clients int, d time.Duration, next *atomic.Int64, op func(client int, i int64)) (done int64, rates []float64) {
	type span struct {
		n           int64
		first, last time.Duration
	}
	wins := make([]span, max(1, int(d/window)))
	width := d / time.Duration(len(wins))
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op(c, next.Add(1)-1)
				at := time.Since(start)
				mu.Lock()
				done++
				if w := int(at / width); w < len(wins) {
					if wins[w].n == 0 {
						wins[w].first = at
					}
					wins[w].last = at
					wins[w].n++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for _, w := range wins {
		if w.n > 1 && w.last > w.first {
			rates = append(rates, float64(w.n-1)/(w.last-w.first).Seconds())
		}
	}
	return done, rates
}

// openResult is one open-loop phase: per-arrival latency measured from the
// arrival's due time (so time spent queued behind a stalled request counts)
// and how late the dispatcher handed each arrival over.
type openResult struct {
	latency []time.Duration
	late    []time.Duration
}

// openLoop offers arrivals on a fixed schedule of `rate` per second for d,
// whatever the completions do. One dispatcher paces the arrivals and
// `senders` goroutines take them in arrival order, so at most `senders`
// requests are in flight and the rest queue. Latency runs from each
// arrival's due time to op's return.
func openLoop(senders int, rate float64, d time.Duration, next *atomic.Int64, op func(sender int, i int64)) openResult {
	n := int(rate * d.Seconds())
	if n < 1 {
		n = 1
	}
	type arrival struct {
		slot int
		due  time.Time
	}
	res := openResult{latency: make([]time.Duration, n), late: make([]time.Duration, n)}
	// Sized to every arrival, so the dispatcher never blocks on slow
	// senders: the backlog queues here and its wait counts as latency.
	queue := make(chan arrival, n)
	var wg sync.WaitGroup
	wg.Add(senders)
	for s := 0; s < senders; s++ {
		go func(s int) {
			defer wg.Done()
			for a := range queue {
				op(s, next.Add(1)-1)
				res.latency[a.slot] = time.Since(a.due)
			}
		}(s)
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		sleepUntil(due)
		res.late[i] = time.Since(due)
		queue <- arrival{slot: i, due: due}
	}
	close(queue)
	wg.Wait()
	return res
}

// parallel calls fn(0..n-1) on at most `workers` goroutines and waits.
func parallel(workers, n int, fn func(k int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
				fn(k)
			}
		}()
	}
	wg.Wait()
}
