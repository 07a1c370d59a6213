package modelserve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/queries"
	"repro/internal/tokens"
	"repro/internal/traffic"
)

// testPrompt builds a real code prompt for one traffic query so the
// simulated models recognize it.
func testPrompt(t testing.TB, id string) string {
	t.Helper()
	q, ok := queries.ByID(id)
	if !ok {
		t.Fatalf("unknown query %s", id)
	}
	return prompt.BuildCodePrompt(traffic.Wrapper{}, prompt.BackendNetworkX, q.Text)
}

// echoProvider answers every request with a response derived from the
// request, records batch sizes, and never fails.
type echoProvider struct {
	mu      sync.Mutex
	batches []int
}

func (p *echoProvider) Name() string { return "echo" }

func (p *echoProvider) GenerateBatch(model string, reqs []llm.Request) ([]*llm.Response, []error) {
	p.mu.Lock()
	p.batches = append(p.batches, len(reqs))
	p.mu.Unlock()
	resps := make([]*llm.Response, len(reqs))
	for i, req := range reqs {
		resps[i] = &llm.Response{Text: fmt.Sprintf("%s|%s|%d", model, req.Prompt, req.Attempt)}
	}
	return resps, make([]error, len(reqs))
}

func newTestGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gw
}

func TestGatewayCoalescesWithoutCrossWiring(t *testing.T) {
	provider := &echoProvider{}
	gw := newTestGateway(t, Config{Provider: provider, BatchSize: 8, BatchWindow: 5 * time.Millisecond})
	const n = 64
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			req := llm.Request{Prompt: fmt.Sprintf("p%d", i), Attempt: i}
			resp, err := gw.Generate("m", req)
			if err != nil {
				errCh <- err
				return
			}
			if want := fmt.Sprintf("m|p%d|%d", i, i); resp.Text != want {
				errCh <- fmt.Errorf("request %d got response %q, want %q", i, resp.Text, want)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	stats := gw.Stats()
	if stats.Requests != n {
		t.Fatalf("stats.Requests = %d, want %d", stats.Requests, n)
	}
	if stats.ProviderCalls >= n {
		t.Fatalf("no coalescing: %d provider calls for %d requests", stats.ProviderCalls, n)
	}
	if stats.MaxBatch < 2 || stats.MaxBatch > 8 {
		t.Fatalf("max batch %d outside [2,8]", stats.MaxBatch)
	}
	for _, b := range provider.batches {
		if b > 8 {
			t.Fatalf("provider saw a batch of %d, cap is 8", b)
		}
	}
}

func TestGatewaySimMatchesDirectSim(t *testing.T) {
	gw := newTestGateway(t, Config{Provider: NewSimProvider(), BatchSize: 4, BatchWindow: time.Millisecond})
	prompts := []string{testPrompt(t, "ta-e1"), testPrompt(t, "ta-h6"), testPrompt(t, "ta-m3")}
	for _, model := range llm.ModelNames {
		direct, err := llm.NewSim(model)
		if err != nil {
			t.Fatal(err)
		}
		for attempt := 1; attempt <= 2; attempt++ {
			for _, p := range prompts {
				req := llm.Request{Prompt: p, Attempt: attempt}
				want, werr := direct.Generate(req)
				got, gerr := gw.Generate(model, req)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s attempt %d: error mismatch: direct %v, gateway %v", model, attempt, werr, gerr)
				}
				if werr == nil && *got != *want {
					t.Fatalf("%s attempt %d: response mismatch", model, attempt)
				}
			}
		}
	}
}

// TestGatewayRateLimiterWaits drives the request bucket with a fake clock:
// at 10 req/s with burst 2, the third immediate request must owe 100ms.
func TestGatewayRateLimiterWaits(t *testing.T) {
	now := time.Unix(0, 0)
	var slept atomic.Int64
	gw := newTestGateway(t, Config{Provider: &echoProvider{}, BatchSize: 1, BatchWindow: -1, RPS: 10, Burst: 2})
	gw.now = func() time.Time { return now }
	gw.sleep = func(d time.Duration) { slept.Add(int64(d)) }
	for i := 0; i < 4; i++ {
		if _, err := gw.Generate("m", llm.Request{Prompt: "p"}); err != nil {
			t.Fatal(err)
		}
	}
	stats := gw.Stats()
	if stats.RateWaits != 2 {
		t.Fatalf("RateWaits = %d, want 2 (burst 2 absorbs the first two)", stats.RateWaits)
	}
	// Debt-based bucket on a frozen clock: request 3 owes 100ms, request 4
	// owes 200ms.
	if want := int64(300 * time.Millisecond); slept.Load() != want {
		t.Fatalf("slept %v, want %v", time.Duration(slept.Load()), time.Duration(want))
	}
	if stats.RateWaited != time.Duration(slept.Load()) {
		t.Fatalf("RateWaited = %v, slept %v", stats.RateWaited, time.Duration(slept.Load()))
	}
}

// TestGatewayTokenBudget exercises the tokens/min bucket: one oversized
// prompt must overdraw the budget and record a wait.
func TestGatewayTokenBudget(t *testing.T) {
	now := time.Unix(0, 0)
	var slept atomic.Int64
	gw := newTestGateway(t, Config{Provider: &echoProvider{}, BatchSize: 1, BatchWindow: -1, TPM: 600})
	gw.now = func() time.Time { return now }
	gw.sleep = func(d time.Duration) { slept.Add(int64(d)) }
	// Budget is 10 tokens/sec with a burst of one batch's completion
	// reserve (512); two reserve-sized requests overdraw it.
	for i := 0; i < 2; i++ {
		if _, err := gw.Generate("m", llm.Request{Prompt: "hi"}); err != nil {
			t.Fatal(err)
		}
	}
	if stats := gw.Stats(); stats.RateWaits == 0 || slept.Load() == 0 {
		t.Fatalf("token budget never throttled: %+v, slept %v", stats, time.Duration(slept.Load()))
	}
}

func TestGatewayRetriesTransientFaults(t *testing.T) {
	chaos := &Chaos{Inner: &echoProvider{}, TransientFailures: 2}
	gw := newTestGateway(t, Config{Provider: chaos, BatchSize: 1, BatchWindow: -1,
		MaxRetries: 3, BackoffBase: time.Nanosecond, Seed: 1})
	resp, err := gw.Generate("m", llm.Request{Prompt: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text != "m|p|0" {
		t.Fatalf("unexpected response %q", resp.Text)
	}
	stats := gw.Stats()
	if stats.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", stats.Retries)
	}
	if stats.Failures != 0 {
		t.Fatalf("Failures = %d, want 0", stats.Failures)
	}
}

func TestGatewayRetryExhaustion(t *testing.T) {
	chaos := &Chaos{Inner: &echoProvider{}, TransientFailures: 10, TransientKind: KindRateLimited}
	gw := newTestGateway(t, Config{Provider: chaos, BatchSize: 1, BatchWindow: -1,
		MaxRetries: 2, BackoffBase: time.Nanosecond, Seed: 1})
	_, err := gw.Generate("m", llm.Request{Prompt: "p"})
	var pe *ProviderError
	if !errors.As(err, &pe) {
		t.Fatalf("want ProviderError, got %v", err)
	}
	if pe.Kind != KindRateLimited {
		t.Fatalf("Kind = %v, want %v", pe.Kind, KindRateLimited)
	}
	// 1 initial + 2 retries.
	if pe.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3", pe.Attempts)
	}
	stats := gw.Stats()
	if stats.Retries != 2 || stats.Failures != 1 {
		t.Fatalf("stats = %+v, want 2 retries / 1 failure", stats)
	}
}

// TestGatewayTerminalPassthrough: request-level faults that are not
// transient provider trouble (the sims' token-window overflow) surface
// unwrapped and unretried.
func TestGatewayTerminalPassthrough(t *testing.T) {
	gw := newTestGateway(t, Config{Provider: NewSimProvider(), BatchSize: 1, BatchWindow: -1, BackoffBase: time.Nanosecond})
	huge := make([]byte, 80_000)
	for i := range huge {
		huge[i] = 'a' + byte(i%26)
		if i%6 == 5 {
			huge[i] = ' '
		}
	}
	_, err := gw.Generate("gpt-4", llm.Request{Prompt: string(huge)})
	var tl *tokens.ErrTokenLimit
	if !errors.As(err, &tl) {
		t.Fatalf("want ErrTokenLimit passthrough, got %v", err)
	}
	if stats := gw.Stats(); stats.Retries != 0 {
		t.Fatalf("token-limit fault was retried %d times", stats.Retries)
	}
}

func TestGatewayBackoffGrowsAndJitters(t *testing.T) {
	gw := newTestGateway(t, Config{Provider: &echoProvider{}, BackoffBase: 10 * time.Millisecond,
		BackoffMax: 80 * time.Millisecond, Seed: 7})
	l := &lane{gw: gw, model: "m"}
	prev := time.Duration(0)
	for attempt := 1; attempt <= 5; attempt++ {
		d := l.backoff(attempt)
		base := gw.cfg.BackoffBase << (attempt - 1)
		if base > gw.cfg.BackoffMax {
			base = gw.cfg.BackoffMax
		}
		if d < base/2 || d > base {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, base/2, base)
		}
		if attempt <= 3 && d <= prev/2 {
			t.Fatalf("attempt %d: backoff %v did not grow from %v", attempt, d, prev)
		}
		prev = d
	}
}

func TestGatewayRequiresProvider(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a config without a provider")
	}
	if _, err := New(Config{Provider: &echoProvider{}, RPS: -1}); err == nil {
		t.Fatal("New accepted a negative rate limit")
	}
}

func TestChaosTerminalHook(t *testing.T) {
	boom := &ProviderError{Kind: KindBadRequest, Err: errors.New("boom")}
	chaos := &Chaos{Inner: &echoProvider{}, Terminal: func(model string, req llm.Request) error {
		if req.Prompt == "bad" {
			return boom
		}
		return nil
	}}
	gw := newTestGateway(t, Config{Provider: chaos, BatchSize: 1, BatchWindow: -1, BackoffBase: time.Nanosecond})
	if _, err := gw.Generate("m", llm.Request{Prompt: "ok"}); err != nil {
		t.Fatal(err)
	}
	_, err := gw.Generate("m", llm.Request{Prompt: "bad"})
	var pe *ProviderError
	if !errors.As(err, &pe) || pe.Kind != KindBadRequest {
		t.Fatalf("want terminal KindBadRequest, got %v", err)
	}
}

// TestGatewayStateSnapshot checks the diagnostic-bundle view: one entry per
// model lane, sorted by model name, with rate-bucket levels when limits are
// configured.
func TestGatewayStateSnapshot(t *testing.T) {
	gw := newTestGateway(t, Config{Provider: &echoProvider{}, BatchSize: 1, BatchWindow: -1, RPS: 100, TPM: 60000})
	for _, model := range []string{"zeta", "alpha"} {
		if _, err := gw.Generate(model, llm.Request{Prompt: "p"}); err != nil {
			t.Fatalf("Generate(%s): %v", model, err)
		}
	}
	st := gw.StateSnapshot()
	if st.Stats.Requests != 2 {
		t.Fatalf("snapshot stats requests = %d, want 2", st.Stats.Requests)
	}
	if len(st.Lanes) != 2 || st.Lanes[0].Model != "alpha" || st.Lanes[1].Model != "zeta" {
		t.Fatalf("lanes = %+v, want [alpha zeta] sorted", st.Lanes)
	}
	for _, l := range st.Lanes {
		if l.Queued != 0 {
			t.Fatalf("idle lane %s reports %d queued", l.Model, l.Queued)
		}
		if l.ReqBucket == nil || l.ReqBucket.Rate != 100 {
			t.Fatalf("lane %s request bucket = %+v, want rate 100", l.Model, l.ReqBucket)
		}
		if l.TokBucket == nil || l.TokBucket.Tokens >= l.TokBucket.Burst {
			t.Fatalf("lane %s token bucket undebited: %+v", l.Model, l.TokBucket)
		}
	}

	// An unlimited gateway omits the bucket views entirely.
	bare := newTestGateway(t, Config{Provider: &echoProvider{}, BatchSize: 1, BatchWindow: -1})
	if _, err := bare.Generate("m", llm.Request{Prompt: "p"}); err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if l := bare.StateSnapshot().Lanes[0]; l.ReqBucket != nil || l.TokBucket != nil {
		t.Fatalf("unlimited lane carries bucket state: %+v", l)
	}
}
