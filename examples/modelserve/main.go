// Modelserve: a tour of the model-serving gateway (internal/modelserve)
// using the chaos provider — the simulate → record → replay pipeline under
// deliberately hostile serving conditions. The demo fronts the calibrated
// sims with a fault injector that fails every request once, routes a
// worker-pool burst through the batching, rate-limited gateway while
// recording every generation, then replays the recording byte-identically
// with zero provider calls (and shows that the replayed run no longer
// needs retries: faults were absorbed at record time).
//
//	go run ./examples/modelserve
package main

import (
	"fmt"
	"log"
	"os"
	"sync"

	"repro/internal/llm"
	"repro/internal/modelserve"
	"repro/internal/prompt"
	"repro/internal/queries"
	"repro/internal/traffic"
)

func main() {
	dir, err := os.MkdirTemp("", "modelserve-demo-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Prompts for a few real benchmark queries, as the evaluator builds
	// them.
	wrapper := traffic.Wrapper{}
	ids := []string{"ta-e1", "ta-e2", "ta-m1", "ta-h6"}
	var prompts []string
	for _, id := range ids {
		q, ok := queries.ByID(id)
		if !ok {
			log.Fatalf("unknown query %s", id)
		}
		prompts = append(prompts, prompt.BuildCodePrompt(wrapper, prompt.BackendNetworkX, q.Text))
	}

	// Phase 1: record through chaos. Every distinct request fails once
	// with a retryable fault before the sim answers, so the gateway's
	// retry loop has to absorb one transient failure per generation.
	chaos := &modelserve.Chaos{Inner: modelserve.NewSimProvider(), TransientFailures: 1}
	recorder, err := modelserve.NewRecorder(chaos, dir)
	if err != nil {
		log.Fatal(err)
	}
	recGW, err := modelserve.New(modelserve.Config{
		Provider:  recorder,
		BatchSize: 4,
		RPS:       200,
		Seed:      42,
	})
	if err != nil {
		log.Fatal(err)
	}
	recorded := burst(recGW, prompts)
	fmt.Println("recording run (chaos provider, 1 injected fault per request):")
	fmt.Printf("  %s\n", recGW.Stats())

	// Phase 2: replay. The cache answers everything; the chaos provider —
	// and the sims behind it — are never consulted.
	replay, err := modelserve.NewReplay(dir)
	if err != nil {
		log.Fatal(err)
	}
	repGW, err := modelserve.New(modelserve.Config{Provider: replay, BatchSize: 4})
	if err != nil {
		log.Fatal(err)
	}
	replayed := burst(repGW, prompts)
	fmt.Println("replay run (cache only):")
	fmt.Printf("  %s\n", repGW.Stats())

	for model, texts := range recorded {
		for i, text := range texts {
			if replayed[model][i] != text {
				log.Fatalf("replay diverged for %s request %d", model, i)
			}
		}
	}
	fmt.Printf("replay is byte-identical across %d models x %d prompts\n", len(recorded), len(prompts))

	// The generations are real NQL programs; show one.
	fmt.Printf("\ngpt-4 on %q:\n%s\n", ids[0], firstLines(recorded["gpt-4"][0], 3))
}

// burst fans every (model, prompt) pair over a goroutine per model —
// the shape of the evaluation worker pool — and collects response texts.
func burst(gw *modelserve.Gateway, prompts []string) map[string][]string {
	out := make(map[string][]string, len(llm.ModelNames))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, name := range llm.ModelNames {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			model := llm.NewProviderModel(gw, name)
			texts := make([]string, len(prompts))
			for i, p := range prompts {
				resp, err := model.Generate(llm.Request{Prompt: p, Attempt: 1})
				if err != nil {
					log.Fatalf("%s: %v", name, err)
				}
				texts[i] = resp.Text
			}
			mu.Lock()
			out[name] = texts
			mu.Unlock()
		}(name)
	}
	wg.Wait()
	return out
}

func firstLines(s string, n int) string {
	lines := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines++
			if lines == n {
				return s[:i] + "\n..."
			}
		}
	}
	return s
}
