package llm

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/malt"
	"repro/internal/prompt"
	"repro/internal/queries"
	"repro/internal/sandbox"
	"repro/internal/tokens"
	"repro/internal/traffic"
)

func trafficWrapper() prompt.AppWrapper {
	return traffic.Wrapper{}
}

func maltWrapper() prompt.AppWrapper {
	return malt.Wrapper{}
}

func TestNewSimRejectsUnknown(t *testing.T) {
	if _, err := NewSim("gpt-7"); err == nil {
		t.Fatal("expected error for unknown model")
	}
	for _, name := range ModelNames {
		if _, err := NewSim(name); err != nil {
			t.Errorf("NewSim(%s): %v", name, err)
		}
	}
}

func TestPassCellEmitsGolden(t *testing.T) {
	m, _ := NewSim("gpt-4")
	q, _ := queries.ByID("ta-e2")
	p := prompt.BuildCodePrompt(trafficWrapper(), "networkx", q.Text)
	resp, err := m.Generate(Request{Prompt: p})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text != q.Golden["networkx"] {
		t.Fatalf("pass cell should emit golden, got:\n%s", resp.Text)
	}
	if resp.PromptTokens <= 0 || resp.CompletionTokens <= 0 {
		t.Fatalf("token accounting: %+v", resp)
	}
}

func TestFailCellEmitsFaultyCode(t *testing.T) {
	m, _ := NewSim("gpt-4")
	q, _ := queries.ByID("ta-h6") // calibrated syntax failure for gpt-4
	p := prompt.BuildCodePrompt(trafficWrapper(), "networkx", q.Text)
	resp, err := m.Generate(Request{Prompt: p})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text == q.Golden["networkx"] {
		t.Fatal("fail cell emitted golden")
	}
	if sandbox.CheckSyntax(resp.Text) == nil {
		t.Fatal("syntax-fault generation unexpectedly parses")
	}
}

func TestDeterministicAtTemperatureZero(t *testing.T) {
	m, _ := NewSim("bard")
	q, _ := queries.ByID("malt-m2")
	p := prompt.BuildCodePrompt(maltWrapper(), "networkx", q.Text)
	r1, err1 := m.Generate(Request{Prompt: p})
	r2, err2 := m.Generate(Request{Prompt: p, Attempt: 3})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Text != r2.Text {
		t.Fatal("temperature 0 must be attempt-independent")
	}
}

func TestAttemptSequenceAtTemperature(t *testing.T) {
	m, _ := NewSim("bard")
	q, _ := queries.ByID("malt-m2")
	p := prompt.BuildCodePrompt(maltWrapper(), "networkx", q.Text)
	// Calibrated: fail, fail, pass.
	var texts []string
	for attempt := 1; attempt <= 3; attempt++ {
		r, err := m.Generate(Request{Prompt: p, Temperature: 0.7, Attempt: attempt})
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, r.Text)
	}
	if texts[2] != q.Golden["networkx"] {
		t.Fatal("attempt 3 should pass")
	}
	if texts[0] == q.Golden["networkx"] {
		t.Fatal("attempt 1 should fail")
	}
}

func TestSelfDebugRepair(t *testing.T) {
	m, _ := NewSim("bard")
	q, _ := queries.ByID("malt-m2") // self-debug fixes this cell
	orig := prompt.BuildCodePrompt(maltWrapper(), "networkx", q.Text)
	repair := prompt.BuildRepairPrompt(orig, "bad", "some error")
	r, err := m.Generate(Request{Prompt: repair})
	if err != nil {
		t.Fatal(err)
	}
	if r.Text != q.Golden["networkx"] {
		t.Fatal("repair should emit golden for fixable cell")
	}
	// h2 is calibrated unfixable.
	q2, _ := queries.ByID("malt-h2")
	orig2 := prompt.BuildCodePrompt(maltWrapper(), "networkx", q2.Text)
	repair2 := prompt.BuildRepairPrompt(orig2, "bad", "some error")
	r2, err := m.Generate(Request{Prompt: repair2})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Text == q2.Golden["networkx"] {
		t.Fatal("unfixable cell repaired")
	}
}

func TestTokenLimitOnHugePrompt(t *testing.T) {
	m, _ := NewSim("gpt-4")
	huge := strings.Repeat("network data blob ", 3000)
	_, err := m.Generate(Request{Prompt: huge})
	var lim *tokens.ErrTokenLimit
	if !errors.As(err, &lim) {
		t.Fatalf("err = %v, want token limit", err)
	}
}

func TestStrawmanOracle(t *testing.T) {
	m, _ := NewSim("gpt-4")
	q, _ := queries.ByID("ta-e2") // strawman pass cell for gpt-4 (easy pos 1 < 4)
	m.SetOracle(q.Text, "80")
	w := trafficWrapper()
	p := prompt.BuildStrawmanPrompt(w, `{"nodes":[]}`, q.Text)
	r, err := m.Generate(Request{Prompt: p})
	if err != nil {
		t.Fatal(err)
	}
	if r.Text != "80" {
		t.Fatalf("strawman pass = %q", r.Text)
	}
	// ta-e7 is position 6 (>=4) → strawman fail for gpt-4.
	q2, _ := queries.ByID("ta-e7")
	m.SetOracle(q2.Text, "answer 123")
	p2 := prompt.BuildStrawmanPrompt(w, `{"nodes":[]}`, q2.Text)
	r2, err := m.Generate(Request{Prompt: p2})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Text == "answer 123" {
		t.Fatal("strawman fail cell returned the oracle answer")
	}
}

func TestCorruptAnswerAlwaysDiffers(t *testing.T) {
	for _, ans := range []string{"42", "h003", "no numbers here", ""} {
		if got := corruptAnswer(ans, "seed"); got == ans {
			t.Errorf("corruptAnswer(%q) returned the original", ans)
		}
	}
}

func TestMutatorClasses(t *testing.T) {
	q, _ := queries.ByID("ta-e2")
	golden := q.Golden["networkx"]
	syntax := Mutate(golden, FaultSyntax, "networkx", q, "s")
	if sandbox.CheckSyntax(syntax) == nil && !strings.Contains(syntax, "return (") {
		t.Error("syntax mutation should not parse")
	}
	for _, class := range []string{FaultAttr, FaultName, FaultArgument, FaultOperation} {
		mutated := Mutate(golden, class, "networkx", q, "s")
		if mutated == golden {
			t.Errorf("%s mutation is a no-op", class)
		}
		if err := sandbox.CheckSyntax(mutated); err != nil {
			t.Errorf("%s mutation should parse, got %v", class, err)
		}
	}
}

func TestWrongVariantsExistForCalibratedCells(t *testing.T) {
	for model, fails := range networkxTrafficFails {
		for qid, class := range fails {
			if class == FaultWrongCalc || class == FaultGraphDiff {
				if _, ok := WrongVariant(qid, "networkx"); !ok {
					t.Errorf("%s/%s calibrated %s but no hand-written variant", model, qid, class)
				}
			}
		}
	}
	for model, fails := range networkxMALTFails {
		for qid, class := range fails {
			if class == FaultWrongCalc || class == FaultGraphDiff {
				if _, ok := WrongVariant(qid, "networkx"); !ok {
					t.Errorf("%s/%s calibrated %s but no hand-written variant", model, qid, class)
				}
			}
		}
	}
}

func TestExpectedAccuracyMatchesPaperTable2(t *testing.T) {
	// The calibrated accuracies must reproduce Table 2 to two decimals
	// (our counts are derived from the paper's per-level fractions).
	cases := []struct {
		model, backend, app string
		want                float64
	}{
		{"gpt-4", "networkx", queries.AppTraffic, 0.88},
		{"gpt-3", "networkx", queries.AppTraffic, 0.63},
		{"text-davinci-003", "networkx", queries.AppTraffic, 0.63},
		{"bard", "networkx", queries.AppTraffic, 0.58},
		{"gpt-4", "sql", queries.AppTraffic, 0.50},
		{"gpt-4", "pandas", queries.AppTraffic, 0.38},
		{"gpt-4", "networkx", queries.AppMALT, 0.78},
		{"gpt-3", "networkx", queries.AppMALT, 0.44},
		{"gpt-4", "sql", queries.AppMALT, 0.11},
		{"gpt-4", "pandas", queries.AppMALT, 0.56},
	}
	for _, c := range cases {
		got := ExpectedAccuracy(c.model, c.backend, c.app)
		if got < c.want-0.005 || got > c.want+0.005 {
			t.Errorf("%s/%s/%s = %.4f, want ≈%.2f", c.model, c.backend, c.app, got, c.want)
		}
	}
}

func TestCaseStudyQueriesAreCalibratedFails(t *testing.T) {
	for _, id := range CaseStudyQueries {
		out := OutcomeOf("bard", queries.AppMALT, "networkx", id)
		if out.Pass {
			t.Errorf("case-study query %s is not a bard failure", id)
		}
	}
}
